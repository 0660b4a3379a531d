"""The benchmark's span tracer patches spinspec functions by module and
attribute name; a rename in spinspec must fail here before it breaks a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize("name, modname, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_trace_target_resolves(name, modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr))
