"""Every problem of the benchmark's workloads agrees with its oracle: a
wrong answer, or a CLI flag the harness passes that the CLI no longer
takes, must fail here before it lowers the benchmark's correct_frac."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads, run = _load("workloads"), _load("run")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_problem_of_seed_1_is_ok(workload, tmp_path):
    _, problems = workloads.generate(workload, 1, str(tmp_path))
    failures = []
    for p in problems:
        _, outcome, reason = run.run_problem(p)
        if outcome != "ok":
            failures.append((p.pid, outcome, reason))
    assert failures == []
