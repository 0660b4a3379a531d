"""Span tracing of spinspec's layers from outside the program.

``Tracer.install`` wraps public functions by replacing module attributes
inside this process only: every ``spinspec`` module attribute (and the
``numpy.linalg`` attribute) that is the original function object is
pointed at the wrapper, so calls through names a module imported from
another module are seen too.  Each call records a span (name, start, end,
parent span, problem id); spans stay in memory until ``write_spans``.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (layer name, module, attribute); the layer name is "<module>.<function>"
# with the spinspec package prefix dropped.
TARGETS = [
    ("cli.main", "spinspec.cli", "main"),
    ("problemfile.parse_problem_file", "spinspec.problemfile", "parse_problem_file"),
    ("floquet.symbol_eval", "spinspec.floquet", "symbol_eval"),
    ("floquet.min_singular_on_circle", "spinspec.floquet", "min_singular_on_circle"),
    ("floquet.toeplitz_index", "spinspec.floquet", "toeplitz_index"),
    ("floquet.spectral_flow", "spinspec.floquet", "spectral_flow"),
    ("floquet.finite_section", "spinspec.floquet", "finite_section"),
    ("floquet.fredholm_via_sections", "spinspec.floquet", "fredholm_via_sections"),
    ("linalg.hermitian_eigenvalues", "spinspec.linalg", "hermitian_eigenvalues"),
    ("linalg.rational_ldl_inertia", "spinspec.linalg", "rational_ldl_inertia"),
    ("invariants.form_from_rows", "spinspec.invariants", "form_from_rows"),
    ("invariants.parse_form_spec", "spinspec.invariants", "parse_form_spec"),
    ("discretize.build_circle_dirac", "spinspec.discretize", "build_circle_dirac"),
    ("discretize.period_symbol", "spinspec.discretize", "period_symbol"),
    ("spectra.product_square_spectrum", "spinspec.spectra", "product_square_spectrum"),
    ("numpy.linalg.svd", "numpy.linalg", "svd"),
    ("numpy.linalg.det", "numpy.linalg", "det"),
    ("numpy.linalg.eigh", "numpy.linalg", "eigh"),
]

_SPECTRAL_FLOW = "floquet.spectral_flow"


def linalg_flops(name: str, a, kwargs) -> float:
    """Real floating-point operations of one dense LAPACK call, computed
    from the operand's shape with the Golub & Van Loan counts (complex
    arithmetic costs four real operations per multiply-add)."""
    a = np.asarray(a)
    *batch, m, n = a.shape
    if name == "numpy.linalg.svd":
        m, n = max(m, n), min(m, n)
        if kwargs.get("compute_uv", True):
            flops = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3
        else:
            flops = 4 * m * n * n - 4 * n ** 3 / 3
    elif name == "numpy.linalg.det":
        flops = 2 * n ** 3 / 3
    else:  # eigh returns eigenvectors
        flops = 9 * n ** 3
    return (4 if np.iscomplexobj(a) else 1) * math.prod(batch) * flops


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index, problem id)
        self.problem = None      # id of the problem being run
        self.stats = {name: [0, 0.0, 0.0] for name, _, _ in TARGETS}  # calls, s, self s
        self.open = Counter()    # open spans per name
        self.flops = 0.0
        self.ldl_rank_sum = 0
        self.eig_in_flow = 0
        self.flow_points = set()  # distinct (problem, z) evaluated inside spectral flow
        self._stack = []         # open span indices
        self._child = []         # child time accumulated per open span
        self._patches = []

    def _enter_hook(self, name, args, kwargs):
        if name.startswith("numpy.linalg."):
            self.flops += linalg_flops(name, args[0], kwargs)
        elif name == "linalg.rational_ldl_inertia":
            self.ldl_rank_sum += len(args[0])
        elif self.open[_SPECTRAL_FLOW]:
            if name == "floquet.symbol_eval":
                self.flow_points.add((self.problem, complex(args[1])))
            elif name == "linalg.hermitian_eigenvalues":
                self.eig_in_flow += 1

    def _wrap(self, name, fn):
        tracer = self
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter_hook(name, args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            tracer._child.append(0.0)
            tracer.open[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                tracer._stack.pop()
                child = tracer._child.pop()
                if tracer._child:
                    tracer._child[-1] += dur
                tracer.open[name] -= 1
                tracer.spans[idx] = (name, start, end, parent, tracer.problem)
                stat[0] += 1
                stat[2] += dur - child
                if not tracer.open[name]:  # count nested same-name time once
                    stat[1] += dur
        return wrapper

    def install(self) -> None:
        originals = [(name, getattr(importlib.import_module(modname), attr))
                     for name, modname, attr in TARGETS]
        modules = [m for n, m in sys.modules.items() if n.startswith("spinspec.")]
        modules.append(sys.modules["numpy.linalg"])
        for name, orig in originals:
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patches):
            setattr(mod, key, value)
        self._patches.clear()

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, problem in self.spans:
                fh.write(json.dumps([name, start, end, parent, problem]) + "\n")
