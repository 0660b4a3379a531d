"""spinspec benchmark: seeded closed-loop problem batches checked by oracles.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload floquet-batch --seed 1 --seconds 32 --trace 0

One process runs one problem at a time (closed loop, no extra threads);
BLAS keeps the thread count of the caller's environment.  CLI problems go
through ``spinspec.cli.main(argv)`` in-process with stdout captured, which
is the CLI's code path without interpreter start-up; start-up is measured
by ``setup_s``.  Input files are written before timing starts.  The timed
phase repeats the workload's problem list as whole rounds until at least
``--seconds`` have passed and at least 100 problems ran, so ten or more
samples lie beyond p90.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (see ``tracing.py``), its overhead against an
untraced pass of the same rounds, and the ``numpy.linalg`` layers of the
same traced pass in a child process with OPENBLAS_NUM_THREADS=1.  The last
stdout line is the JSON result; the lines before it describe the run and
its environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

MIN_SAMPLES = 100
COLD_STARTS = 7
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END = [
    ("problems_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("correct_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_LAYER_UNITS = {"calls": "count", "ms": "ms", "self_ms": "ms", "rank_sum": "count"}
_LAYERS = [
    ("floquet.symbol_eval", ("calls", "ms")),
    ("floquet.min_singular_on_circle", ("calls", "ms", "self_ms")),
    ("numpy.linalg.svd", ("calls", "ms")),
    ("floquet.toeplitz_index", ("calls", "ms", "self_ms")),
    ("numpy.linalg.det", ("calls", "ms")),
    ("floquet.spectral_flow", ("calls", "ms", "self_ms")),
    ("linalg.hermitian_eigenvalues", ("calls", "ms", "self_ms")),
    ("numpy.linalg.eigh", ("calls", "ms")),
    ("linalg.rational_ldl_inertia", ("calls", "ms", "rank_sum")),
    ("invariants.form_from_rows", ("calls",)),
    ("invariants.parse_form_spec", ("ms",)),
    ("discretize.build_circle_dirac", ("calls", "ms")),
    ("discretize.period_symbol", ("ms",)),
    ("floquet.finite_section", ("ms",)),
    ("floquet.fredholm_via_sections", ("ms",)),
    ("spectra.product_square_spectrum", ("ms",)),
    ("problemfile.parse_problem_file", ("calls", "ms")),
    ("cli.main", ("self_ms",)),
]
_BLAS_LAYERS = ("numpy.linalg.svd", "numpy.linalg.det", "numpy.linalg.eigh")
PER_LAYER = (
    [(f"{layer}.{field}", _LAYER_UNITS[field]) for layer, fields in _LAYERS for field in fields]
    + [("numpy.linalg.flops_computed", "Mflop"),
       ("ratio.eig_per_family_eval", "ratio"),
       ("ratio.ldl_per_forms_problem", "ratio"),
       ("trace.problems", "count"),
       ("trace.spans", "count"),
       ("trace.untraced_wall_s", "s"),
       ("trace.traced_wall_s", "s"),
       ("trace.overhead_s", "s")]
    + [(f"blas1.{layer}.ms", "ms") for layer in _BLAS_LAYERS]
    + [("blas1.traced_wall_s", "s")]
)

_COLD = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from spinspec.cli import main; sys.exit(main(sys.argv[2:]))")


def _import_program():
    """Import spinspec from this checkout's src/, or exit with status 2."""
    if not os.path.isfile(os.path.join(SRC, "spinspec", "cli.py")):
        sys.exit(f"error: {SRC}/spinspec not found; run from the root of a spinspec checkout")
    sys.path.insert(0, SRC)
    import spinspec
    if os.path.dirname(os.path.abspath(spinspec.__file__)) != os.path.join(SRC, "spinspec"):
        sys.exit(f"error: imported spinspec from {spinspec.__file__}, not from {SRC}")


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "commit": _git_commit(),
    }


def run_problem(problem):
    """Run one problem; returns (seconds, outcome, reason) with outcome
    "ok", "failed" (raised or exited non-zero) or "wrong" (the answer
    disagrees with the oracle)."""
    from spinspec import cli
    start = perf_counter()
    try:
        if problem.argv is not None:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(problem.argv)
            elapsed = perf_counter() - start
            if code != 0:
                lines = err.getvalue().strip().splitlines()
                return elapsed, "failed", f"exit {code}: {lines[-1] if lines else ''}"
            answer = json.loads(out.getvalue())["results"]
        else:
            answer = problem.call()
            elapsed = perf_counter() - start
    except (Exception, SystemExit) as exc:  # a crashing problem is a counted failure
        return perf_counter() - start, "failed", f"raised {type(exc).__name__}: {exc}"
    reason = _judge(problem, answer)
    return elapsed, ("ok" if reason is None else "wrong"), reason


def _judge(problem, answer):
    """The oracle's verdict; an answer in an unexpected shape is wrong."""
    try:
        return problem.check(answer)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"answer has an unexpected shape: {exc!r}"


class Tally:
    """Outcomes and latencies of the problems run in one pass."""

    def __init__(self):
        self.latencies = []
        self.ok = 0
        self.unexpected = 0  # wrong answers, and failures outside known defects
        self.failures = {}

    def add(self, problem, seconds, outcome, reason):
        self.latencies.append(seconds)
        if outcome == "ok":
            self.ok += 1
            return
        if outcome == "wrong" or problem.defect is None:
            self.unexpected += 1
        key = (problem.pid, problem.defect or "UNEXPECTED", outcome, (reason or "")[:160])
        self.failures[key] = self.failures.get(key, 0) + 1

    @property
    def attempted(self):
        return len(self.latencies)


def run_rounds(problems, tally, seconds=None, rounds=None, tracer=None):
    """Closed loop over whole rounds of ``problems``: a fixed number of
    ``rounds``, or until ``seconds`` passed and MIN_SAMPLES ran."""
    start = perf_counter()
    done = 0
    while True:
        for problem in problems:
            if tracer is not None:
                tracer.problem = f"{tally.attempted}.{problem.pid}"
            tally.add(problem, *run_problem(problem))
        done += 1
        elapsed = perf_counter() - start
        if rounds is not None:
            if done >= rounds:
                return elapsed, done
        elif elapsed >= seconds and tally.attempted >= MIN_SAMPLES:
            return elapsed, done


def cold_start(problem):
    """Fresh interpreter: start Python, import spinspec, answer the problem."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", _COLD, SRC] + problem.argv,
                          capture_output=True, text=True, timeout=150, cwd=ROOT)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        return elapsed, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        answer = json.loads(proc.stdout)["results"]
    except (KeyError, ValueError) as exc:
        return elapsed, f"unreadable report: {exc!r}"
    return elapsed, _judge(problem, answer)


def end_to_end(setup, problems, seconds):
    cold = []
    bad = []
    for _ in range(COLD_STARTS):
        elapsed, reason = cold_start(setup)
        cold.append(elapsed)
        if reason is not None:
            bad.append(reason)
    run_rounds(problems, Tally(), rounds=1)  # warm-up: lazy imports, BLAS threads, allocator
    tally = Tally()
    elapsed, rounds = run_rounds(problems, tally, seconds=seconds)
    deciles = statistics.quantiles(tally.latencies, n=10, method="inclusive")
    metrics = {
        "problems_per_s": tally.ok / elapsed,
        "latency_p50_ms": 1e3 * deciles[4],
        "latency_p90_ms": 1e3 * deciles[8],
        "correct_frac": tally.ok / tally.attempted,
        "setup_s": statistics.median(cold),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    beyond = sum(x > deciles[8] for x in tally.latencies)
    notes = [f"timed phase: {tally.attempted} problems in {rounds} rounds of {len(problems)}, "
             f"{elapsed:.3f} s; {beyond} samples beyond p90",
             "cold starts (s): " + ", ".join(f"{x:.4f}" for x in cold)]
    notes += [f"cold start answer wrong: {r}" for r in bad]
    return tally, metrics, notes, not bad


def traced_rounds(problems, tracer, tally, rounds):
    tracer.install()
    try:
        wall, _ = run_rounds(problems, tally, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    return wall


def blas1_layers(problems, rounds):
    """The traced rounds of a child run with OPENBLAS_NUM_THREADS=1."""
    from tracing import Tracer
    run_rounds(problems, Tally(), rounds=1)
    tracer, tally = Tracer(), Tally()
    wall = traced_rounds(problems, tracer, tally, rounds)
    layers = {f"{name}.ms": 1e3 * tracer.stats[name][1] for name in _BLAS_LAYERS}
    return {"layers": layers, "wall_s": wall, "ok": tally.unexpected == 0}


def _blas1_child(args, rounds):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
            "--rounds", str(rounds), "--blas1-child"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread child failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_layer(args, problems):
    """Untraced and traced rounds alternate, so drift in machine speed falls
    on both sides of the tracing overhead."""
    from tracing import Tracer
    run_rounds(problems, Tally(), rounds=1)  # warm-up
    tracer, tally, untraced = Tracer(), Tally(), Tally()
    untraced_wall = wall = 0.0
    rounds = 0
    while untraced_wall < args.seconds / 3.0:
        untraced_wall += run_rounds(problems, untraced, rounds=1)[0]
        wall += traced_rounds(problems, tracer, tally, 1)
        rounds += 1
    child = _blas1_child(args, rounds)

    values = {}
    for name, fields in _LAYERS:
        calls, secs, self_secs = tracer.stats[name]
        got = {"calls": calls, "ms": 1e3 * secs, "self_ms": 1e3 * self_secs,
               "rank_sum": tracer.ldl_rank_sum}
        for field in fields:
            values[f"{name}.{field}"] = got[field]
    forms_problems = sum(1 for p in problems if p.argv and p.argv[0] == "forms") * rounds
    ldl_calls = tracer.stats["linalg.rational_ldl_inertia"][0]
    values.update({
        "numpy.linalg.flops_computed": tracer.flops / 1e6,
        "ratio.eig_per_family_eval": (tracer.eig_in_flow / len(tracer.flow_points)
                                      if tracer.flow_points else 0.0),
        "ratio.ldl_per_forms_problem": ldl_calls / forms_problems if forms_problems else 0.0,
        "trace.problems": tally.attempted,
        "trace.spans": len(tracer.spans),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "blas1.traced_wall_s": child["wall_s"],
    })
    for name in _BLAS_LAYERS:
        values[f"blas1.{name}.ms"] = child["layers"][f"{name}.ms"]
    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"{args.workload}.spans.jsonl"))
    notes = [f"traced pass: {tally.attempted} problems in {rounds} rounds, "
             f"{len(tracer.spans)} spans; untraced {untraced_wall:.3f} s, traced {wall:.3f} s, "
             f"OPENBLAS_NUM_THREADS=1 traced {child['wall_s']:.3f} s"]
    metrics = {name: values[name] for name, _ in PER_LAYER}
    return tally, metrics, notes, child["ok"] and untraced.unexpected == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--rounds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--blas1-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup, problems = workloads.generate(args.workload, args.seed, workdir)
        if args.blas1_child:
            print(json.dumps(blas1_layers(problems, args.rounds)))
            return
        if args.trace:
            tally, metrics, notes, extra_ok = per_layer(args, problems)
            units = dict(PER_LAYER)
        else:
            tally, metrics, notes, extra_ok = end_to_end(setup, problems, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    print(f"outcomes: {tally.ok} correct of {tally.attempted}; "
          f"{tally.attempted - tally.ok} failed ({tally.unexpected} outside known defects)")
    for (pid, family, outcome, reason), count in sorted(tally.failures.items()):
        print(f"  {count:4d} x {outcome} [{family}] {pid}: {reason}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    result = {
        "correct": tally.unexpected == 0 and extra_ok,
        "attempted": tally.attempted,
        "failed": tally.attempted - tally.ok,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
