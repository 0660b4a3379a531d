"""Self-test of the benchmark harness.

Run from the root of a source checkout:

    python3 perfbench/selftest.py            # seeds 0..2
    python3 perfbench/selftest.py --seeds 30 # seeds 0..29

For every workload and seed it runs each generated problem once and
requires that the library agrees with the generator's oracle on every
problem outside the known-defect families, that each defect family is in
the mix and is counted (as a failure, or as a correct answer once the
program is fixed) without crashing the harness.  It also checks that
BENCHMARK.json names exactly the metrics and workloads the harness
prints, and that traced self times add up to the traced wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run

DEFECT_FAMILIES = {
    "floquet-batch": {"det-overflow", "hermitian-1x1-crossing"},
    "exact-forms": {"negative-rational-flag"},
    "twist-sections": set(),
}


def check_benchmark_json(errors):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {(m["name"], m["unit"]) for m in spec["end_to_end"]}
    if listed != set(run.END_TO_END):
        errors.append(f"BENCHMARK.json end_to_end {sorted(listed)} != harness {run.END_TO_END}")
    listed = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    if listed != set(run.PER_LAYER):
        errors.append(f"BENCHMARK.json per_layer differs from the harness: "
                      f"{sorted(listed ^ set(run.PER_LAYER))}")
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(DEFECT_FAMILIES):
        errors.append(f"BENCHMARK.json workloads {names}")


def check_workload(workload, seed, errors):
    import workloads
    workdir = os.path.join(run.WORK, f"selftest-{workload}-{seed}-{os.getpid()}")
    try:
        _, problems = workloads.generate(workload, seed, workdir)
        tally = run.Tally()
        for problem in problems:
            tally.add(problem, *run.run_problem(problem))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seen = {p.defect for p in problems if p.defect}
    if seen != DEFECT_FAMILIES[workload]:
        errors.append(f"{workload} seed {seed}: defect families {seen}")
    counted = sum(tally.failures.values())
    if counted != tally.attempted - tally.ok:
        errors.append(f"{workload} seed {seed}: {counted} failures recorded, "
                      f"{tally.attempted - tally.ok} counted")
    for (pid, family, outcome, reason), count in tally.failures.items():
        if family == "UNEXPECTED" or outcome == "wrong":
            errors.append(f"{workload} seed {seed}: {pid} {outcome}: {reason}")
    print(f"{workload} seed {seed}: {tally.ok}/{tally.attempted} correct, "
          f"known-defect failures {tally.attempted - tally.ok - tally.unexpected}")


def check_self_times(errors):
    import workloads
    from tracing import Tracer
    workdir = os.path.join(run.WORK, f"selftest-trace-{os.getpid()}")
    tracer = Tracer()
    try:
        _, problems = workloads.generate("twist-sections", 0, workdir)
        wall = run.traced_rounds(problems, tracer, run.Tally(), 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    self_total = sum(stat[2] for stat in tracer.stats.values())
    if abs(roots - self_total) > 1e-6 * max(roots, 1.0) or roots > wall:
        errors.append(f"self times {self_total} do not add up to root spans {roots} (wall {wall})")
    if any(stat[2] < -1e-9 for stat in tracer.stats.values()):
        errors.append("negative self time")


def main():
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--seeds", type=int, default=3, help="test seeds 0..SEEDS-1")
    args = parser.parse_args()
    run._import_program()
    errors = []
    check_benchmark_json(errors)
    for workload in DEFECT_FAMILIES:
        for seed in range(args.seeds):
            check_workload(workload, seed, errors)
    check_self_times(errors)
    for line in errors:
        print("FAIL", line)
    print("selftest", "failed" if errors else "passed")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
