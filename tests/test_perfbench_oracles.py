"""Every problem of the benchmark's workloads agrees with its oracle: a
wrong answer, or a CLI flag the harness passes that the CLI no longer
takes, must fail here before it lowers the benchmark's correct_frac."""

import json

import pytest

from _corpus import perfbench_module
from spinspec.cli import main


workloads, run = perfbench_module("workloads"), perfbench_module("run")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_problem_of_seed_1_is_ok(workload, tmp_path):
    _, problems = workloads.generate(workload, 1, str(tmp_path))
    failures = []
    for p in problems:
        _, outcome, reason = run.run_problem(p)
        if outcome != "ok":
            failures.append((p.pid, outcome, reason))
    assert failures == []


def test_fredholm_and_index_agree_on_the_floquet_batch(tmp_path, capsys):
    """``fredholm`` prints an index exactly where ``index`` certifies one,
    the same one, on every symbol file of seed 1's fredholm and index
    problems.  Elsewhere ``index`` exits 3: "not Fredholm" exactly where
    the verdict is ``not-fredholm``, and "not certified" otherwise."""
    _, problems = workloads.generate("floquet-batch", 1, str(tmp_path))
    symbols = [p.argv[1:] for p in problems if p.argv and p.argv[0] in ("fredholm", "index")]
    assert len(symbols) == 24
    for argv in symbols:
        assert main(["fredholm", *argv]) == 0
        report = json.loads(capsys.readouterr().out)["results"]
        code = main(["index", *argv])
        out, err = capsys.readouterr()
        if report["verdict"] == "fredholm" and report["index"] is not None:
            assert (code, json.loads(out)["results"]["index"]) == (0, report["index"]), argv
        else:
            reason = "not Fredholm" if report["verdict"] == "not-fredholm" else "not certified"
            assert (code, out) == (3, "") and reason in err, argv
