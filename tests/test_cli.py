import cmath
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinspec
from _corpus import perfbench_module, signed_spec, symbol_to_text
from spinspec.cli import main, report_to_json
from spinspec.floquet import LaurentSymbol
from spinspec.invariants import BUILTIN_FORM_NAMES, builtin_form, parse_form_spec
from spinspec.problemfile import parse_problem_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant)


@pytest.fixture
def shifted_scalar_file(tmp_path):
    path = tmp_path / "z_minus_2.txt"
    path.write_text(symbol_to_text(LaurentSymbol.scalar({0: -2, 1: 1})))
    return str(path)


@pytest.fixture
def shift_file(tmp_path):
    path = tmp_path / "shift.txt"
    path.write_text(symbol_to_text(LaurentSymbol.scalar({1: 1})))
    return str(path)


@pytest.fixture
def root_on_circle_file(tmp_path):
    path = tmp_path / "z_minus_1.txt"
    path.write_text(symbol_to_text(LaurentSymbol.scalar({0: -1, 1: 1})))
    return str(path)


class TestSpectrumCommand:
    def test_circle_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "circle", "--spin", "bounding",
                           "--c", "0", "--band", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eigenvalue,multiplicity"
        values = [float(l.split(",")[0]) for l in lines[1:]]
        assert values == [-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5]

    def test_sphere_multiplicities(self, capsys):
        doc = run_json(capsys, "spectrum", "sphere", "--l", "2", "--kmax", "1")
        pairs = doc["results"]["pairs"]
        assert pairs == [[-2.0, 4], [-1.0, 2], [1.0, 2], [2.0, 4]]

    def test_half_twist_contains_zero(self, capsys):
        doc = run_json(capsys, "spectrum", "circle", "--spin", "bounding",
                       "--c", "0.5", "--band", "2")
        assert any(abs(lam) < 1e-12 for lam, _ in doc["results"]["pairs"])

    def test_product(self, capsys):
        doc = run_json(capsys, "spectrum", "product", "--spin", "bounding",
                       "--c", "0", "--band", "3", "--l", "2", "--kmax", "2",
                       "--cutoff", "10")
        assert doc["results"]["pairs"][0][0] == pytest.approx(1.25)

    def test_invalid_params_exit_2(self, capsys):
        code, _, _ = run(capsys, "spectrum", "circle", "--band", "0")
        assert code == 2
        code, _, _ = run(capsys, "spectrum", "sphere", "--l", "1")
        assert code == 2

    @pytest.mark.parametrize("c", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["circle", "--band", "2"],
                                      ["circle", "--format", "csv"],
                                      ["product"]],
                             ids=["circle-json", "circle-csv", "product"])
    def test_non_finite_twist_exit_2(self, capsys, c, argv):
        code, out, err = run(capsys, "spectrum", *argv, f"--c={c}")
        assert code == 2 and out == ""
        assert "twist must be finite" in err

    @pytest.mark.parametrize("cutoff", ["inf", "-inf", "nan"])
    def test_non_finite_cutoff_exit_2(self, capsys, cutoff):
        code, out, err = run(capsys, "spectrum", "product", f"--cutoff={cutoff}")
        assert code == 2 and out == ""
        assert "cutoff must be finite" in err

    @pytest.mark.parametrize("argv", [["sphere"], ["sphere", "--format", "csv"],
                                      ["product", "--cutoff", "1e9", "--band", "2"]],
                             ids=["sphere-json", "sphere-csv", "product"])
    def test_multiplicity_too_long_to_write_exit_2(self, capsys, argv):
        # 2^15000 has more digits than Python writes as text by default
        code, out, err = run(capsys, "spectrum", *argv, "--l", "30000", "--kmax", "0")
        assert code == 2 and out == ""
        assert err == "error: a multiplicity has too many digits to write\n"


class TestTwistScan:
    def test_bounding(self, capsys):
        doc = run_json(capsys, "twist-scan", "--spin", "bounding",
                       "--steps", "80", "--grid", "16")
        locations = [e["value"] for e in doc["results"]["kernel_twists_mod1"]]
        assert len(locations) == 1
        assert abs(locations[0] - 0.5) < 1e-6
        assert doc["results"]["cover_operator_fredholm"] is False

    def test_nonbounding(self, capsys):
        doc = run_json(capsys, "twist-scan", "--spin", "nonbounding",
                       "--steps", "80", "--grid", "16")
        locations = [e["value"] for e in doc["results"]["kernel_twists_mod1"]]
        assert len(locations) == 1
        assert min(locations[0], 1.0 - locations[0]) < 1e-6

    def test_massive_verdict_fredholm(self, capsys):
        doc = run_json(capsys, "twist-scan", "--spin", "bounding", "--massive",
                       "0.75", "--steps", "40", "--grid", "16")
        assert doc["results"]["kernel_twists_mod1"] == []
        assert doc["results"]["cover_operator_fredholm"] is True

    @pytest.mark.parametrize("spin", ["bounding", "nonbounding"])
    def test_steps_has_no_effect(self, capsys, spin):
        docs = [run_json(capsys, "twist-scan", "--spin", spin, "--c-from", "-2.3",
                         "--c-to", "1.9", "--steps", steps)
                for steps in ("3", "400")]
        assert docs[0]["results"] == docs[1]["results"]
        assert docs[0]["results"]["kernel_twists_mod1"]

    @pytest.mark.parametrize("flag,value", [("--massive", "nan"), ("--massive", "inf"),
                                            ("--c-to", "inf"), ("--c-from", "-inf"),
                                            ("--c-from", "-nan"), ("--c-from", "-Infinity"),
                                            ("--c-to", "-INF"), ("--grid", "7"),
                                            ("--grid", "4")])
    def test_bad_input_exit_3(self, capsys, flag, value):
        code, out, err = run(capsys, "twist-scan", "--steps", "40", "--grid", "16",
                             flag, value)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")
        if flag == "--grid":
            assert "grid size must be even and at least 8" in err


class TestFredholmCommands:
    def test_fredholm_true(self, capsys, shifted_scalar_file):
        doc = run_json(capsys, "fredholm", shifted_scalar_file)
        res = doc["results"]
        assert res["is_fredholm"] is True
        assert res["index"] == 0
        assert res["min_singular"]["value"] == pytest.approx(1.0, abs=1e-7)
        assert res["verdict"] == "fredholm"
        assert 0.0 < res["lower_bound"] <= res["min_singular"]["value"]
        assert 0 < res["evaluations"] <= 2 * res["grid_used"] + 202

    def test_fredholm_non_hermitian_report_is_pinned(self, capsys, tmp_path):
        # a symbol that is not Hermitian-symmetric takes the SVD path, whose
        # report is pinned value for value
        s = LaurentSymbol({0: [[-2, 0.5j], [0.25, -3]], 1: [[1, 0], [0.5, 1]]})
        assert not s.hermitian_symmetric
        path = tmp_path / "general.txt"
        path.write_text(symbol_to_text(s))
        doc = run_json(capsys, "fredholm", str(path))
        assert doc["results"] == {
            "evaluations": 65, "grid_used": 512, "index": 0, "is_fredholm": True,
            "lower_bound": 0.8578144281664934,
            "min_singular": {"tol": 1e-06, "value": 0.8656107270859318},
            "verdict": "fredholm", "witness": [0.9787174917318399, -0.20521225932710757]}

    def test_fredholm_false_witness(self, capsys, root_on_circle_file):
        doc = run_json(capsys, "fredholm", root_on_circle_file)
        res = doc["results"]
        assert res["is_fredholm"] is False
        assert res["verdict"] == "not-fredholm"
        assert abs(res["witness"][0] - 1.0) < 1e-3

    def test_fredholm_index_beyond_block_128(self, capsys, tmp_path):
        # det A(z) = 2^130 (z + 1/4)^130 winds 130 times; the index is
        # filled at any block size
        path = tmp_path / "many_turns.txt"
        path.write_text(symbol_to_text(LaurentSymbol({0: 0.5 * np.eye(130),
                                                      1: 2.0 * np.eye(130)})))
        res = run_json(capsys, "fredholm", str(path))["results"]
        assert (res["verdict"], res["index"]) == ("fredholm", -130)

    def test_index_of_shift(self, capsys, shift_file):
        doc = run_json(capsys, "index", shift_file)
        assert doc["results"]["index"] == -1

    def test_index_of_non_fredholm_exit_3(self, capsys, root_on_circle_file):
        code, _, err = run(capsys, "index", root_on_circle_file)
        assert code == 3 and "error" in err

    def test_index_near_a_circle_zero(self, capsys, tmp_path):
        # sigma_min = d, just above --tol: both commands split arcs for the
        # tolerance within one budget and print the index only when their
        # bound clears it; at 1.05e-6 the budget runs out first
        path = tmp_path / "near_zero.txt"
        for d, verdict, index in ((1.2e-6, "fredholm", 0), (1.05e-6, "inconclusive", None)):
            path.write_text(symbol_to_text(LaurentSymbol.scalar({0: -(1 + d), 1: 1})))
            res = run_json(capsys, "fredholm", str(path))["results"]
            assert (res["verdict"], res["index"]) == (verdict, index)
            if index is None:
                code, out, err = run(capsys, "index", str(path))
                assert (code, out) == (3, "") and "index is not certified" in err
            else:
                assert run_json(capsys, "index", str(path))["results"]["index"] == index

    @pytest.mark.parametrize("k", [-520, 520])
    def test_rescaled_files_keep_their_reports(self, capsys, tmp_path, k):
        """Seed 1's floquet-batch symbols, written with every entry times
        2^k and run at --tol times 2^k, keep their verdicts, index, flow and
        crossings; min_singular and lower_bound scale by 2^k."""
        _, problems = perfbench_module("workloads").generate("floquet-batch", 1, str(tmp_path))
        f = math.ldexp(1.0, k)
        for pid in ("fredholm-n8", "index-n4", "spectral-flow-n4"):
            argv = next(p.argv for p in problems if p.pid == pid)
            s = parse_problem_file(open(argv[1], encoding="utf-8").read())
            path = tmp_path / f"scaled-{pid}.txt"
            path.write_text(symbol_to_text(LaurentSymbol({j: f * a for j, a in s.coeffs.items()})))
            scaled = [str(path) if a == argv[1] else a for a in argv]
            if "--tol" in argv:
                i = argv.index("--tol") + 1
                scaled[i] = repr(f * float(argv[i]))
            base, got = run_json(capsys, *argv)["results"], run_json(capsys, *scaled)["results"]
            for key in ("verdict", "index", "flow"):
                assert got.get(key) == base.get(key), (pid, key)
            if "lower_bound" in base:
                assert base["verdict"] == "fredholm"
                for value in (lambda r: r["min_singular"]["value"], lambda r: r["lower_bound"]):
                    assert value(got) == pytest.approx(f * value(base), rel=1e-9), pid
            assert len(got.get("crossings", [])) == len(base.get("crossings", []))
            for a, b in zip(got.get("crossings", []), base.get("crossings", [])):
                assert a["direction"] == b["direction"]
                assert a["parameter"]["value"] == pytest.approx(b["parameter"]["value"], abs=1e-9)

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[symbol]\nblock-size: 1\nbandwidth: 0\n[coeff 0]\nnope\n")
        code, _, err = run(capsys, "fredholm", str(bad))
        assert code == 2 and "line" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "fredholm", "/nonexistent/sym.txt")
        assert code == 2

    @pytest.mark.parametrize("command", ["fredholm", "index", "spectral-flow"])
    @pytest.mark.parametrize("case", ["directory", "unreadable", "not-utf8"])
    def test_unreadable_file_exit_2(self, capsys, tmp_path, command, case):
        path = tmp_path / "symbol.txt"
        path.write_bytes(b"[symbol]\nblock-size: \xff\xfe\n")
        denied = PermissionError(13, "Permission denied", str(path))
        with mock.patch("spinspec.cli.open", create=True, side_effect=denied) \
                if case == "unreadable" else contextlib.nullcontext():
            code, out, err = run(capsys, command, str(tmp_path if case == "directory" else path))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ") and err.count("\n") == 1

    @pytest.mark.parametrize("grid", [8, 16, 32])
    @pytest.mark.parametrize("spin", ["bounding", "nonbounding"])
    def test_spectral_flow_loop(self, capsys, tmp_path, grid, spin):
        # the central-difference loop has its kernel twist and its doubler's
        # at one point: a two-dimensional kernel crossed once each way
        from spinspec.discretize import Scheme, build_circle_dirac, period_symbol
        from spinspec.spectra import SpinStructure
        sym = period_symbol(build_circle_dirac(grid, Scheme.CENTRAL_DIFFERENCE,
                                               SpinStructure(spin), 0.0).matrix)
        path = tmp_path / "circle.txt"
        path.write_text(symbol_to_text(sym))
        res = run_json(capsys, "spectral-flow", str(path), "--steps", "50")["results"]
        assert res["flow"] == 0  # a closed symbol loop nets to zero
        assert sorted(c["direction"] for c in res["crossings"]) == [-1, 1]
        kernel = 0.5 if spin == "bounding" else 0.0
        for c in res["crossings"]:
            c = c["parameter"]["value"]
            assert 0.0 <= c < 1.0 and min(abs(c - kernel), 1.0 - abs(c - kernel)) < 1e-6

    @pytest.mark.parametrize("m", [1.999, 1.9999])
    def test_spectral_flow_close_crossings(self, capsys, tmp_path, m):
        # m + 2 cos(2 pi c + 0.3) crosses zero twice, closer together than
        # one scan step of --steps 50
        path = tmp_path / "close.txt"
        t = cmath.exp(0.3j)
        path.write_text(symbol_to_text(LaurentSymbol.scalar({0: m, 1: t, -1: t.conjugate()})))
        res = run_json(capsys, "spectral-flow", str(path), "--steps", "50")["results"]
        phase = math.acos(-m / 2)
        want = sorted([(((phase - 0.3) / (2 * math.pi)) % 1.0, -1),
                       (((-phase - 0.3) / (2 * math.pi)) % 1.0, 1)])
        got = [(c["parameter"]["value"], c["direction"]) for c in res["crossings"]]
        assert [d for _, d in got] == [d for _, d in want] and res["flow"] == 0
        assert all(abs(a - b) < 1e-6 for (a, _), (b, _) in zip(got, want))

    def test_spectral_flow_tangency_exit_3(self, capsys, tmp_path):
        # 2 + 2 cos(2 pi c + 0.3) touches zero without crossing
        path = tmp_path / "tangent.txt"
        t = cmath.exp(0.3j)
        path.write_text(symbol_to_text(LaurentSymbol.scalar({0: 2, 1: t, -1: t.conjugate()})))
        code, out, err = run(capsys, "spectral-flow", str(path), "--steps", "50")
        assert code == 3 and out == ""
        assert "certified crossing" in err

    def test_spectral_flow_takes_one_eig(self, capsys, tmp_path):
        # the crossings come from one companion eig: no Hermitian eigensolve
        from spinspec import floquet, linalg
        rng = np.random.default_rng(3)
        a1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        path = tmp_path / "loop.txt"
        path.write_text(symbol_to_text(LaurentSymbol({0: np.diag([0.5, -0.5, 3.0, -3.0]),
                                                      1: a1, -1: a1.conj().T})))
        with mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig, \
                mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
                mock.patch.object(linalg, "hermitian_eigenvalues") as he1, \
                mock.patch.object(floquet, "hermitian_eigenvalues") as he2:
            res = run_json(capsys, "spectral-flow", str(path), "--steps", "50")["results"]
        assert res["crossings"]
        assert (eig.call_count, eigh.call_count, he1.call_count, he2.call_count) == (1, 0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(1, 8), bandwidth=st.integers(1, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_spectral_flow_matches_a_fine_scan(self, block, bandwidth, seed):
        # random Hermitian-symmetric symbols whose crossings lie at least
        # 1/100 apart, in the CLI's list and in the 400-step scan's: the
        # zeros then give what the scan finds.  A close pair inside one scan
        # step is lost by the scan and found by the zeros, so the
        # separation is read off both lists
        from spinspec.conventions import twist_to_floquet
        from spinspec.floquet import spectral_flow, symbol_eval
        rng = np.random.default_rng(seed)
        a0 = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        coeffs = {0: a0 + a0.conj().T}
        for j in range(1, bandwidth + 1):
            coeffs[j] = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
            coeffs[-j] = coeffs[j].conj().T
        s = LaurentSymbol(coeffs)

        def family(c):
            a = symbol_eval(s, twist_to_floquet(c))
            return 0.5 * (a + a.conj().T)

        ref = spectral_flow(family, steps=400).crossings
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "loop.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(symbol_to_text(s))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["spectral-flow", path, "--steps", "50"]) == 0
        res = json.loads(out.getvalue())["results"]
        got = [(c["parameter"]["value"], c["direction"]) for c in res["crossings"]]
        for crossings in (ref, got):
            cs = [c for c, _ in crossings] + [crossings[0][0] + 1.0 if crossings else 1.0]
            assume(all(b - a >= 0.01 for a, b in zip(cs, cs[1:])))
        assert [d for _, d in got] == [d for _, d in ref]
        assert all(abs(a - b) < 1e-6 for (a, _), (b, _) in zip(got, ref))
        assert res["flow"] == sum(d for _, d in ref)

    def test_scalar_loop_crossings_at_closed_form_twists(self, capsys, tmp_path):
        # A(z(c)) = m + 2|t| cos(2 pi c + arg t) crosses zero twice
        m, t = 0.7, 0.9 * cmath.exp(0.4j)
        path = tmp_path / "loop.txt"
        path.write_text(symbol_to_text(LaurentSymbol.scalar({0: m, 1: t, -1: t.conjugate()})))
        doc = run_json(capsys, "spectral-flow", str(path), "--steps", "50")
        res = doc["results"]
        phase = math.acos(-m / (2 * abs(t)))
        down = ((phase - cmath.phase(t)) / (2 * math.pi)) % 1.0
        up = ((-phase - cmath.phase(t)) / (2 * math.pi)) % 1.0
        assert res["flow"] == 0
        got = sorted((c["parameter"]["value"], c["direction"]) for c in res["crossings"])
        want = sorted([(down, -1), (up, 1)])
        assert [d for _, d in got] == [d for _, d in want]
        assert all(abs(a - b) < 1e-6 for (a, _), (b, _) in zip(got, want))


class TestInvariantCommand:
    def test_beta_worked_values(self, capsys):
        doc = run_json(capsys, "invariant", "beta", "--rho", "1", "--sig-v", "-16")
        assert doc["results"]["residue_mod2"] == "0"
        doc = run_json(capsys, "invariant", "beta", "--rho", "0", "--sig-v", "-16")
        assert doc["results"]["residue_mod2"] == "1"

    def test_negative_rational_after_flag(self, capsys):
        typed = ["invariant", "beta", "--rho", "-33/4", "--sig-v", "16"]
        doc = run_json(capsys, *typed)
        joined = run_json(capsys, "invariant", "beta", "--rho=-33/4", "--sig-v", "16")
        assert doc["results"] == joined["results"] == {"value": "-37/4",
                                                       "residue_mod2": "3/4"}
        assert doc["command"] == typed

    def test_alpha(self, capsys):
        doc = run_json(capsys, "invariant", "alpha", "--n", "4", "--sign", "-16")
        assert doc["results"]["value"] == "1"

    def test_rohlin_and_lifts(self, capsys):
        doc = run_json(capsys, "invariant", "rohlin", "--sig-w", "8")
        assert doc["results"]["residue_mod2"] == "1"
        doc = run_json(capsys, "invariant", "w", "--ind", "2", "--sig-w", "0")
        assert doc["results"] == {"value": "2", "residue_mod2": "0"}
        doc = run_json(capsys, "invariant", "wcs", "--ind", "0", "--sig-w", "8",
                       "--sig-v", "-16")
        assert doc["results"] == {"value": "2", "residue_mod2": "0"}

    def test_outputs_are_strings_not_floats(self, capsys):
        doc = run_json(capsys, "invariant", "beta", "--rho", "1/2", "--sig-v", "8")
        assert isinstance(doc["results"]["value"], str)
        assert doc["results"]["value"] == "0"

    @pytest.mark.parametrize("argv", [["w", "--sig-w", "8"],
                                      ["wcs", "--sig-w", "8", "--sig-v", "16"]])
    def test_lift_without_ind_exit_3(self, capsys, argv):
        code, out, err = run(capsys, "invariant", *argv)
        assert code == 3 and out == ""
        assert err.startswith("error:") and "'ind'" in err

    @pytest.mark.parametrize("rho", ["abc", "1/0"])
    def test_non_rational_rho_exit_3(self, capsys, rho):
        code, _, err = run(capsys, "invariant", "beta", "--rho", rho)
        assert code == 3
        assert err == f"error: {rho!r} is not an exact rational\n"

    def test_negative_dimension_exit_3(self, capsys):
        code, out, err = run(capsys, "invariant", "alpha", "--n", "-1")
        assert (code, out, err) == (3, "", "error: dimension must be non-negative, got -1\n")

    def test_divisibility_violation_exit_3(self, capsys):
        code, _, _ = run(capsys, "invariant", "alpha", "--n", "4", "--sign", "-15")
        assert code == 3
        code, _, _ = run(capsys, "invariant", "rohlin", "--sig-w", "4", "--strict")
        assert code == 3


    @pytest.mark.parametrize("argv", [["w", "--ind", "2", "--sig-w", "4"],
                                      ["wcs", "--ind", "0", "--sig-w", "8", "--sig-v", "-16"],
                                      ["alpha", "--n", "4", "--sign", "-16"]])
    def test_strict_without_divisibility_condition_exit_3(self, capsys, argv):
        code, _, _ = run(capsys, "invariant", *argv)
        assert code == 0
        code, out, err = run(capsys, "invariant", *argv, "--strict")
        assert code == 3 and out == ""
        assert err == f"error: strict applies to rohlin and beta, not to {argv[0]!r}\n"

    @pytest.mark.parametrize("argv, flag", [
        (["rohlin", "--sig-w", "8", "--rho", "abc"], "rho"),
        (["beta", "--rho", "1", "--sig-v", "-16", "--ind", "2"], "ind"),
        (["w", "--ind", "2", "--sig-w", "0", "--sig-v", "16"], "sig-v"),
        (["wcs", "--ind", "0", "--sig-w", "8", "--sig-v", "-16", "--n", "4"], "n"),
        (["alpha", "--n", "4", "--sign", "-16", "--sig-w", "8"], "sig-w"),
    ])
    def test_flag_the_kind_does_not_read_exit_3(self, capsys, argv, flag):
        code, out, err = run(capsys, "invariant", *argv[:-2])
        assert code == 0
        code, out, err = run(capsys, "invariant", *argv)
        assert code == 3 and out == ""
        assert err == f"error: {argv[0]!r} does not read {flag!r}\n"

class TestFormsCommand:
    def test_show_k3(self, capsys):
        doc = run_json(capsys, "forms", "show", "K3")
        assert doc["results"]["rank"] == 22
        assert doc["results"]["signature"] == -16

    def test_show_k3_inertia(self, capsys):
        doc = run_json(capsys, "forms", "show", "K3")
        assert doc["results"]["inertia"] == [3, 19, 0]

    def test_show_h(self, capsys):
        doc = run_json(capsys, "forms", "show", "H")
        assert doc["results"]["signature"] == 0

    def test_sum(self, capsys):
        doc = run_json(capsys, "forms", "sum", "-E8+E8+3H")
        assert doc["results"]["rank"] == 22
        assert doc["results"]["signature"] == 0

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he", "--h", "--help=x"])
    def test_sum_help_is_not_a_spec(self, capsys, flag):
        # the help flag prints the help; -H is still the negated H
        code, out, err = run(capsys, "forms", "sum", flag)
        assert (code, err) == (0, "") and out.startswith("usage: spinspec forms sum ")
        doc = run_json(capsys, "forms", "sum", "-H")
        assert doc["command"] == ["forms", "sum", "--", "-H"]
        assert doc["results"]["matrix"] == [[0, -1], [-1, 0]]

    def test_list(self, capsys):
        doc = run_json(capsys, "forms", "list")
        assert doc["results"]["names"] == list(BUILTIN_FORM_NAMES)

    def test_unknown_name_exit_2(self, capsys):
        code, _, _ = run(capsys, "forms", "show", "E9")
        assert code == 2

    @pytest.mark.parametrize("spec", ["3", "2E8+X", "2--E8"])
    def test_sum_of_unknown_name_exit_2(self, capsys, spec):
        code, out, err = run(capsys, "forms", "sum", spec)
        assert code == 2 and out == ""
        assert "unknown form name" in err

    @pytest.mark.parametrize("spec,term", [("K3+Diag(+1)", "Diag(+1)"),
                                           ("E8+Diag(1,+2)+H", "Diag(1,+2)"),
                                           ("H+Diag(+1", "Diag(+1")])
    def test_bad_term_is_named_whole(self, capsys, spec, term):
        code, out, err = run(capsys, "forms", "sum", spec)
        assert (code, out, err) == (2, "", f"error: unknown form name {term!r}\n")


def assert_dense_encoding(out, form):
    """``out`` is the report ``json.dumps`` writes with the form's dense
    rows as its ``matrix``."""
    doc = json.loads(out)
    doc["results"]["matrix"] = [list(row) for row in form.matrix]
    assert out == json.dumps(doc, sort_keys=True) + "\n"


class TestFormReports:
    """``forms`` writes the matrix row by row from the blocks, byte for byte
    what ``json.dumps`` writes for the dense rows."""

    @settings(max_examples=60, deadline=None)
    @given(signed_spec(max_rank=200))
    def test_sum_report_is_the_dense_encoding(self, spec):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["forms", "sum", spec]) == 0
        assert_dense_encoding(out.getvalue(), parse_form_spec(spec))

    @pytest.mark.parametrize("name", ["E8", "H", "K3", "Diag(0,-2,3,0,-1)"])
    def test_show_report_is_the_dense_encoding(self, capsys, name):
        code, out, _ = run(capsys, "forms", "show", name)
        assert code == 0
        assert_dense_encoding(out, builtin_form(name))

    def test_report_builds_no_dense_matrix(self, capsys):
        forms = []

        def keep(spec):
            forms.append(parse_form_spec(spec))
            return forms[-1]
        with mock.patch("spinspec.cli.parse_form_spec", keep):
            doc = run_json(capsys, "forms", "sum", "8K3+2E8")
        assert doc["results"]["rank"] == 192 and len(doc["results"]["matrix"]) == 192
        assert "matrix" not in forms[0].__dict__


class TestReportDocument:
    def test_schema_and_convention(self, capsys, shifted_scalar_file):
        doc = run_json(capsys, "fredholm", shifted_scalar_file)
        assert doc["schema"] == "spinspec.report/2"
        assert doc["convention"]["clifford_sign"] == -1
        assert "tolerances" in doc and "timing_s" in doc

    def test_json_round_trip_byte_identical(self, capsys, shifted_scalar_file):
        code, out, _ = run(capsys, "fredholm", shifted_scalar_file)
        assert code == 0
        text = out[:-1]  # strip the trailing newline
        assert report_to_json(json.loads(text)) == text

    def test_large_report_round_trip_byte_identical(self, capsys):
        code, out, _ = run(capsys, "forms", "sum", "8K3+2E8")
        assert code == 0
        text = out[:-1]
        assert json.loads(text)["results"]["rank"] == 192
        assert report_to_json(json.loads(text)) == text

    @pytest.mark.parametrize("argv", [
        ["spectrum", "circle", "--band", "3"],
        ["spectrum", "sphere", "--l", "2", "--kmax", "1"],
        ["spectrum", "product", "--band", "3", "--kmax", "2", "--cutoff", "10"],
        ["twist-scan", "--spin", "nonbounding"],
        ["fredholm", "SYMBOL"],
        ["index", "SYMBOL"],
        ["spectral-flow", "LOOP", "--steps", "10"],
        ["invariant", "beta", "--rho", "1", "--sig-v", "-16"],
        ["forms", "list"],
        ["forms", "show", "K3"],
        ["forms", "sum", "-E8+E8+3H"],
        ["--convention"],
    ])
    def test_one_line_per_report(self, capsys, tmp_path, shifted_scalar_file, argv):
        loop = tmp_path / "loop.txt"
        loop.write_text(symbol_to_text(LaurentSymbol.scalar({0: 0.7, 1: 0.9, -1: 0.9})))
        files = {"SYMBOL": shifted_scalar_file, "LOOP": str(loop)}
        argv = [files.get(a, a) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)

    def test_results_deterministic(self, capsys):
        doc1 = run_json(capsys, "spectrum", "circle", "--c", "0.3", "--band", "5")
        doc2 = run_json(capsys, "spectrum", "circle", "--c", "0.3", "--band", "5")
        assert doc1["results"] == doc2["results"]

    def test_convention_flag(self, capsys):
        code, out, _ = run(capsys, "--convention")
        assert code == 0
        block = json.loads(out)
        assert block["index_convention"].startswith("half-line")

    def test_no_command_exit_2(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, err", [
        (["bogus"], "spinspec: error: argument command: invalid choice: 'bogus' (choose from "
                    "'spectrum', 'twist-scan', 'fredholm', 'index', 'spectral-flow', "
                    "'invariant', 'forms')"),
        (["spectrum", "circle", "--bogus"],
         "spinspec spectrum: error: unrecognized arguments: --bogus"),
        (["invariant", "beta", "--sig", "3"], "spinspec invariant: error: ambiguous option: "
                                              "--sig could match --sig-v, --sig-w, --sign"),
        (["spectrum", "circle", "--band"],
         "spinspec spectrum: error: argument --band: expected one argument"),
        (["spectrum", "circle", "--band", "x"],
         "spinspec spectrum: error: argument --band: invalid int value: 'x'"),
        (["twist-scan", "--c-to", "x"],
         "spinspec twist-scan: error: argument --c-to: invalid float value: 'x'"),
        (["spectrum", "circle", "--spin", "weird"], "spinspec spectrum: error: argument --spin: "
                                                    "invalid choice: 'weird' (choose from "
                                                    "'bounding', 'nonbounding')"),
        (["fredholm"], "spinspec fredholm: error: the following arguments are required: file"),
        (["forms", "show", "K3", "extra"],
         "spinspec forms show: error: unrecognized arguments: extra"),
    ], ids=["unknown-command", "unknown-flag", "ambiguous-prefix", "no-value", "bad-int",
            "bad-float", "invalid-choice", "missing-positional", "extra-positional"])
    def test_usage_error_exit_2(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", err + "\n")

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    @pytest.mark.parametrize("argv, names", [
        ([], ["spectrum", "twist-scan", "fredholm", "index", "spectral-flow", "invariant",
              "forms", "--convention"]),
        (["spectrum"], ["kind", "--spin", "--c", "--band", "--l", "--kmax", "--cutoff",
                        "--format"]),
        (["twist-scan"], ["--spin", "--c-from", "--c-to", "--steps", "--grid", "--massive"]),
        (["fredholm"], ["file", "--tol", "--grid"]),
        (["index"], ["file", "--tol"]),
        (["spectral-flow"], ["file", "--steps"]),
        (["invariant"], ["kind", "--rho", "--sig-v", "--sig-w", "--ind", "--n", "--sign",
                         "--dim-ker", "--dim-ker-plus", "--strict"]),
        (["forms"], ["list", "show", "sum"]),
        (["forms", "show"], ["name"]),
        (["forms", "sum"], ["spec"]),
    ])
    def test_help_exit_0(self, capsys, argv, names, flag):
        code, out, err = run(capsys, *argv, flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: " + " ".join(["spinspec", *argv]) + " ")
        assert {line.split()[0] for line in out.splitlines()[4:]} == {*names, "-h,"}

    @pytest.mark.parametrize("spaced, joined, code", [
        (["spectrum", "circle", "--c", "-0.25", "--band", "2"],
         ["spectrum", "circle", "--c=-0.25", "--band=2"], 0),
        (["spectrum", "product", "--c", "-inf"], ["spectrum", "product", "--c=-inf"], 2),
        (["twist-scan", "--c-from", "-1.3", "--c-to", "-0.3", "--grid", "16"],
         ["twist-scan", "--c-from=-1.3", "--c-to=-0.3", "--grid=16"], 0),
        (["invariant", "wcs", "--ind", "-2", "--sig-w", "-8", "--sig-v", "-16"],
         ["invariant", "wcs", "--ind=-2", "--sig-w=-8", "--sig-v=-16"], 0),
    ])
    def test_negative_values_need_no_equals(self, capsys, spaced, joined, code):
        answers = []
        for argv in (spaced, joined):
            got, out, err = run(capsys, *argv)
            answers.append((got, err, json.loads(out)["results"] if out else None))
        assert answers[0] == answers[1] and answers[0][0] == code

    def test_env_tolerance_override(self, capsys, monkeypatch, root_on_circle_file):
        monkeypatch.setenv("SPECTRAL_TOL", "1e-3")
        doc = run_json(capsys, "fredholm", root_on_circle_file)
        assert doc["tolerances"]["fredholm_tol"] == 1e-3
        monkeypatch.setenv("SPECTRAL_TOL", "bogus")
        code, _, _ = run(capsys, "fredholm", root_on_circle_file)
        assert code == 3

    # a NaN or infinite tolerance would put NaN or Infinity into the
    # report, and a negative one would skip the Fredholm check
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command, fixture", [("fredholm", "shifted_scalar_file"),
                                                  ("index", "root_on_circle_file")])
    def test_bad_tol_flag_exit_3(self, capsys, request, command, fixture, value):
        code, out, err = run(capsys, command, request.getfixturevalue(fixture), "--tol", value)
        assert (code, out) == (3, "")
        assert "tolerance must be finite and positive" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("argv", [["fredholm"], ["index"],
                                      ["twist-scan", "--spin", "nonbounding"]],
                             ids=["fredholm", "index", "twist-scan"])
    def test_bad_env_tolerance_exit_3(self, capsys, monkeypatch, shifted_scalar_file,
                                      argv, value):
        monkeypatch.setenv("SPECTRAL_TOL", value)
        if argv[0] != "twist-scan":
            argv = argv + [shifted_scalar_file]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "tolerance must be finite and positive" in err


class TestCommandEcho:
    """The echo is the subcommand, then every other token as typed; only
    the subcommand token is taken out, so a file named like a command
    stays."""

    @pytest.mark.parametrize("argv, echo", [
        (["index", "index"], ["index", "index"]),
        (["fredholm", "fredholm", "--grid", "64"], ["fredholm", "fredholm", "--grid", "64"]),
        (["forms", "sum", "-E8+3H"], ["forms", "sum", "--", "-E8+3H"]),
        (["invariant", "beta", "--rho", "-33/4", "--sig-v", "16"],
         ["invariant", "beta", "--rho", "-33/4", "--sig-v", "16"]),
    ])
    def test_echo(self, capsys, tmp_path, monkeypatch, argv, echo):
        monkeypatch.chdir(tmp_path)
        for name in ("index", "fredholm"):
            (tmp_path / name).write_text(symbol_to_text(LaurentSymbol.scalar({1: 1})))
        assert run_json(capsys, *argv)["command"] == echo


def _fresh_process(script: str, *args: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinspec.__file__)))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))


# runs main on each argv in the JSON list argv[1], parses a [form] and an
# [invariant] text, then prints the exit codes, the numpy modules loaded and
# whether argparse was imported
_EXACT_COMMANDS = """
import contextlib, io, json, sys
from spinspec.cli import main
from spinspec.problemfile import parse_problem_file
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
parse_problem_file("[form]\\nname: H\\n0 1\\n1 0\\n")
parse_problem_file("[invariant]\\nkind: rohlin\\nsig-w: 8\\n")
numpy = [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]
print(json.dumps({"codes": codes, "numpy": numpy, "argparse": "argparse" in sys.modules}))
"""


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def _readme_blocks(heading):
    """The fenced blocks of the README section under ``heading``, as lists
    of lines."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## " + heading + "\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("\n", 1)[1].splitlines() for block in section.split("```")[1::2]]


class TestReadmeExamples:
    """Every line of the README's command-line block runs, on the README's
    own symbol file, with exit 0 and one JSON report (or CSV with its
    header)."""

    def test_command_line_block(self, capsys, tmp_path, monkeypatch):
        symbol = next(b for b in _readme_blocks("Problem files") if b[0] == "[symbol]")
        (tmp_path / "symbol.txt").write_text("\n".join(symbol) + "\n")
        monkeypatch.chdir(tmp_path)
        lines = [shlex.split(line, comments=True) for line in _readme_blocks("Command line")[0]]
        commands = [tokens for tokens in lines if tokens]
        assert {tokens[1] for tokens in commands} >= {"spectral-flow", "index", "forms"}
        for tokens in commands:
            assert tokens[0] == "spinspec"
            code, out, err = run(capsys, *tokens[1:])
            assert (code, err) == (0, ""), tokens
            if "csv" in tokens:
                assert out.splitlines()[0] == "eigenvalue,multiplicity"
            else:
                assert out.count("\n") == 1
                doc = json.loads(out)
                assert tokens[1] == "--convention" or doc["schema"] == "spinspec.report/2"


class TestImportGraph:
    """Exact arithmetic needs no numpy: the exact commands run in a fresh
    interpreter without loading it (in this process numpy is loaded
    already), and the numeric commands still load it on their own.  No
    command, and no --help, imports argparse."""

    def test_exact_commands_load_no_numpy(self):
        argvs = [["forms", "list"], ["forms", "show", "E8"], ["forms", "sum", "-E8+3H"],
                 ["invariant", "alpha", "--n", "4", "--sign", "-16"],
                 ["invariant", "rohlin", "--sig-w", "8"],
                 ["invariant", "w", "--ind", "2", "--sig-w", "0"],
                 ["invariant", "beta", "--rho", "1", "--sig-v", "-16"],
                 ["invariant", "wcs", "--ind", "0", "--sig-w", "8", "--sig-v", "-16"],
                 ["--convention"], ["--help"], ["forms", "-h"],
                 ["invariant", "--help"], ["fredholm", "-h"], ["spectrum", "--help"]]
        proc = _fresh_process(_EXACT_COMMANDS, json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0] * len(argvs), "numpy": [],
                                           "argparse": False}

    def test_fredholm_in_fresh_process(self, capsys, tmp_path):
        path = tmp_path / "general.txt"
        path.write_text(symbol_to_text(LaurentSymbol({0: [[-2, 0.5j], [0.25, -3]],
                                                      1: [[1, 0], [0.5, 1]]})))
        want = run_json(capsys, "fredholm", str(path))
        proc = _fresh_process("from spinspec.cli import entry; entry()", "fredholm", str(path))
        assert proc.returncode == 0 and proc.stderr == ""
        got = json.loads(proc.stdout)
        assert got.pop("timing_s") >= 0 and want.pop("timing_s") >= 0
        assert got == want


class TestParserReuse:
    """main keeps no state between calls: commands run after other
    commands, and after a usage error, answer as in a fresh process."""

    @staticmethod
    def _answer(code, out, err):
        doc = json.loads(out) if out else None
        if doc is not None:
            doc.pop("timing_s")
        return code, err, doc

    def test_sequence_matches_fresh_processes(self, capsys, shifted_scalar_file):
        sequence = [["forms", "sum", "-E8+E8+3H"],
                    ["spectrum", "torus"],
                    ["invariant", "beta", "--rho", "-33/4"],
                    ["fredholm", shifted_scalar_file]]
        src = os.path.dirname(os.path.dirname(os.path.abspath(spinspec.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        for argv in sequence:
            in_process = self._answer(*run(capsys, *argv))
            fresh = subprocess.run([sys.executable, "-m", "spinspec.cli", *argv], env=env,
                                   capture_output=True, text=True)
            assert in_process == self._answer(fresh.returncode, fresh.stdout, fresh.stderr)
        assert [self._answer(*run(capsys, *argv))[0] for argv in sequence] == [0, 2, 0, 0]
