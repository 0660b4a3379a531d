import cmath
import json
import math
import os
import subprocess
import sys

import pytest

import spinspec
from spinspec.cli import main, report_to_json
from spinspec.problemfile import symbol_to_text
from spinspec.floquet import LaurentSymbol


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    @pytest.mark.parametrize("flag,value", [("--massive", "nan"), ("--massive", "inf"),
                                            ("--c-to", "inf"), ("--c-from", "-inf"),
                                            ("--c-from", "-nan"), ("--c-from", "-Infinity"),
                                            ("--c-to", "-INF")])
    def test_nonfinite_input_exit_3(self, capsys, flag, value):
        code, out, err = run(capsys, "twist-scan", "--steps", "40", "--grid", "16",
                             flag, value)
        assert code == 3
        assert out == ""
        assert err.startswith("error:")


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
            "evaluations": 87, "grid_used": 512, "index": 0, "is_fredholm": True,
            "lower_bound": 0.8578144281664934,
            "min_singular": {"tol": 1e-06, "value": 0.8656107270859316},
            "verdict": "fredholm", "witness": [0.9787174923630587, -0.20521225631663959]}

    def test_fredholm_false_witness(self, capsys, root_on_circle_file):
        doc = run_json(capsys, "fredholm", root_on_circle_file)
        res = doc["results"]
        assert res["is_fredholm"] is False
        assert res["verdict"] == "not-fredholm"
        assert abs(res["witness"][0] - 1.0) < 1e-3

    def test_index_of_shift(self, capsys, shift_file):
        doc = run_json(capsys, "index", shift_file)
        assert doc["results"]["index"] == -1

    def test_index_of_non_fredholm_exit_3(self, capsys, root_on_circle_file):
        code, _, err = run(capsys, "index", root_on_circle_file)
        assert code == 3 and "error" in err

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("[symbol]\nblock-size: 1\nbandwidth: 0\n[coeff 0]\nnope\n")
        code, _, err = run(capsys, "fredholm", str(bad))
        assert code == 2 and "line" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "fredholm", "/nonexistent/sym.txt")
        assert code == 2

    def test_spectral_flow_loop(self, capsys, tmp_path):
        from spinspec.discretize import Scheme, build_circle_dirac, period_symbol
        from spinspec.spectra import SpinStructure
        sym = period_symbol(build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE,
                                               SpinStructure.BOUNDING, 0.0).matrix)
        path = tmp_path / "circle.txt"
        path.write_text(symbol_to_text(sym))
        doc = run_json(capsys, "spectral-flow", str(path), "--steps", "24")
        res = doc["results"]
        assert res["flow"] == 0  # a closed symbol loop nets to zero
        locations = sorted(c["parameter"]["value"] for c in res["crossings"])
        assert any(abs(c - 0.5) < 1e-6 for c in locations)

    def test_scalar_loop_crossings_at_closed_form_twists(self, capsys, tmp_path):
        # A(z(c)) = m + 2|t| cos(2 pi c + arg t) crosses zero twice; the
        # 1x1 family vanishes there, so only the exactly Hermitian part of
        # the evaluated symbol passes the eigensolver's relative check
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

    def test_list(self, capsys):
        doc = run_json(capsys, "forms", "list")
        assert "E8" in doc["results"]["names"]

    def test_unknown_name_exit_2(self, capsys):
        code, _, _ = run(capsys, "forms", "show", "E9")
        assert code == 2


class TestReportDocument:
    def test_schema_and_convention(self, capsys, shifted_scalar_file):
        doc = run_json(capsys, "fredholm", shifted_scalar_file)
        assert doc["schema"] == "spinspec.report/1"
        assert doc["convention"]["clifford_sign"] == -1
        assert "tolerances" in doc and "timing_s" in doc

    def test_json_round_trip_byte_identical(self, capsys, shifted_scalar_file):
        code, out, _ = run(capsys, "fredholm", shifted_scalar_file)
        assert code == 0
        text = out[:-1]  # strip the trailing newline
        assert report_to_json(json.loads(text)) == text

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

    def test_env_tolerance_override(self, capsys, monkeypatch, root_on_circle_file):
        monkeypatch.setenv("SPECTRAL_TOL", "1e-3")
        doc = run_json(capsys, "fredholm", root_on_circle_file)
        assert doc["tolerances"]["fredholm_tol"] == 1e-3
        monkeypatch.setenv("SPECTRAL_TOL", "bogus")
        code, _, _ = run(capsys, "fredholm", root_on_circle_file)
        assert code == 3


class TestParserReuse:
    """main builds its parser once per process; commands run after other
    commands, and after an argparse error, answer as in a fresh process."""

    @staticmethod
    def _answer(code, out, err):
        doc = json.loads(out) if out else None
        if doc is not None:
            doc.pop("timing_s")
        return code, err, doc

    def test_sequence_matches_fresh_processes(self, capsys, monkeypatch, shifted_scalar_file):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the width
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
