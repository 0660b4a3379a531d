from fractions import Fraction

import numpy as np
import pytest

from _corpus import (expected_matches, form_to_text, load_fixture_records,
                     parse_records, symbol_to_text)
from spinspec.errors import ContractViolation, ParseError
from spinspec.floquet import LaurentSymbol, symbol_eval
from spinspec.invariants import IntersectionForm, builtin_form
from spinspec.problemfile import evaluate_invariant_record, parse_problem_file

SYMBOL_TEXT = """\
# the shifted shift
[symbol]
block-size: 1
bandwidth: 1

[coeff 0]
-2

[coeff 1]
1
"""


class TestSymbolFiles:
    def test_parse_scalar(self):
        s = parse_problem_file(SYMBOL_TEXT)
        assert isinstance(s, LaurentSymbol)
        assert symbol_eval(s, 1.0)[0, 0] == -1.0

    def test_round_trip(self):
        rng = np.random.default_rng(9)
        a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = LaurentSymbol({0: np.eye(2), 1: a1, -1: a1.conj().T})
        parsed = parse_problem_file(symbol_to_text(s))
        for j in (-1, 0, 1):
            assert np.allclose(parsed.coeff(j), s.coeff(j))

    def test_bad_entry_has_position(self):
        bad = SYMBOL_TEXT.replace("-2", "-2 oops")
        with pytest.raises(ParseError) as err:
            parse_problem_file(bad)
        assert err.value.line == 7
        assert err.value.column == 4

    def test_bad_entry_mid_row_has_position(self):
        text = ("[symbol]\nblock-size: 3\nbandwidth: 1\n[coeff 0]\n1 0 0\n"
                "0  1+2j  0\n0 0 1\n[coeff 1]\n1 0 0\n0 1 0\n"
                "0j  1+2j 2+jj 0  # comment\n")
        with pytest.raises(ParseError, match="bad complex number '2\\+jj'") as err:
            parse_problem_file(text)
        assert (err.value.line, err.value.column) == (11, 10)

    def test_missing_metadata(self):
        with pytest.raises(ParseError):
            parse_problem_file("[symbol]\nbandwidth: 1\n[coeff 0]\n1\n")

    def test_wrong_row_count(self):
        text = "[symbol]\nblock-size: 2\nbandwidth: 0\n[coeff 0]\n1 0\n"
        with pytest.raises(ParseError):
            parse_problem_file(text)

    def test_offset_beyond_bandwidth(self):
        text = "[symbol]\nblock-size: 1\nbandwidth: 0\n[coeff 1]\n1\n"
        with pytest.raises(ParseError):
            parse_problem_file(text)

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_problem_file("")


class TestFormFiles:
    def test_round_trip(self):
        f = parse_problem_file(form_to_text(builtin_form("H")))
        assert isinstance(f, IntersectionForm)
        assert (f.name, f.rank, f.signature) == ("H", 2, 0)

    @pytest.mark.parametrize("matrix", ["0 1\n2 0\n", "0 1\n1 0\n2 2\n"])
    def test_asymmetric_rejected(self, matrix):
        with pytest.raises(ParseError):
            parse_problem_file("[form]\nname: bad\n" + matrix)

    def test_bad_integer_position(self):
        with pytest.raises(ParseError) as err:
            parse_problem_file("[form]\nname: bad\n0 x\nx 0\n")
        assert err.value.line == 3

    def test_bad_integer_mid_row_has_position(self):
        text = "[form]\nname: bad\n2 1 0\n 1   2 1.5 1\n0 1 2\n"
        with pytest.raises(ParseError, match="bad integer '1.5'") as err:
            parse_problem_file(text)
        assert (err.value.line, err.value.column) == (4, 8)


class TestInvariantRecords:
    def test_single_record(self):
        rec = parse_problem_file("[invariant]\nkind: beta\nrho: 1\nsig-v: -16\n")
        value = evaluate_invariant_record(rec)
        assert value.residue == 0

    def test_missing_kind(self):
        with pytest.raises(ParseError):
            parse_problem_file("[invariant]\nrho: 1\n")

    def test_unknown_kind(self):
        rec = parse_problem_file("[invariant]\nkind: zeta\n")
        with pytest.raises(ContractViolation):
            evaluate_invariant_record(rec)

    def test_rational_rho(self):
        rec = parse_problem_file("[invariant]\nkind: beta\nrho: 3/2\nsig-v: 8\n")
        assert evaluate_invariant_record(rec).residue == 1

    @pytest.mark.parametrize("body", ["kind: beta\nrho: abc\nsig-v: 0",
                                      "kind: beta\nrho: 1/0\nsig-v: 0",
                                      "kind: rohlin\nsig-w: x",
                                      "kind: wcs\nind: 0\nsig-w: 8\nsig-v: 1.5",
                                      "kind: alpha\nn: 4\nsign: -16x",
                                      "kind: w\nsig-w: 8"])
    def test_malformed_or_missing_input_is_contract_violation(self, body):
        rec = parse_problem_file(f"[invariant]\n{body}\n")
        with pytest.raises(ContractViolation):
            evaluate_invariant_record(rec)

    @pytest.mark.parametrize("flag", ["yes", "1", "on", "", "truee"])
    def test_strict_accepts_only_true_or_false(self, flag):
        rec = parse_problem_file(f"[invariant]\nkind: rohlin\nsig-w: 3\nstrict: {flag}\n")
        with pytest.raises(ContractViolation, match="true or false"):
            evaluate_invariant_record(rec)

    @pytest.mark.parametrize("body", ["kind: w\nind: 2\nsig-w: 4",
                                      "kind: wcs\nind: 0\nsig-w: 8\nsig-v: -16",
                                      "kind: alpha\nn: 4\nsign: -16"])
    @pytest.mark.parametrize("flag", ["true", "false"])
    def test_strict_only_for_rohlin_and_beta(self, body, flag):
        rec = parse_problem_file(f"[invariant]\n{body}\n")
        evaluate_invariant_record(rec)
        rec = parse_problem_file(f"[invariant]\n{body}\nstrict: {flag}\n")
        with pytest.raises(ContractViolation, match="strict applies to rohlin and beta"):
            evaluate_invariant_record(rec)

    @pytest.mark.parametrize("body", ["kind: rohlin\nsig-w: 8\nrho: 1",
                                      "kind: alpha\nn: 4\nsign: -16\nsig-v: 0"])
    def test_input_the_kind_does_not_read(self, body):
        rec = parse_problem_file(f"[invariant]\n{body}\n")
        with pytest.raises(ContractViolation, match="does not read"):
            evaluate_invariant_record(rec)

    def test_strict_in_any_case(self):
        for flag in ("true", "TRUE", "True"):
            rec = parse_problem_file(f"[invariant]\nkind: rohlin\nsig-w: 3\nstrict: {flag}\n")
            with pytest.raises(ContractViolation, match="divisible by 8"):
                evaluate_invariant_record(rec)
        for flag in ("false", "FALSE", "False"):
            rec = parse_problem_file(f"[invariant]\nkind: rohlin\nsig-w: 3\nstrict: {flag}\n")
            assert evaluate_invariant_record(rec).value == Fraction(3, 8)


class TestFixtureCorpus:
    def test_all_records_match_expectations(self):
        records = load_fixture_records()
        assert len(records) >= 10
        for rec in records:
            value = evaluate_invariant_record(rec)
            assert expected_matches(rec, value), rec["name"]

    def test_both_orientations_present(self):
        names = {rec["name"] for rec in load_fixture_records()}
        assert "k3-sum" in names and "k3-sum-reversed" in names

    def test_multi_record_parsing(self):
        text = "[invariant]\nkind: rohlin\nsig-w: 8\n[invariant]\nkind: rohlin\nsig-w: 0\n"
        assert len(parse_records(text)) == 2
