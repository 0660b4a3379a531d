import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from _corpus import (alpha_s1, signed_spec, w_cs_mod2_matches_beta,
                     w_mod2_equals_rohlin)
from spinspec.errors import ContractViolation
from spinspec.invariants import (BUILTIN_FORM_NAMES, Mod2Rational, alpha_n, beta,
                                 builtin_form, diag_form, direct_sum, form_from_rows,
                                 ko_group, negate, parse_form_spec, rohlin, w_cs,
                                 w_invariant)
from spinspec.linalg import Inertia, rational_ldl_inertia


class TestBuiltinForms:
    def test_hyperbolic(self):
        h = builtin_form("H")
        assert (h.rank, h.signature) == (2, 0)

    def test_e8(self):
        e8 = builtin_form("E8")
        assert (e8.rank, e8.signature) == (8, 8)
        assert e8.inertia.n_zero == 0
        # unimodular and even
        assert round(abs(np.linalg.det(np.array(e8.matrix, dtype=float)))) == 1
        assert all(row[i] % 2 == 0 for i, row in enumerate(e8.matrix))

    def test_k3(self):
        k3 = builtin_form("K3")
        assert (k3.rank, k3.signature) == (22, -16)

    def test_diag(self):
        f = builtin_form("Diag(1,-1,0)")
        assert f.signature == 0 and f.inertia.n_zero == 1

    def test_unknown_name(self):
        with pytest.raises(ContractViolation):
            builtin_form("E9")

    def test_every_exported_name_builds(self):
        *names, diag_template = BUILTIN_FORM_NAMES
        assert all(builtin_form(name).name == name for name in names)
        with pytest.raises(ContractViolation, match="unknown form name"):
            builtin_form(diag_template)


class TestFormArithmetic:
    def test_cancelling_sum(self):
        e8 = builtin_form("E8")
        assert direct_sum(e8, negate(e8)).signature == 0

    def test_eleven_hyperbolics_shape(self):
        f = parse_form_spec("-E8+E8+3H")
        assert (f.rank, f.signature) == (22, 0)
        eleven_h = parse_form_spec("11H")
        assert (eleven_h.rank, eleven_h.signature) == (22, 0)

    def test_diag_cancellation(self):
        assert direct_sum(diag_form([1]), diag_form([-1])).signature == 0

    def test_signature_additivity_exact(self):
        rng = np.random.default_rng(1)
        forms = [builtin_form("E8"), negate(builtin_form("E8")), builtin_form("H"),
                 builtin_form("K3"), diag_form(list(rng.integers(-3, 4, size=5)))]
        for a in forms:
            assert negate(a).signature == -a.signature
            for b in forms:
                assert direct_sum(a, b).signature == a.signature + b.signature
                assert direct_sum(a, b).rank == a.rank + b.rank

    def test_parse_rejects_garbage(self):
        for bad in ("", "E8+", "+E8", "2*E8", "E8-H", "Diag()"):
            with pytest.raises(ContractViolation):
                parse_form_spec(bad)


def _eigen_inertia(matrix) -> Inertia:
    # E8's smallest eigenvalue, 2 - 2 cos(pi/30) ~ 0.011, is the closest to 0
    eig = np.linalg.eigvalsh(np.array(matrix, dtype=float))
    n_plus, n_minus = int(np.sum(eig > 1e-6)), int(np.sum(eig < -1e-6))
    return Inertia(n_plus=n_plus, n_minus=n_minus, n_zero=len(eig) - n_plus - n_minus)


class TestCarriedInertia:
    """Sums, negations and Diag carry inertia without elimination; check it
    against a fresh exact LDL and against floating eigenvalue signs."""

    @settings(max_examples=60, deadline=None)
    @given(signed_spec())
    def test_spec_inertia_matches_ldl_and_eigvalsh(self, spec):
        f = parse_form_spec(spec)
        assert f.inertia == rational_ldl_inertia(f.matrix)
        assert f.inertia == _eigen_inertia(f.matrix)
        assert (f.rank, f.signature) == (len(f.matrix), f.inertia.signature)

    @settings(max_examples=30, deadline=None)
    @given(signed_spec())
    def test_double_negation(self, spec):
        f = parse_form_spec(spec)
        back = negate(negate(f))
        assert (back.inertia, back.matrix) == (f.inertia, f.matrix)
        assert back.blocks == f.blocks


class TestFormBlocks:
    """A form is the tuple of its diagonal blocks; sums concatenate them and
    the dense matrix is built only when asked for."""

    @settings(max_examples=30, deadline=None)
    @given(signed_spec(), signed_spec())
    def test_sum_concatenates_blocks(self, spec_a, spec_b):
        a, b = parse_form_spec(spec_a), parse_form_spec(spec_b)
        assert direct_sum(a, b).blocks == a.blocks + b.blocks

    def test_base_forms_are_one_block_and_diag_one_per_entry(self):
        assert [len(builtin_form(name).blocks) for name in ("E8", "H")] == [1, 1]
        assert form_from_rows("H", [[0, 1], [1, 0]]).blocks == (((0, 1), (1, 0)),)
        assert builtin_form("Diag(2,0,-1)").blocks == (((2,),), ((0,),), ((-1,),))
        assert builtin_form("Diag(2,0,-1)").matrix == ((2, 0, 0), (0, 0, 0), (0, 0, -1))
        assert parse_form_spec("H+Diag(3)").matrix == ((0, 1, 0), (1, 0, 0), (0, 0, 3))

    def test_repeated_terms_share_their_blocks(self):
        f = parse_form_spec("8K3+2E8")
        assert (len(f.blocks), len({id(b) for b in f.blocks})) == (42, 3)
        assert parse_form_spec("-8K3").blocks == negate(parse_form_spec("8K3")).blocks


class TestRohlin:
    def test_e8_boundary(self):
        assert rohlin(8).residue == 1

    def test_ball_boundary(self):
        assert rohlin(0).residue == 0

    def test_thirty_two(self):
        assert rohlin(32).residue == 0

    def test_mod_sixteen_periodicity(self):
        for s in range(-40, 41):
            for k in (-2, -1, 1, 3):
                assert rohlin(s).residue == rohlin(s + 16 * k).residue

    def test_strict_flag(self):
        assert rohlin(24, strict=True).residue == 1
        with pytest.raises(ContractViolation):
            rohlin(4, strict=True)


class TestAlpha:
    def test_ko_groups(self):
        table = {0: "Z", 1: "Z2", 2: "Z2", 3: "0", 4: "Z", 5: "0", 6: "0", 7: "0"}
        for k, g in table.items():
            assert ko_group(k) == g
            assert ko_group(k + 8) == g

    def test_dimension_four_from_signature(self):
        assert alpha_n(4, sign=-16).value == 1
        assert alpha_n(4, sign=32).value == -2
        assert alpha_n(4, sign=0).is_zero

    def test_dimension_four_divisibility(self):
        with pytest.raises(ContractViolation):
            alpha_n(4, sign=-15)
        with pytest.raises(ContractViolation):
            alpha_n(4, sign=8)

    def test_dimension_four_halved_index(self):
        assert alpha_n(4, ind_plus=4).value == 2
        with pytest.raises(ContractViolation):
            alpha_n(4, ind_plus=3)

    def test_trivial_dimensions(self):
        assert alpha_n(3).is_zero
        assert alpha_n(7).group == "0"
        with pytest.raises(ContractViolation):
            alpha_n(3, sign=16)

    def test_mod_two_dimensions(self):
        assert alpha_n(9, dim_ker=3).value == 1
        assert alpha_n(9, dim_ker=4).value == 0
        assert alpha_n(10, dim_ker_plus=5).value == 1

    def test_variant_mismatch(self):
        with pytest.raises(ContractViolation):
            alpha_n(0, dim_ker=1)
        with pytest.raises(ContractViolation):
            alpha_n(1, ind_plus=2)

    def test_alpha_divisibility_boundary(self):
        for s in range(-64, 65):
            if s % 16 == 0:
                assert alpha_n(4, sign=s).value == -s // 16
            else:
                with pytest.raises(ContractViolation):
                    alpha_n(4, sign=s)


class TestAlphaS1:
    def test_dimension_four_split(self):
        el = alpha_s1(4, alpha_n(4, sign=0), alpha_n(3))
        assert el.is_zero

    def test_dimension_five_fiber(self):
        el = alpha_s1(5, alpha_n(5), alpha_n(4, sign=-32))
        assert (el.top.value, el.fiber.value) == (0, 2)
        assert not el.is_zero

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            alpha_s1(5, alpha_n(4, sign=0), alpha_n(4, sign=0))


class TestLiftedInvariants:
    def test_w_values(self):
        assert w_invariant(0, 8) == 1
        assert w_invariant(2, 0) == 2
        assert w_invariant(-2, -16) == -4

    def test_w_mod2(self):
        assert w_mod2_equals_rohlin(0, 8)
        assert w_mod2_equals_rohlin(4, -8)
        with pytest.raises(ContractViolation):
            w_mod2_equals_rohlin(1, 8)

    def test_w_welldefined_delta(self):
        # the index jumps by (sign W - sign W')/8 between two bounding
        # choices, which cancels the signature correction of the lift
        for sig_w, sig_w_prime, delta in ((8, 8, 0), (8, 24, -2), (0, -16, 2)):
            assert Fraction(sig_w - sig_w_prime, 8) == delta
            assert w_invariant(0, sig_w) == w_invariant(0 + delta, sig_w_prime)

    def test_glue_signature(self):
        # -W and W' glued along their boundary: additivity gives
        # sign(W') - sign(W), and the index jump is -(glued)/8
        for sig_w, sig_w_prime, glued in ((8, 8, 0), (8, 0, -8), (8, 24, 16)):
            assert sig_w_prime - sig_w == glued
            assert w_invariant(0, sig_w) == w_invariant(Fraction(-glued, 8), sig_w_prime)


class TestBeta:
    def test_worked_values(self):
        assert beta(1, -16).residue == 0
        assert beta(0, 0).residue == 0
        assert beta(0, -16).residue == 1

    def test_orientation_independence_mod2(self):
        for rho, sig in ((1, -16), (0, -16), (1, 16)):
            assert beta(rho, sig).residue == beta(rho, -sig).residue

    def test_strict_flag(self):
        with pytest.raises(ContractViolation):
            beta(0, -8, strict=True)
        assert beta(0, -32, strict=True).residue == 0

    @pytest.mark.parametrize("rho", ["abc", "1/0", "", 1.5])
    def test_non_rational_rho_is_contract_violation(self, rho):
        with pytest.raises(ContractViolation, match="is not an exact rational"):
            beta(rho, 0)

    def test_rational_text_accepted(self):
        assert beta("-33/4", 16).value == Fraction(-37, 4)
        assert beta("1.5", 0).value == Fraction(3, 2)

    def test_welldefined_examples(self):
        # moving the cut across a cobordism W: rho -> rho + sign(W)/8 and
        # sign(V) -> sign(V) + 2 sign(W), corrections that cancel mod 2
        for rho, sig_v, sig_w in ((1, -16, 8), (0, 0, -24), (Fraction(1, 2), 4, 16)):
            assert beta(rho + Fraction(sig_w, 8), sig_v + 2 * sig_w).same_mod2(beta(rho, sig_v))


class TestIdentitySuites:
    def test_beta_cut_independence(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            rho = Fraction(int(rng.integers(-64, 65)), int(rng.integers(1, 9)))
            v = int(rng.integers(-100, 101))
            w = int(rng.integers(-100, 101))
            assert beta(rho + Fraction(w, 8), v + 2 * w).same_mod2(beta(rho, v))

    def test_w_reduces_to_rohlin(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            ind = 2 * int(rng.integers(-50, 51))
            s = int(rng.integers(-100, 101))
            assert Mod2Rational(w_invariant(ind, s)).same_mod2(rohlin(s))

    def test_w_cs_reduces_to_beta(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            ind = 2 * int(rng.integers(-50, 51))
            w = int(rng.integers(-100, 101))
            v = int(rng.integers(-100, 101))
            assert w_cs_mod2_matches_beta(ind, w, v)
        with pytest.raises(ContractViolation):
            w_cs_mod2_matches_beta(1, 0, 0)

    def test_w_cs_values(self):
        assert w_cs(0, 0, 0) == 0
        assert w_cs(0, 8, -16) == 2
        assert Mod2Rational(w_cs(0, 8, -16)).residue == beta(1, -16).residue
        assert w_cs(-2, 0, -16) == -1
        assert Mod2Rational(w_cs(-2, 0, -16)).residue == beta(0, -16).residue


class TestMod2Rational:
    def test_residue_canonical_range(self):
        for num in range(-40, 40):
            for den in (1, 2, 4, 8, 16):
                r = Mod2Rational(Fraction(num, den))
                assert 0 <= r.residue < 2
                assert (r.value - r.residue) % 2 == 0

    def test_string_form(self):
        assert str(Mod2Rational(Fraction(-1))) == "-1 = 1 (mod 2)"


def test_ldl_from_form_rows_is_traced_under_its_linalg_name():
    # the benchmark traces rational_ldl_inertia as linalg.rational_ldl_inertia;
    # it lives in spinspec.exact, and the tracer patches every module
    # attribute bound to it, so the call from invariants is seen
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        form_from_rows("H", [[0, 1], [1, 0]])
    finally:
        tracer.uninstall()
    assert tracer.stats["linalg.rational_ldl_inertia"][0] == 1
    assert tracer.ldl_rank_sum == 2
