import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import lichnerowicz_bound_check, spectrum_contains
from spinspec.cli import main
from spinspec.discretize import (Scheme, WeightFunction, build_circle_dirac,
                                 gauge_conjugate, grid_angles, spectrum_sample)
from spinspec.errors import ContractViolation
from spinspec.spectra import (SpectrumSample, SpinStructure,
                              check_exact_twist_invariance,
                              check_twist_periodicity, circle_spectrum,
                              product_square_spectrum, spectra_match,
                              sphere_spectrum)

BOUND = SpinStructure.BOUNDING
NONBOUND = SpinStructure.NONBOUNDING


class TestCircleSpectrum:
    def test_bounding_untwisted_band2(self):
        s = circle_spectrum(BOUND, 0.0, 2)
        assert [lam for lam, _ in s.pairs] == [-1.5, -0.5, 0.5, 1.5, 2.5]
        assert not spectrum_contains(s, 0.0)

    def test_nonbounding_contains_zero(self):
        assert spectrum_contains(circle_spectrum(NONBOUND, 0.0, 1), 0.0)

    def test_unit_multiplicities_strictly_increasing(self):
        for spin in (BOUND, NONBOUND):
            for c in (-2.3, 0.0, 0.4, 1.7):
                for band in (1, 4, 9):
                    s = circle_spectrum(spin, c, band)
                    assert all(m == 1 for _, m in s.pairs)
                    vals = np.array([lam for lam, _ in s.pairs])
                    assert np.all(np.diff(vals) > 0)

    def test_integer_twist_matches_untwisted(self):
        fn = lambda c: circle_spectrum(BOUND, c, 12)
        assert spectra_match(fn(1.0), fn(0.0), 1e-12)

    def test_half_twist_has_kernel(self):
        assert spectrum_contains(circle_spectrum(BOUND, 0.5, 2), 0.0)

    def test_kernel_location_mod_one(self):
        rng = np.random.default_rng(11)
        for c in rng.uniform(-5, 5, size=20):
            has0_bound = spectrum_contains(circle_spectrum(BOUND, c, 12), 0.0, tol=1e-9)
            has0_non = spectrum_contains(circle_spectrum(NONBOUND, c, 12), 0.0, tol=1e-9)
            assert has0_bound == (abs((c - 0.5) % 1.0) < 1e-9 or abs((c - 0.5) % 1.0 - 1.0) < 1e-9)
            assert has0_non == (abs(c % 1.0) < 1e-9 or abs(c % 1.0 - 1.0) < 1e-9)

    def test_rejects_band_zero(self):
        with pytest.raises(ContractViolation):
            circle_spectrum(BOUND, 0.0, 0)

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_twist(self, c):
        with pytest.raises(ContractViolation, match="finite"):
            circle_spectrum(NONBOUND, c, 2)


class TestSphereSpectrum:
    def test_dimension_two_gap(self):
        s = sphere_spectrum(2, 3)
        assert s.min_abs() == 1.0
        assert s.min_abs() ** 2 == pytest.approx(2 ** 2 / 4.0)

    def test_dimension_three_gap(self):
        assert sphere_spectrum(3, 2).min_abs() ** 2 == pytest.approx(9.0 / 4.0)

    def test_lowest_multiplicity(self):
        assert sphere_spectrum(2, 0).find_multiplicity(1.0) == 2

    def test_symmetry(self):
        s = sphere_spectrum(4, 5)
        for lam, m in s.pairs:
            assert s.find_multiplicity(-lam) == m

    @pytest.mark.parametrize("l", [2, 3, 4, 5])
    def test_multiplicity_recursion_oracle(self, l):
        # independent recursion: m(0) = 2^floor(l/2), m(k) = m(k-1)*(k+l-1)/k
        s = sphere_spectrum(l, 6)
        m = 2 ** (l // 2)
        for k in range(7):
            if k > 0:
                assert m * (k + l - 1) % k == 0
                m = m * (k + l - 1) // k
            assert s.find_multiplicity(l / 2.0 + k) == m

    @pytest.mark.parametrize("l", [2, 3])
    def test_cumulative_dimension_oracle(self, l):
        # total dimension up to level K telescopes to 2^floor(l/2)*C(K+l, K)
        s = sphere_spectrum(l, 5)
        for kmax in range(6):
            total = sum(s.find_multiplicity(l / 2.0 + k) for k in range(kmax + 1))
            assert total == 2 ** (l // 2) * math.comb(kmax + l, kmax)

    def test_rejects_low_dimension(self):
        with pytest.raises(ContractViolation):
            sphere_spectrum(1, 3)
        with pytest.raises(ContractViolation):
            sphere_spectrum(0, 3)


def _near_lattice_samples():
    """Symmetric samples +-mu with mu^2 = q/4 + e * 1e-8 (e < 10), so sums of
    two squares from different pairs often lie within GROUPING_TOL of each
    other, on either side of a multiple of it."""
    draws = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 9), st.integers(1, 3)),
                     min_size=1, max_size=4, unique_by=lambda t: t[0])

    def sample(draws):
        pairs = []
        for q, e, m in draws:
            mu = math.sqrt(q / 4 + e * 1e-8)
            pairs += [(-mu, m), (mu, m)]
        return SpectrumSample(pairs=tuple(sorted(pairs)), band=2, symmetric=True)

    return draws.map(sample)


class TestProductSquareSpectrum:
    def test_smallest_entry(self):
        base = circle_spectrum(BOUND, 0.0, 3)
        prod = product_square_spectrum(base, sphere_spectrum(2, 2), 10.0)
        assert prod.pairs[0][0] == pytest.approx(0.25 + 1.0)

    def test_lower_bound_from_sphere(self):
        bases = [circle_spectrum(BOUND, 0.0, b) for b in (2, 5)]
        bases += [sphere_spectrum(2, 3), sphere_spectrum(4, 2)]
        for base in bases:
            prod = product_square_spectrum(base, sphere_spectrum(3, 2), 30.0)
            assert prod.pairs[0][0] >= 9.0 / 4.0

    def test_kronecker_sum_oracle(self):
        # brute force: diagonal models D_N^2 (x) I + I (x) D_S^2
        base = circle_spectrum(BOUND, 0.0, 4)
        sphere = sphere_spectrum(2, 3)
        cutoff = 10.0
        prod = product_square_spectrum(base, sphere, cutoff)

        base_vals = base.values()[np.abs(base.values()) <= 4.0]  # symmetric part
        sph_vals = sphere.values()
        dn2 = np.diag(base_vals ** 2)
        ds2 = np.diag(sph_vals ** 2)
        kron = np.kron(dn2, np.eye(len(sph_vals))) + np.kron(np.eye(len(base_vals)), ds2)
        brute = np.sort(np.diag(kron))
        brute = brute[brute <= cutoff]
        assert np.allclose(np.sort(prod.values()), brute)

    def test_rejects_asymmetric_base(self):
        skewed = circle_spectrum(BOUND, 0.3, 4)
        with pytest.raises(ContractViolation):
            product_square_spectrum(skewed, sphere_spectrum(2, 2), 10.0)

    def test_rejects_empty_truncation(self):
        with pytest.raises(ContractViolation):
            product_square_spectrum(circle_spectrum(BOUND, 0.0, 2),
                                    sphere_spectrum(2, 1), 0.5)

    def test_sums_closer_than_grouping_tol_form_one_pair(self):
        # 4.25 + 3e-8 and 4.25 + 8e-8 lie 5e-8 apart on either side of a
        # multiple of GROUPING_TOL = 1e-7
        a, b = math.sqrt(0.25 + 3e-8), math.sqrt(3.25 + 8e-8)
        base = SpectrumSample.from_eigenvalues([-b, -a, a, b], band=2, symmetric=True)
        prod = product_square_spectrum(base, sphere_spectrum(2, 1), 40.0)
        assert [m for _, m in prod.pairs] == [8, 24, 16]
        assert [lam for lam, _ in prod.pairs] == pytest.approx([1.25, 4.25, 7.25])

    @settings(max_examples=60, deadline=None)
    @given(_near_lattice_samples(), _near_lattice_samples(), st.integers(1, 12))
    def test_matches_grouping_of_the_expanded_sums(self, base, other, cutoff):
        sums = [mu * mu + nu * nu for mu, mmu in base.pairs for nu, mnu in other.pairs
                for _ in range(mmu * mnu)]
        kept = [s2 for s2 in sums if s2 <= cutoff]
        if not kept:
            with pytest.raises(ContractViolation):
                product_square_spectrum(base, other, cutoff)
            return
        assert (product_square_spectrum(base, other, cutoff)
                == SpectrumSample.from_eigenvalues(kept, band=cutoff))


class TestTwistChecks:
    @pytest.mark.parametrize("spin,c", [(BOUND, 0.3), (NONBOUND, -0.7)])
    def test_periodicity_closed_form(self, spin, c):
        fn = lambda t: circle_spectrum(spin, t, 16)
        assert check_twist_periodicity(fn, c, tol=1e-12)

    def test_periodicity_negative_control(self):
        fn = lambda t: circle_spectrum(BOUND, 0.1 * t, 16)  # shift 0.1, not 1
        assert not check_twist_periodicity(fn, 0.3, tol=1e-9)

    def test_periodicity_random_parameters(self):
        rng = np.random.default_rng(3)
        for spin in (BOUND, NONBOUND):
            fn = lambda t: circle_spectrum(spin, t, 16)
            for c in rng.uniform(-5, 5, size=50):
                assert check_twist_periodicity(fn, c, tol=1e-9)

    def _gauge_family(self, n=32):
        d0 = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, 0.0)
        u = WeightFunction.periodic(np.sin(grid_angles(n)))
        return lambda c: spectrum_sample(gauge_conjugate(d0, u, c), band=n // 2)

    def test_exact_twist_invariance(self):
        fn = self._gauge_family()
        assert check_exact_twist_invariance(fn, 0.4, tol=1e-9)
        assert check_exact_twist_invariance(fn, 7.3, tol=1e-9)

    def test_exact_twist_degree_one_control(self):
        n = 32
        fn = lambda c: spectrum_sample(
            build_circle_dirac(n, Scheme.SPECTRAL, BOUND, c).matrix, band=n // 2)
        assert not check_exact_twist_invariance(fn, 0.4, tol=1e-9)


class TestSpectrumCommandDispatch:
    """`spinspec spectrum <kind>` reports the closed form of its model."""

    @staticmethod
    def pairs(capsys, *argv):
        code = main(["spectrum", *argv])
        out = capsys.readouterr().out
        assert code == 0
        return [tuple(p) for p in json.loads(out)["results"]["pairs"]]

    def test_circle_dispatch(self, capsys):
        got = self.pairs(capsys, "circle", "--spin", "bounding", "--c", "0.5", "--band", "2")
        assert got == list(circle_spectrum(BOUND, 0.5, 2).pairs)
        assert 0.0 in [lam for lam, _ in got]

    def test_sphere_dispatch(self, capsys):
        got = self.pairs(capsys, "sphere", "--l", "3", "--kmax", "2")
        assert got == list(sphere_spectrum(3, 2).pairs)
        assert min(abs(lam) for lam, _ in got) ** 2 == pytest.approx(9.0 / 4.0)

    def test_product_dispatch(self, capsys):
        got = self.pairs(capsys, "product", "--spin", "bounding", "--c", "0", "--band", "3",
                         "--l", "2", "--kmax", "2", "--cutoff", "10")
        expected = product_square_spectrum(circle_spectrum(BOUND, 0.0, 3),
                                           sphere_spectrum(2, 2), 10.0)
        assert got == list(expected.pairs)
        assert got[0][0] == pytest.approx(1.25)

    def test_unknown_kind(self, capsys):
        assert main(["spectrum", "torus"]) == 2
        assert "invalid choice" in capsys.readouterr().err


class TestLichnerowiczBound:
    def test_sphere_two(self):
        sq = SpectrumSample.from_eigenvalues(sphere_spectrum(2, 4).values() ** 2, band=40)
        assert lichnerowicz_bound_check(sq, kappa_min=2.0)

    def test_sphere_three(self):
        sq = SpectrumSample.from_eigenvalues(sphere_spectrum(3, 4).values() ** 2, band=40)
        assert lichnerowicz_bound_check(sq, kappa_min=6.0)

    def test_flat_circle_with_kernel(self):
        sq = SpectrumSample.from_eigenvalues(
            circle_spectrum(BOUND, 0.5, 4).values() ** 2, band=16)
        assert lichnerowicz_bound_check(sq, kappa_min=0.0)

    def test_violated_bound(self):
        sq = SpectrumSample.from_eigenvalues(
            circle_spectrum(BOUND, 0.5, 4).values() ** 2, band=16)
        assert not lichnerowicz_bound_check(sq, kappa_min=2.0)

    def test_rejects_negative_entries(self):
        bad = SpectrumSample.from_eigenvalues([-1.0, 1.0], band=2)
        with pytest.raises(ContractViolation):
            lichnerowicz_bound_check(bad, kappa_min=0.0)
