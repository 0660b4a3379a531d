import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _corpus import golden_section, numeric_kernel_dim, singular_values
from spinspec import discretize
from spinspec.discretize import (Scheme, WeightFunction, build_circle_dirac,
                                 fourier_laplace_family, gauge_conjugate,
                                 grid_angles, mass_doubled, period_symbol,
                                 spectrum_sample)
from spinspec.errors import ContractViolation
from spinspec.floquet import finite_section, symbol_eval
from spinspec.conventions import CLIFFORD_SIGN, twist_to_floquet
from spinspec.linalg import hermitian_eigenvalues
from spinspec.spectra import SpinStructure, circle_spectrum, kernel_twists, spectra_match

BOUND = SpinStructure.BOUNDING
NONBOUND = SpinStructure.NONBOUNDING


def closed_form_values(n, spin, c):
    mu = np.arange(-n // 2, n // 2) + (0.5 if spin is BOUND else 0.0)
    return np.sort(-mu - c)


class TestBuildCircleDirac:
    def test_spectral_bounding_exact(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.0)
        eig = hermitian_eigenvalues(d.matrix).eigenvalues
        assert np.max(np.abs(eig - closed_form_values(16, BOUND, 0.0))) < 1e-12

    def test_spectral_nonbounding_kernel(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, NONBOUND, 0.0)
        assert numeric_kernel_dim(d.matrix, 1e-10) == 1

    def test_spectral_bounding_half_twist_kernel(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.5)
        assert numeric_kernel_dim(d.matrix, 1e-10) == 1

    @pytest.mark.parametrize("spin", [BOUND, NONBOUND])
    @pytest.mark.parametrize("c", [-1.7, -0.5, 0.0, 0.25, 2.9])
    @pytest.mark.parametrize("n", [8, 16])
    def test_spectral_scheme_matches_closed_form_grid(self, spin, c, n):
        d = build_circle_dirac(n, Scheme.SPECTRAL, spin, c)
        eig = hermitian_eigenvalues(d.matrix).eigenvalues
        assert np.max(np.abs(eig - closed_form_values(n, spin, c))) < 1e-12

    def test_spectral_matches_circle_spectrum_interior(self):
        n = 32
        d = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, 0.4)
        sample = spectrum_sample(d.matrix, band=n // 2)
        closed = circle_spectrum(BOUND, 0.4, n // 2)
        assert spectra_match(sample, closed, tol=1e-10)

    def test_central_difference_second_order(self):
        errors = []
        for n in (64, 128):
            d = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
            eig = hermitian_eigenvalues(d.matrix).eigenvalues
            errors.append(0.5 - eig[eig > 0].min())
        order = math.log2(errors[0] / errors[1])
        assert order > 1.9
        # Richardson extrapolation lands on the continuum value
        extrapolated = eig[eig > 0].min() + (errors[1] * 4 - errors[1] * 4) / 3
        richardson = (4 * (0.5 - errors[1]) - (0.5 - errors[0])) / 3
        assert abs(richardson - 0.5) < 1e-6

    def test_rejects_odd_or_tiny_grid(self):
        with pytest.raises(ContractViolation):
            build_circle_dirac(7, Scheme.SPECTRAL, BOUND, 0.0)
        with pytest.raises(ContractViolation):
            build_circle_dirac(4, Scheme.SPECTRAL, BOUND, 0.0)

    def test_matrices_are_hermitian(self):
        for scheme in Scheme:
            d = build_circle_dirac(16, scheme, BOUND, 0.3)
            assert np.linalg.norm(d.matrix - d.matrix.conj().T) < 1e-12


class TestGaugeConjugate:
    def test_zero_weight_is_identity(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.0)
        u = WeightFunction.periodic(np.zeros(16))
        assert np.array_equal(gauge_conjugate(d, u, 0.7), d.matrix)

    @pytest.mark.parametrize("c", [0.4, 10.0])
    def test_isospectral(self, c):
        n = 32
        d = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, 0.0)
        u = WeightFunction.periodic(np.sin(grid_angles(n)))
        g = gauge_conjugate(d, u, c)
        a = hermitian_eigenvalues(d.matrix).eigenvalues
        b = hermitian_eigenvalues(g).eigenvalues
        assert np.max(np.abs(a - b)) < 1e-10

    def test_preserves_hermiticity(self):
        n = 16
        d = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, NONBOUND, 0.0)
        g = gauge_conjugate(d, WeightFunction.periodic(np.cos(grid_angles(n))), 1.3)
        assert np.linalg.norm(g - g.conj().T) < 1e-12

    def test_rejects_winding_weight(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.0)
        with pytest.raises(ContractViolation):
            gauge_conjugate(d, WeightFunction.standard(16, degree=1), 0.4)


class TestFourierLaplaceFamily:
    def test_z_one_is_identity(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        fl = fourier_laplace_family(d, WeightFunction.standard(16), 1.0)
        assert np.allclose(fl.matrix, d.matrix)

    @pytest.mark.parametrize("c", [0.3, -0.9, 2.4])
    def test_spectral_scheme_reproduces_twist_exactly(self, c):
        n = 32
        d = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, 0.0)
        fl = fourier_laplace_family(d, WeightFunction.standard(n), cmath.exp(-1j * c))
        built = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, c)
        assert np.max(np.abs(fl.matrix - built.matrix)) < 1e-12

    def test_central_scheme_kernel_location_converges(self):
        # the conjugated family has its kernel exactly at c = 1/2; the
        # scalar-shift twist has it at 1/2 + O(h^2); their smallest
        # |eigenvalue| agree to O(h) at matching twists
        for n, bound in ((32, 0.05), (64, 0.02)):
            d = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
            fl = fourier_laplace_family(d, WeightFunction.standard(n),
                                        cmath.exp(-1j * 0.5))
            g = np.min(np.abs(hermitian_eigenvalues(fl.matrix).eigenvalues))
            built = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.5)
            gb = np.min(np.abs(hermitian_eigenvalues(built.matrix).eigenvalues))
            assert g < 1e-12  # conjugated: exact kernel at the half twist
            assert abs(gb - g) < bound

    def test_large_modulus_is_invertible_and_nonhermitian(self):
        n = 16
        d = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, 0.0)
        fl = fourier_laplace_family(d, WeightFunction.standard(n), 2.0)
        assert np.linalg.norm(fl.matrix - fl.matrix.conj().T) > 1e-3
        assert singular_values(fl.matrix)[-1] > 0.5  # ln 2 gap

    def test_hermitian_iff_unit_modulus(self):
        n = 16
        d = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        f = WeightFunction.standard(n)
        on = fourier_laplace_family(d, f, cmath.exp(1j * 0.7)).matrix
        off = fourier_laplace_family(d, f, 1.1 * cmath.exp(1j * 0.7)).matrix
        assert np.linalg.norm(on - on.conj().T) < 1e-12
        assert np.linalg.norm(off - off.conj().T) > 1e-6

    def test_branch_shift_equals_twist_shift(self):
        # moving to the adjacent ln-branch adds a full angular period to
        # the twist: exactly 2*pi times the weight slope
        n = 16
        d = build_circle_dirac(n, Scheme.SPECTRAL, BOUND, 0.0)
        f = WeightFunction.standard(n)
        z = cmath.exp(-1j * 0.3)
        a = fourier_laplace_family(d, f, z, branch=0)
        b = fourier_laplace_family(d, f, z, branch=1)
        assert np.max(np.abs((b.matrix - a.matrix) - 2.0 * np.pi * np.eye(n))) < 1e-12

    def test_unit_twist_shift_is_isospectral(self):
        # the discrete restatement of twist periodicity: multiplying z by
        # e^{-i} shifts the twist by one and preserves the spectrum
        n = 32
        for scheme in Scheme:
            d = build_circle_dirac(n, scheme, BOUND, 0.0)
            f = WeightFunction.standard(n)
            z = cmath.exp(-1j * 0.37)
            a = fourier_laplace_family(d, f, z).matrix
            b = fourier_laplace_family(d, f, z * cmath.exp(-1j)).matrix
            ea = hermitian_eigenvalues(a).eigenvalues
            eb = hermitian_eigenvalues(b).eigenvalues
            sa = spectrum_sample(a, band=n // 2)
            sb = spectrum_sample(b, band=n // 2)
            assert spectra_match(sa, sb, tol=1e-9)

    def test_rejects_zero_z_and_twisted_input(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.0)
        with pytest.raises(ContractViolation):
            fourier_laplace_family(d, WeightFunction.standard(16), 0.0)
        twisted = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.5)
        with pytest.raises(ContractViolation):
            fourier_laplace_family(twisted, WeightFunction.standard(16), 1.0)


def period_blocks_loop(matrix):
    """Reference split: the entry-by-entry loop over nearest-image
    displacements that ``_period_blocks`` vectorises."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    a_m1, a_0, a_p1 = np.zeros_like(m), np.zeros_like(m), np.zeros_like(m)
    half = n // 2
    for j in range(n):
        for k in range(n):
            v = m[j, k]
            if v == 0:
                continue
            disp = (k - j + half) % n - half
            if disp == k - j:
                a_0[j, k] = v
            elif disp == k - j + n:
                a_p1[j, k] = v
            else:
                a_m1[j, k] = v
    return a_m1, a_0, a_p1


def assert_blocks_byte_identical(matrix):
    got = discretize._period_blocks(matrix)
    want = period_blocks_loop(matrix)
    assert len(got) == 3
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


class TestPeriodBlocks:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_banded_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([8, 9, 16, 33]))
        width = int(rng.integers(1, n // 2))
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hop = np.subtract.outer(np.arange(n), np.arange(n))
        wrapped = np.minimum(np.abs(hop), n - np.abs(hop))
        m[wrapped > width] = 0.0
        m[rng.random((n, n)) < 0.2] = -0.0  # signed zeros must come out as +0
        assert_blocks_byte_identical(m)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("spin", [BOUND, NONBOUND])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_circle_sources_match_loop(self, n, spin, scheme):
        d = build_circle_dirac(n, scheme, spin, 0.0)
        assert_blocks_byte_identical(d.matrix)
        assert_blocks_byte_identical(mass_doubled(d.matrix, 1.0))


def reference_kernel_twists(spin, c_from, c_to, steps, grid, mass, ktol):
    """The per-point scan: one eigensolve of the built twist-c operator
    (mass-doubled when ``mass`` is nonzero) at every scan point and
    golden-section probe.  Locations closer than 1e-6 mod 1 merge into the
    one with the least |eigenvalue|."""
    base = build_circle_dirac(grid, Scheme.SPECTRAL, spin, 0.0).matrix

    def min_abs(c):
        m = discretize._twisted(base, c)
        if mass != 0.0:
            m = mass_doubled(m, mass)
        return float(np.min(np.abs(hermitian_eigenvalues(m).eigenvalues)))

    cs = np.linspace(c_from, c_to, steps)
    vals = np.array([min_abs(c) for c in cs])
    locations = []
    for i in range(len(cs)):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i + 1 < len(cs) else math.inf
        if not (vals[i] <= left and vals[i] <= right):
            continue
        a = cs[i - 1] if i > 0 else cs[i]
        b = cs[i + 1] if i + 1 < len(cs) else cs[i]
        c_star, value = golden_section(min_abs, a, b, 1e-12)
        if value < ktol:
            locations.append((c_star % 1.0, value))
    merged = []
    for c, value in sorted(locations):
        if merged and min(abs(c - merged[-1][0]), 1.0 - abs(c - merged[-1][0])) <= 1e-6:
            if value < merged[-1][1]:
                merged[-1] = (c, value)
        else:
            merged.append((c, value))
    return [c for c, _ in merged]


class TestMassDoubled:
    @pytest.mark.parametrize("n", [1, 5, 16, 40])
    @pytest.mark.parametrize("m", [1e-9, 0.3, 2.0])
    def test_spectrum_is_hypot_taken_twice(self, n, m):
        # (A (x) sz + m I (x) sx)^2 = (A^2 + m^2) (x) I
        rng = np.random.default_rng(7 * n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = a + a.conj().T
        doubled = np.sort(np.abs(np.linalg.eigvalsh(mass_doubled(a, m))))
        mu = np.linalg.eigvalsh(a)
        expected = np.sort(np.repeat(np.hypot(mu, m), 2))
        assert np.all(np.abs(doubled - expected) <= 1e-12 * np.max(expected))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 128), m=st.floats(-4.0, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_the_kronecker_products(self, n, m, seed):
        # the strided build and the Kronecker form agree up to signed zeros
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        sz, sx = np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(mass_doubled(a, m), np.kron(a, sz) + m * np.kron(np.eye(n), sx))


class TestKernelTwists:
    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("spin", [BOUND, NONBOUND])
    def test_diagonal_shift_is_the_built_twist(self, n, spin):
        # the scan's twist-c operator, bit for bit
        base = build_circle_dirac(n, Scheme.SPECTRAL, spin, 0.0).matrix
        for c in np.random.default_rng(n).uniform(-2.0, 2.0, 10):
            shifted = discretize._twisted(base, c)
            built = build_circle_dirac(n, Scheme.SPECTRAL, spin, c).matrix
            assert shifted.tobytes() == built.tobytes()

    @pytest.mark.parametrize("grid", [32, 64, 128, 512])
    @pytest.mark.parametrize("spin,kernel", [(BOUND, 0.5), (NONBOUND, 0.0)])
    @pytest.mark.parametrize("mass", [0.0, 0.5])
    def test_no_build_and_no_solve_per_scan(self, monkeypatch, grid, spin, kernel, mass):
        # kernels come off the closed-form lattice, exactly on it
        builds, solves = [], []
        build, solve = discretize.build_circle_dirac, discretize.hermitian_eigenvalues
        monkeypatch.setattr(discretize, "build_circle_dirac",
                            lambda *a: builds.append(a) or build(*a))
        monkeypatch.setattr(discretize, "hermitian_eigenvalues",
                            lambda m: solves.append(1) or solve(m))
        found = kernel_twists(spin, -0.3, 0.7, grid, mass, 1e-8)
        assert found == ([kernel] if mass == 0.0 else [])
        assert builds == []
        assert solves == []

    @settings(max_examples=25, deadline=None)
    @given(spin=st.sampled_from([BOUND, NONBOUND]),
           grid=st.integers(4, 32).map(lambda k: 2 * k),
           steps=st.integers(3, 60),
           c_from=st.floats(-4.0, 4.0),
           width=st.floats(0.01, 4.0),
           mass=st.one_of(st.just(0.0), st.just(1e-9), st.floats(0.1, 1.0)))
    # the kernel at c = 1 merges with the one at c = 0 clipped to the range
    # start; both merges keep the in-range kernel, the copy with the least
    # |eigenvalue|, though the reference's search lands a rounding short of 1
    @example(spin=NONBOUND, grid=8, steps=3, c_from=1e-10, width=1.0, mass=0.0)
    def test_matches_per_point_reference(self, spin, grid, steps, c_from, width, mass):
        # ``steps`` sets the reference scan only.  Kernels lie 1 apart, so a
        # scan at most 1/4 apart brackets each one on its own; a coarser
        # scan can miss them (steps=4 over [2.625, 4.625] at grid 8 does)
        found = kernel_twists(spin, c_from, c_from + width, grid, mass, 1e-8)
        expected = reference_kernel_twists(spin, c_from, c_from + width,
                                           steps + math.ceil(4 * width),
                                           grid, mass, 1e-8)
        assert len(found) == len(expected)
        for a, b in zip(found, expected):
            assert min(abs(a - b), 1.0 - abs(a - b)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(spin=st.sampled_from([BOUND, NONBOUND]),
           grid=st.integers(4, 32).map(lambda k: 2 * k),
           c_from=st.floats(-4.0, 4.0),
           width=st.floats(0.01, 4.0),
           mass=st.one_of(st.just(0.0), st.just(1e-9), st.floats(0.1, 1.0)))
    def test_reports_exactly_the_kernels(self, spin, grid, c_from, width, mass):
        ktol, c_to = 1e-8, c_from + width
        found = kernel_twists(spin, c_from, c_to, grid, mass, ktol)

        def min_abs(c):
            m = build_circle_dirac(grid, Scheme.SPECTRAL, spin, c).matrix
            if mass != 0.0:
                m = mass_doubled(m, mass)
            return np.min(np.abs(np.linalg.eigvalsh(m)))

        # every reported twist mod 1 is a kernel of a freshly built operator
        # at some twist in the range
        for c in found:
            lifts = [c + k for k in range(math.floor(c_from - c), math.ceil(c_to - c) + 1)
                     if c_from - 1e-9 <= c + k <= c_to + 1e-9]
            assert any(min_abs(x) < ktol for x in lifts)
        # every in-range kernel location -CLIFFORD_SIGN * mu is reported
        base = build_circle_dirac(grid, Scheme.SPECTRAL, spin, 0.0).matrix
        for mu in np.linalg.eigvalsh(base):
            c = -CLIFFORD_SIGN * mu
            if c_from <= c <= c_to and abs(mass) < ktol:
                assert any(min(abs(c % 1.0 - f), 1.0 - abs(c % 1.0 - f)) < 1e-6
                           for f in found)

    @pytest.mark.parametrize("spin,kernel", [(BOUND, 0.5), (NONBOUND, 1.0)])
    def test_kernel_just_outside_is_reported_at_range_end(self, spin, kernel):
        assert kernel_twists(spin, kernel - 0.7, kernel - 1e-9, 16, 0.0, 1e-8) == [
            pytest.approx((kernel - 1e-9) % 1.0, abs=1e-15)]
        assert kernel_twists(spin, kernel + 1e-9, kernel + 0.7, 16, 0.0, 1e-8) == [
            pytest.approx((kernel + 1e-9) % 1.0, abs=1e-15)]
        assert kernel_twists(spin, kernel - 0.7, kernel - 1e-7, 16, 0.0, 1e-8) == []

    def test_rejects_bad_range(self):
        with pytest.raises(ContractViolation):
            kernel_twists(BOUND, 0.5, 0.5, 16, 0.0, 1e-8)
        for c_from, c_to, mass in ((0.0, 1.0, math.nan), (0.0, 1.0, math.inf),
                                   (0.0, math.inf, 0.0), (-math.inf, 1.0, 0.0),
                                   (math.nan, 1.0, 0.0)):
            with pytest.raises(ContractViolation, match="finite"):
                kernel_twists(BOUND, c_from, c_to, 16, mass, 1e-8)


class TestCoverSections:
    """Finite sections of the lifted operator on the cyclic cover: L
    copies of the period block, coupled by the wrap hops, open ends."""

    def test_bounding_sections_decay(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(d.matrix)
        sigmas = [singular_values(finite_section(s, L))[-1] for L in (4, 8, 16, 32)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))
        assert sigmas[-1] < sigmas[0] / 4.0

    def test_massive_sections_stay_invertible(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(mass_doubled(d.matrix, 1.0))
        sigmas = [singular_values(finite_section(s, L))[-1] for L in (4, 8, 16, 32)]
        assert min(sigmas) > 0.5


class TestPeriodSymbol:
    @pytest.mark.parametrize("spin", [BOUND, NONBOUND])
    def test_floquet_point_matches_conjugated_family(self, spin):
        n = 32
        d = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, spin, 0.0)
        s = period_symbol(d.matrix)
        assert s.hermitian_symmetric
        for c in (0.0, 0.23, 0.5, -0.7):
            a = symbol_eval(s, twist_to_floquet(c))
            fl = fourier_laplace_family(d, WeightFunction.standard(n),
                                        cmath.exp(-1j * c))
            ea = hermitian_eigenvalues(a).eigenvalues
            ef = hermitian_eigenvalues(fl.matrix).eigenvalues
            assert np.max(np.abs(ea - ef)) < 1e-10

    def test_quotient_is_unit_floquet_point(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(d.matrix)
        assert np.allclose(symbol_eval(s, 1.0), d.matrix)

    def test_mass_doubled_symbol_is_gapped(self):
        from spinspec.floquet import min_singular_on_circle
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(mass_doubled(d.matrix, 1.0))
        value, _ = min_singular_on_circle(s, grid=64)
        assert value > 0.9


class TestSpectrumSampleHelper:
    def test_band_defaults_to_extent(self):
        d = build_circle_dirac(16, Scheme.SPECTRAL, BOUND, 0.0)
        sample = spectrum_sample(d.matrix)
        assert sample.band == 8

    def test_weight_validation(self):
        with pytest.raises(ContractViolation):
            WeightFunction(values=np.array([[1.0]]), degree=0)
        lift = WeightFunction.standard(8, degree=2)
        assert lift.lifted(8) - lift.lifted(0) == pytest.approx(4 * np.pi)
