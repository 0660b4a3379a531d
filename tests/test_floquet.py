import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (circle_zero_symbols, invertible_symbols, numeric_kernel_dim,
                     section_index_oracle, singular_values, winding_test_symbols)
from spinspec import floquet
from spinspec.conventions import FREDHOLM_TOL, HERMITICITY_TOL, twist_to_floquet
from spinspec.discretize import (Scheme, build_circle_dirac, mass_doubled,
                                 period_symbol)
from spinspec.errors import ContractViolation, DegenerateCrossing
from spinspec.floquet import (LaurentSymbol, finite_section,
                              fredholm_via_sections, is_fredholm,
                              min_singular_on_circle, spectral_flow,
                              symbol_direct_sum, symbol_eval, toeplitz_index)
from spinspec.linalg import hermitian_eigenvalues
from spinspec.spectra import SpinStructure

BOUND = SpinStructure.BOUNDING
NONBOUND = SpinStructure.NONBOUNDING


def termwise_eval(s, z):
    """Reference evaluation of A(z) at one point, summed term by term."""
    out = np.zeros((s.block_size, s.block_size), dtype=complex)
    for j, a in s.coeffs.items():
        out += a * (z ** j)
    return out


class TestLaurentSymbol:
    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ContractViolation):
            LaurentSymbol({})
        with pytest.raises(ContractViolation):
            LaurentSymbol({0: np.zeros((2, 2))})
        with pytest.raises(ContractViolation):
            LaurentSymbol({0: np.eye(2), 1: np.eye(3)})
        with pytest.raises(ContractViolation):
            LaurentSymbol({0: np.ones((2, 3))})

    def test_hermitian_symmetry_flag(self):
        a1 = np.array([[0.0, 1.0], [0.5, 0.25]]) + 1j
        sym = LaurentSymbol({0: np.eye(2), 1: a1, -1: a1.conj().T})
        assert sym.hermitian_symmetric
        assert not LaurentSymbol({1: np.eye(2)}).hermitian_symmetric

    def test_hermitian_on_circle(self):
        rng = np.random.default_rng(0)
        a1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        a0 = rng.normal(size=(3, 3))
        s = LaurentSymbol({0: a0 + a0.T, 1: a1, -1: a1.conj().T})
        for theta in rng.uniform(0, 2 * np.pi, size=8):
            a = symbol_eval(s, cmath.exp(1j * theta))
            assert np.linalg.norm(a - a.conj().T) < 1e-12


class TestSymbolEval:
    def test_constant(self):
        s = LaurentSymbol({0: np.eye(3)})
        assert np.allclose(symbol_eval(s, 0.5 - 2j), np.eye(3))

    def test_scalar_shift(self):
        s = LaurentSymbol.scalar({1: 1})
        assert symbol_eval(s, 1j)[0, 0] == 1j

    def test_rejects_origin(self):
        with pytest.raises(ContractViolation):
            symbol_eval(LaurentSymbol.scalar({1: 1}), 0.0)
        with pytest.raises(ContractViolation):
            symbol_eval(LaurentSymbol.scalar({1: 1}), np.array([1.0, 0.0]))

    def test_rejects_2d_points(self):
        with pytest.raises(ContractViolation):
            symbol_eval(LaurentSymbol.scalar({1: 1}), np.ones((2, 2)))

    @settings(max_examples=60, deadline=None)
    @given(block=st.integers(1, 5),
           offsets=st.sets(st.integers(-3, 3), min_size=1, max_size=4),
           points=st.integers(1, 40),
           per_chunk=st.integers(1, 7),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_pointwise(self, block, offsets, points, per_chunk, seed):
        # chunks of 1..7 blocks: most draws leave a short last chunk
        rng = np.random.default_rng(seed)
        s = LaurentSymbol({j: rng.normal(size=(block, block))
                           + 1j * rng.normal(size=(block, block)) for j in offsets})
        zs = rng.uniform(0.5, 2.0, points) * np.exp(2j * np.pi * rng.random(points))
        stack = symbol_eval(s, zs)
        with mock.patch.object(floquet, "_CHUNK_BYTES", 16 * block * block * per_chunk):
            chunked = floquet._scan(s, zs, lambda st: st)
        assert stack.shape == chunked.shape == (points, block, block)
        for k, z in enumerate(zs):
            # rounding of sum_j A_j z^j is relative to the size of its terms
            terms = sum(abs(z) ** j * np.linalg.norm(a) for j, a in s.coeffs.items())
            one = termwise_eval(s, z)
            assert np.linalg.norm(symbol_eval(s, z) - one) <= 1e-14 * terms
            assert np.linalg.norm(stack[k] - one) <= 1e-14 * terms
            assert np.linalg.norm(chunked[k] - one) <= 1e-14 * terms

    def test_chunks_stay_within_budget(self):
        s = LaurentSymbol({0: np.eye(128), 1: 0.5 * np.eye(128)})
        sizes = []
        floquet._scan(s, np.exp(2j * np.pi * np.arange(100) / 100),
                      lambda st: sizes.append(st.nbytes) or np.zeros(len(st)))
        assert sum(sizes) == 100 * 16 * 128 * 128
        assert max(sizes) <= floquet._CHUNK_BYTES


class TestMinSingularOnCircle:
    def test_shifted_scalar(self):
        value, witness = min_singular_on_circle(LaurentSymbol.scalar({0: -2, 1: 1}))
        assert value == pytest.approx(1.0, abs=1e-8)
        assert abs(witness - 1.0) < 1e-3

    def test_root_on_circle(self):
        value, witness = min_singular_on_circle(LaurentSymbol.scalar({0: -1, 1: 1}))
        assert value < 1e-7
        assert abs(witness - 1.0) < 1e-3

    def test_dense_grid_oracle(self):
        rng = np.random.default_rng(0)  # an invertible instance
        a0 = rng.normal(size=(3, 3))
        a1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = LaurentSymbol({0: a0 + a0.T, 1: a1, -1: a1.conj().T})
        value, _ = min_singular_on_circle(s, grid=512)
        oracle = min(np.linalg.svd(symbol_eval(s, cmath.exp(1j * t)),
                                   compute_uv=False)[-1]
                     for t in 2 * np.pi * np.arange(4096) / 4096)
        assert abs(value - oracle) < 1e-6

    def test_refinement_digs_below_dense_grid(self):
        # a symbol with a det zero on the circle dips in a spike the
        # coarse grids miss; the golden-section refinement must not
        rng = np.random.default_rng(12)
        a0 = rng.normal(size=(3, 3))
        a1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s = LaurentSymbol({0: a0 + a0.T, 1: a1, -1: a1.conj().T})
        value, _ = min_singular_on_circle(s, grid=512)
        oracle = min(np.linalg.svd(symbol_eval(s, cmath.exp(1j * t)),
                                   compute_uv=False)[-1]
                     for t in 2 * np.pi * np.arange(4096) / 4096)
        assert value <= oracle + 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = LaurentSymbol({0: np.eye(2) * 0.3, 1: a1, -1: a1.conj().T})
        v0, _ = min_singular_on_circle(s)
        phi = 1.234
        rotated = LaurentSymbol({j: a * cmath.exp(1j * j * phi)
                                 for j, a in s.coeffs.items()})
        v1, _ = min_singular_on_circle(rotated)
        assert abs(v0 - v1) < 1e-7

    def test_rejects_small_grid(self):
        with pytest.raises(ContractViolation):
            min_singular_on_circle(LaurentSymbol.scalar({0: 1}), grid=8)

    @settings(max_examples=25, deadline=None)
    @given(block=st.integers(1, 6), grid=st.integers(16, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_scan_keeps_the_grid_guarantee(self, block, grid, seed):
        rng = np.random.default_rng(seed)
        s = LaurentSymbol({j: rng.normal(size=(block, block))
                           + 1j * rng.normal(size=(block, block)) for j in (-1, 0, 1)})
        # the dense oracle holds every dyadic point the scan can evaluate
        start = min(grid, floquet._START_GRID)
        thetas = 2 * np.pi * np.arange(128 * start) / (128 * start)
        dense = [np.linalg.svd(symbol_eval(s, cmath.exp(1j * t)), compute_uv=False)[-1]
                 for t in thetas]
        # a refinement that never improves leaves the scan's best point
        no_refine = lambda f, a, b, xtol: (0.5 * (a + b), math.inf)
        with mock.patch.object(floquet, "_golden_section", no_refine):
            found = min_singular_on_circle(s, grid=grid)
        value, witness = found
        # the scan and the one-point SVD each err by at most the allowance
        at_witness = np.linalg.svd(symbol_eval(s, witness), compute_uv=False)[-1]
        assert abs(value - at_witness) <= 2 * floquet._rounding_allowance(s)
        eps = s.lipschitz_bound() * math.pi / grid
        assert min(dense) - 1e-12 * max(dense) <= value <= min(dense) + eps
        assert found.lower_bound <= min(dense)
        assert found.evaluations <= 2 * grid


def diagonal_symbol(rng, block: int, bandwidth: int, scale: float, degenerate: bool = False):
    """U diag(p_i z^j_i + q_i z^k_i) U^* with U unitary: sigma_min on the
    circle is min_i ||p_i| - |q_i||, one zero gap when ``degenerate``."""
    offsets = range(-bandwidth, bandwidth + 1)
    coeffs, sigma = {}, math.inf
    for i in range(block):
        j, k = sorted(rng.choice(offsets, size=2, replace=False))
        p = rng.uniform(1.0, 2.0) * scale
        q = p if degenerate and i == block - 1 else p * rng.uniform(0.1, 0.85)
        if rng.random() < 0.5:
            p, q = q, p
        sigma = min(sigma, abs(p - q))
        for off, mag in ((j, p), (k, q)):
            coeffs.setdefault(off, np.zeros(block, complex))[i] = mag * np.exp(2j * np.pi * rng.random())
    u, _ = np.linalg.qr(rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block)))
    return LaurentSymbol({j: (u * d) @ u.conj().T for j, d in coeffs.items()}), sigma


class TestCertificate:
    @settings(max_examples=30, deadline=None)
    @given(block=st.integers(1, 8), bandwidth=st.integers(1, 2),
           grid=st.sampled_from([16, 50, 128, 512]), exponent=st.integers(-3, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bound_brackets_known_minimum(self, block, bandwidth, grid, exponent, seed):
        s, sigma = diagonal_symbol(np.random.default_rng(seed), block, bandwidth,
                                   10.0 ** exponent)
        rep = is_fredholm(s, tol=FREDHOLM_TOL * 10.0 ** exponent, grid=grid)
        rounding = floquet._rounding_allowance(s)
        assert rep.lower_bound <= sigma
        assert sigma - rounding <= rep.min_singular
        assert rep.min_singular <= sigma + s.lipschitz_bound() * math.pi / grid + rounding
        assert rep.evaluations <= 2 * grid + 202  # the polish makes at most 202 probes

    @settings(max_examples=20, deadline=None)
    @given(block=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_hermitian_defect_is_paid_by_the_allowance(self, block, seed):
        # A_{-1} = A_1^H + E, with E inside HERMITICITY_TOL: the symbol takes
        # the Hermitian path, which reads one triangle of A(z) only
        rng = np.random.default_rng(seed)
        a0 = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        a1 = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        e = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        scale = np.sqrt(np.linalg.norm(a0 + a0.conj().T) ** 2 + 2 * np.linalg.norm(a1) ** 2)
        e *= 0.5 * HERMITICITY_TOL * scale / np.linalg.norm(e)
        s = LaurentSymbol({0: a0 + a0.conj().T, 1: a1, -1: a1.conj().T + e})
        assert s.hermitian_symmetric
        rep = is_fredholm(s)
        thetas = 2 * np.pi * np.arange(4096) / 4096
        dense = np.linalg.svd(symbol_eval(s, np.exp(1j * thetas)), compute_uv=False)[:, -1]
        assert rep.lower_bound <= dense.min()
        at_witness = np.linalg.svd(symbol_eval(s, rep.witness), compute_uv=False)[-1]
        assert abs(rep.min_singular - at_witness) <= 2 * floquet._rounding_allowance(s)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("degenerate", [False, True])
    def test_rescaling_keeps_verdict_and_index(self, seed, degenerate):
        rng = np.random.default_rng(seed)
        s, _ = diagonal_symbol(rng, 1 + seed, 1 + seed % 2, 1.0, degenerate)
        rep = is_fredholm(s)
        for scale in (1e-6, 1e6):
            scaled = LaurentSymbol({j: scale * a for j, a in s.coeffs.items()})
            other = is_fredholm(scaled, tol=FREDHOLM_TOL * scale)
            assert (other.verdict, other.index) == (rep.verdict, rep.index)
            if rep.is_fredholm:
                assert other.min_singular == pytest.approx(scale * rep.min_singular, rel=1e-9)

    def test_verdicts(self):
        assert is_fredholm(LaurentSymbol.scalar({0: -2, 1: 1})).verdict == "fredholm"
        assert is_fredholm(LaurentSymbol.scalar({0: -1, 1: 1})).verdict == "not-fredholm"
        # sigma_min = 1e-5 clears tol = 1e-6, but L pi / grid = 2e-2 keeps
        # the certified bound below it
        rep = is_fredholm(LaurentSymbol.scalar({0: -1 - 1e-5, 1: 1}), grid=16)
        assert rep.is_fredholm and rep.verdict == "inconclusive"
        assert rep.lower_bound <= 1e-5 <= rep.min_singular

    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(1, 5),
           offsets=st.sets(st.integers(-3, 3), min_size=1, max_size=4),
           theta=st.floats(0.0, 2 * math.pi), delta=st.floats(1e-6, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_lipschitz_bound_is_sound(self, block, offsets, theta, delta, seed):
        rng = np.random.default_rng(seed)
        s = LaurentSymbol({j: rng.normal(size=(block, block))
                           + 1j * rng.normal(size=(block, block)) for j in offsets})
        f = lambda t: np.linalg.svd(symbol_eval(s, cmath.exp(1j * t)), compute_uv=False)[-1]
        gap = abs(f(theta) - f(theta + delta))
        assert gap <= s.lipschitz_bound() * delta + 2 * floquet._rounding_allowance(s)


class TestIsFredholm:
    def test_shifted_scalar_fredholm_index_zero(self):
        rep = is_fredholm(LaurentSymbol.scalar({0: -2, 1: 1}))
        assert rep.is_fredholm and rep.index == 0

    def test_shift_symbol_index(self):
        rep = is_fredholm(LaurentSymbol.scalar({1: 1}))
        assert rep.is_fredholm and rep.index == -1

    def test_root_on_circle_not_fredholm(self):
        rep = is_fredholm(LaurentSymbol.scalar({0: -1, 1: 1}))
        assert not rep.is_fredholm
        assert rep.index is None
        assert abs(rep.witness - 1.0) < 1e-3

    def test_circle_twist_block_not_fredholm(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        rep = is_fredholm(period_symbol(d.matrix))
        assert not rep.is_fredholm
        # kernel sits at the half twist; under the recorded convention the
        # witness is the Floquet point of c = 1/2
        assert abs(rep.witness - twist_to_floquet(0.5)) < 0.05

    def test_report_consistency(self):
        rep = is_fredholm(LaurentSymbol.scalar({0: -2, 1: 1}), tol=1e-6)
        assert rep.is_fredholm == (rep.min_singular > rep.tol)
        assert rep.grid_used >= 16
        assert rep.lower_bound <= rep.min_singular
        assert 0 < rep.evaluations <= 2 * rep.grid_used + 202


class TestToeplitzIndex:
    def test_known_indices(self):
        assert toeplitz_index(LaurentSymbol.scalar({1: 1})) == -1
        assert toeplitz_index(LaurentSymbol.scalar({-1: 1, 0: -3})) == 0
        assert toeplitz_index(LaurentSymbol.scalar({2: 1, 0: -0.25})) == -2

    def test_rejects_non_fredholm(self):
        with pytest.raises(ContractViolation):
            toeplitz_index(LaurentSymbol.scalar({0: -1, 1: 1}))

    @pytest.mark.parametrize("case", range(12))
    def test_against_section_oracle(self, case):
        symbol, winding = winding_test_symbols()[case]
        idx = toeplitz_index(symbol)
        assert idx == -winding
        assert idx == section_index_oracle(symbol, periods=96)

    @pytest.mark.parametrize("coeffs, n, tol", [
        ({0: 300.0, 1: 50.0}, 200, FREDHOLM_TOL),   # det A(z) overflows
        ({0: 3e-9, 1: 5e-10}, 40, 1e-12),           # det A(z) underflows
    ])
    def test_determinant_out_of_range(self, coeffs, n, tol):
        s = LaurentSymbol({j: v * np.eye(n) for j, v in coeffs.items()})
        # sigma_min is |A_0| - |A_1| in closed form; passing it skips a
        # 512-point scan of 200 x 200 blocks that the winding does not use
        sigma = abs(coeffs[0]) - abs(coeffs[1])
        assert toeplitz_index(s, tol=tol, _min_singular=sigma) == 0
        if n <= 64:
            assert toeplitz_index(s, tol=tol) == 0

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), block=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
    def test_index_is_scale_invariant(self, data, block, seed):
        # U diag(p_i z^j_i + q_i z^k_i) U^*: entry i winds j_i when
        # |p_i| > |q_i| and k_i otherwise
        rng = np.random.default_rng(seed)
        pairs = [(0, 1), (-1, 0), (-1, 1), (0, 2), (-2, 1)]
        coeffs, winding = {}, 0
        for i in range(block):
            j, k = pairs[data.draw(st.integers(0, len(pairs) - 1))]
            p, q = rng.uniform(1.0, 2.0), rng.uniform(0.1, 0.8)
            if data.draw(st.booleans()):
                p, q = q, p
            winding += j if p > q else k
            coeffs.setdefault(j, np.zeros(block, complex))[i] += p
            coeffs.setdefault(k, np.zeros(block, complex))[i] += q * np.exp(2j * np.pi * rng.random())
        u, _ = np.linalg.qr(rng.normal(size=(block, block))
                            + 1j * rng.normal(size=(block, block)))
        blocks = {j: (u * d) @ u.conj().T for j, d in coeffs.items()}
        assert toeplitz_index(LaurentSymbol(blocks)) == -winding
        for exponent in (-6, 6):
            scale = 10.0 ** exponent
            scaled = LaurentSymbol({j: scale * a for j, a in blocks.items()})
            assert toeplitz_index(scaled, tol=FREDHOLM_TOL * scale) == -winding

    def test_additivity_under_direct_sum(self):
        a = LaurentSymbol.scalar({1: 1})           # index -1
        b = LaurentSymbol.scalar({2: 1, 0: -0.25})  # index -2
        c = LaurentSymbol.scalar({-1: 1, 0: -3})    # index 0
        assert toeplitz_index(symbol_direct_sum(a, b)) == -3
        assert toeplitz_index(symbol_direct_sum(a, c)) == -1
        assert toeplitz_index(symbol_direct_sum(b, b)) == -4


class TestFiniteSection:
    def test_constant_identity(self):
        s = LaurentSymbol({0: np.eye(3)})
        assert np.array_equal(finite_section(s, 4), np.eye(12))

    def test_shift_is_nilpotent_with_unit_kernel(self):
        sec = finite_section(LaurentSymbol.scalar({1: 1}), 5)
        assert np.linalg.norm(np.linalg.matrix_power(sec, 5)) == 0.0
        assert numeric_kernel_dim(sec, 1e-8) == 1

    def test_symmetric_symbol_gives_hermitian_section(self):
        rng = np.random.default_rng(4)
        a1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s = LaurentSymbol({0: np.eye(2), 1: a1, -1: a1.conj().T})
        sec = finite_section(s, 6)
        assert np.linalg.norm(sec - sec.conj().T) < 1e-12

    def test_rejects_short_section(self):
        with pytest.raises(ContractViolation):
            finite_section(LaurentSymbol.scalar({2: 1, -2: 1}), 4)


class TestFredholmViaSections:
    def test_shifted_scalar_stable(self):
        sweep = fredholm_via_sections(LaurentSymbol.scalar({0: -2, 1: 1}), (16, 32, 64))
        assert sweep.verdict == "stable"
        assert min(sweep.sigma_min) >= 0.5

    def test_circle_root_decays(self):
        sweep = fredholm_via_sections(LaurentSymbol.scalar({0: -1, 1: 1}), (16, 32, 64))
        assert sweep.verdict == "decaying"

    def test_massive_circle_block_stable(self):
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(mass_doubled(d.matrix, 1.0))
        sweep = fredholm_via_sections(s, (8, 16, 32))
        assert sweep.verdict == "stable"

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_one_solve_per_size(self, hermitian):
        if hermitian:
            d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
            s = period_symbol(mass_doubled(d.matrix, 1.0))
        else:
            s = LaurentSymbol.scalar({0: -2, 1: 1})
        assert s.hermitian_symmetric is hermitian
        sizes = (8, 16, 32)
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig, \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            sweep = fredholm_via_sections(s, sizes)
        assert (eig.call_count, svd.call_count) == ((3, 0) if hermitian else (0, 3))
        oracle = [singular_values(finite_section(s, n))[-1] for n in sizes]
        assert np.allclose(sweep.sigma_min, oracle, rtol=1e-12)

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ContractViolation):
            fredholm_via_sections(LaurentSymbol.scalar({0: 1}), (32, 16))

    def test_verdicts_agree_with_symbol_criterion(self):
        for s in invertible_symbols()[:4]:
            assert is_fredholm(s, grid=128).is_fredholm
            assert fredholm_via_sections(s, (16, 48, 96)).verdict == "stable"
        for s in circle_zero_symbols()[:4]:
            assert not is_fredholm(s, grid=128).is_fredholm
            assert fredholm_via_sections(s, (16, 48, 96)).verdict == "decaying"


def conjugated_diagonal_family(rng, block: int, steps: int, branches: int):
    """U diag(m_i + t_i z + conj(t_i)/z) U^* with z = exp(2 pi i c): the
    eigenvalues are m_i + 2|t_i| cos(2 pi c + arg t_i).  ``branches`` of
    them cross zero twice, down at c1 and up at c2, each crossing in its
    own scan interval and at least 15% of a step from the scan points; the
    rest stay clear of zero.  Returns the symbol and the sorted
    (crossing, direction) pairs."""
    free = list(rng.permutation(steps))
    m = np.zeros(block)
    t = np.zeros(block, complex)
    crossings = []
    while len(crossings) < 2 * branches:
        a = free.pop()
        b = next((b for b in free if 0.1 <= ((b - a) / steps) % 1.0 <= 0.9), None)
        if b is None:
            continue
        free.remove(b)
        c1, c2 = ((x + rng.uniform(0.15, 0.85)) / steps for x in (a, b))
        alpha = math.pi * ((c1 - c2) % 1.0)
        mag = rng.uniform(0.5, 2.0)
        i = len(crossings) // 2
        m[i] = -2.0 * mag * math.cos(alpha)
        t[i] = mag * cmath.exp(1j * (alpha - 2.0 * math.pi * c1))
        crossings += [(c1, -1), (c2, 1)]
    for i in range(branches, block):
        mag = rng.uniform(0.5, 2.0)
        m[i] = rng.choice([-1.0, 1.0]) * 2.0 * mag * rng.uniform(1.15, 1.6)
        t[i] = mag * cmath.exp(2j * math.pi * rng.uniform())
    q, r = np.linalg.qr(rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    a0 = (u * (m * scale)) @ u.conj().T
    a1 = (u * (t * scale)) @ u.conj().T
    s = LaurentSymbol({0: 0.5 * (a0 + a0.conj().T), 1: a1, -1: a1.conj().T})
    return s, sorted(crossings)


def bisection_flow(family, steps: int) -> floquet.SpectralFlowResult:
    """Reference spectral flow: one solve per scan point, then per-point
    bisection on the negative-eigenvalue count of every scan interval
    whose count changes, down to a bracket of ``_CROSSING_TOL``."""
    def count(c):
        eigenvalues = hermitian_eigenvalues(family(c)).eigenvalues
        return int(np.count_nonzero(eigenvalues < -floquet._ZERO_BAND))

    cs = np.linspace(0.0, 1.0, steps + 1)
    counts = [count(c) for c in cs]
    crossings = []
    for i in range(steps):
        dn = counts[i + 1] - counts[i]
        if dn == 0:
            continue
        lo, hi = cs[i], cs[i + 1]
        while hi - lo > floquet._CROSSING_TOL:
            mid = 0.5 * (lo + hi)
            if count(mid) == counts[i]:
                lo = mid
            else:
                hi = mid
        crossings += [(float(hi), -1 if dn > 0 else 1)] * abs(dn)
    return floquet.SpectralFlowResult(flow=sum(d for _, d in crossings),
                                      crossings=tuple(crossings))


class TestSpectralFlow:
    def test_bounding_circle_family(self):
        fam = lambda c: build_circle_dirac(16, Scheme.SPECTRAL, BOUND, c).matrix
        r = spectral_flow(fam, steps=24)
        assert r.flow == -1
        assert len(r.crossings) == 1
        c_star, direction = r.crossings[0]
        assert abs(c_star - 0.5) < 1e-6 and direction == -1

    def test_nonbounding_circle_family(self):
        fam = lambda c: build_circle_dirac(16, Scheme.SPECTRAL, NONBOUND, c).matrix
        r = spectral_flow(fam, steps=24)
        assert r.flow == -1
        c_star, _ = r.crossings[0]
        assert abs(c_star) < 1e-6

    def test_constant_family(self):
        fam = lambda c: np.diag([1.0, -2.0]).astype(complex)
        assert spectral_flow(fam, steps=8).flow == 0

    def test_explicit_diagonal_crossing(self):
        fam = lambda c: np.diag([c - 0.5, c + 2.0]).astype(complex)
        r = spectral_flow(fam, steps=10)
        assert r.flow == 1
        assert abs(r.crossings[0][0] - 0.5) < 1e-6

    def test_flow_counts_kernel_twists(self):
        for spin in (BOUND, NONBOUND):
            fam = lambda c: build_circle_dirac(16, Scheme.SPECTRAL, spin, c).matrix
            r = spectral_flow(fam, steps=24)
            kernels = 1  # exactly one kernel twist per period for either structure
            assert abs(r.flow) == kernels

    def test_two_crossings_in_one_interval(self):
        fam = lambda c: np.diag([c - 0.51, c - 0.52, 5.0]).astype(complex)
        r = spectral_flow(fam, steps=2)
        assert r.flow == 2
        assert len(r.crossings) == 2

    def test_degenerate_crossing_rejected(self):
        fam = lambda c: np.diag([0.0, 1.0 + 0.1 * np.sin(2 * np.pi * c)]).astype(complex)
        with pytest.raises(DegenerateCrossing):
            spectral_flow(fam, steps=10)

    def test_rejects_nonperiodic_family(self):
        fam = lambda c: np.diag(np.arange(8) + 0.3 * c).astype(complex)
        with pytest.raises(ContractViolation):
            spectral_flow(fam, steps=8)

    @staticmethod
    def _stack_sizes(fam, steps):
        stacks = []
        counting = lambda m: stacks.append(len(m)) or hermitian_eigenvalues(m)
        with mock.patch.object(floquet, "hermitian_eigenvalues", counting):
            return spectral_flow(fam, steps=steps), stacks

    def test_one_stacked_solve_per_scan_and_round(self):
        # the 11 scan points are one stack, and each round of the crossing
        # search one stack of at most three probes per bracket; the gap is
        # linear here, so the first secant root is the crossing and one
        # round closes the bracket [0.4, 0.5]
        fam = lambda c: np.diag([c - 0.43, c + 2.0]).astype(complex)
        r, stacks = self._stack_sizes(fam, 10)
        assert r.flow == 1 and abs(r.crossings[0][0] - 0.43) < 1e-8
        assert stacks == [11, 3]

    def test_rounds_at_least_halve_the_brackets(self):
        # two crossings of a curved branch, at c = +-arccos(-0.3) / (2 pi):
        # each round at least halves both brackets on their way to 1e-9
        fam = lambda c: np.diag([np.cos(2 * np.pi * c) + 0.3, 2.0]).astype(complex)
        r, stacks = self._stack_sizes(fam, 10)
        c1 = math.acos(-0.3) / (2 * math.pi)
        assert r.crossings[0][0] == pytest.approx(c1, abs=1e-8)
        assert r.crossings[1][0] == pytest.approx(1 - c1, abs=1e-8)
        assert stacks[0] == 11
        assert 1 <= len(stacks) - 1 <= math.ceil(math.log2(0.1 / 1e-9))
        assert all(k <= 6 for k in stacks[1:])

    def test_stacks_stay_within_chunk_bytes(self):
        fam = lambda c: build_circle_dirac(8, Scheme.SPECTRAL, BOUND, c).matrix
        whole = spectral_flow(fam, steps=24)
        with mock.patch.object(floquet, "_CHUNK_BYTES", 3 * 16 * 64):  # three 8 x 8 blocks
            chunked, stacks = self._stack_sizes(fam, 24)
        assert max(stacks) == 3 and sum(stacks[:9]) == 25
        assert chunked == whole

    @settings(max_examples=30, deadline=None)
    @given(block=st.integers(1, 16), steps=st.integers(8, 64),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_conjugated_diagonal_families(self, block, steps, seed, data):
        branches = data.draw(st.integers(0, min(block, steps // 4)))
        rng = np.random.default_rng(seed)
        s, oracle = conjugated_diagonal_family(rng, block, steps, branches)

        def fam(c):
            a = symbol_eval(s, twist_to_floquet(c))
            return 0.5 * (a + a.conj().T)

        r = spectral_flow(fam, steps=steps)
        ref = bisection_flow(fam, steps)
        assert [d for _, d in r.crossings] == [d for _, d in ref.crossings] \
            == [d for _, d in oracle]
        assert r.flow == ref.flow == sum(d for _, d in oracle)
        for (c, _), (cr, _), (co, _) in zip(r.crossings, ref.crossings, oracle):
            assert abs(c - co) < 1e-8
            assert abs(c - cr) <= floquet._CROSSING_TOL

    def test_symbol_loop_has_zero_net_flow(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(d.matrix)
        fam = lambda c: symbol_eval(s, twist_to_floquet(c))
        r = spectral_flow(fam, steps=32)
        assert r.flow == 0
        assert len(r.crossings) == 2  # one branch down, the doubler back up
