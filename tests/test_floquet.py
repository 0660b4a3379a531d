import cmath
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import (circle_zero_symbols, golden_section, invertible_symbols,
                     numeric_kernel_dim, permuted_block_diagonal_symbols, section_index_oracle,
                     singular_values, symbol_direct_sum, winding_test_symbols)
from spinspec import floquet
from spinspec.conventions import (FREDHOLM_TOL, HERMITICITY_TOL, REFINE_TOL, floquet_to_twist,
                                  twist_to_floquet)
from spinspec.discretize import (Scheme, build_circle_dirac, mass_doubled,
                                 period_symbol)
from spinspec.errors import ContractViolation, DegenerateCrossing
from spinspec.floquet import (LaurentSymbol, finite_section,
                              fredholm_via_sections, is_fredholm,
                              min_singular_on_circle, spectral_flow,
                              symbol_eval, toeplitz_index, twist_crossings)
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

    def test_rejects_non_integral_offsets(self):
        # int(1.5) would collide with offset 1 and silently drop a coefficient
        with pytest.raises(ContractViolation, match="distinct integers"):
            LaurentSymbol.scalar({0: 2, 1.5: 1, 1: 3})
        with pytest.raises(ContractViolation, match="distinct integers"):
            LaurentSymbol.scalar({1.0: 1})
        assert list(LaurentSymbol.scalar({np.int64(-1): 1, 2: 1}).coeffs) == [-1, 2]

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

    def test_spectral_norms_are_computed_once_when_first_asked_for(self):
        rng = np.random.default_rng(4)
        a1 = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = LaurentSymbol({0: np.diag([0.5, -0.5, 3.0, -3.0]), 1: a1, -1: a1.conj().T})
        with mock.patch.object(np.linalg, "norm", wraps=np.linalg.norm) as norm:
            fredholm_via_sections(s, (3, 4))
            assert not any(c.args[1:] == (2,) for c in norm.call_args_list)
            lip = s.lipschitz_bound()
            min_singular_on_circle(s, grid=16)
            twist_crossings(s)
            assert s.lipschitz_bound() == lip
        # one SVD for each of A_1 and A_{-1}; A_0 never enters either bound
        assert sum(c.args[1:] == (2,) for c in norm.call_args_list) == 2
        assert lip == pytest.approx(2 * np.linalg.norm(a1, 2), rel=1e-14)


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
        # the dense oracle holds every dyadic point the minimum's rule can evaluate
        start = min(grid, floquet._START_GRID)
        thetas = 2 * np.pi * np.arange(128 * start) / (128 * start)
        dense = [np.linalg.svd(symbol_eval(s, cmath.exp(1j * t)), compute_uv=False)[-1]
                 for t in thetas]
        # a refinement that never improves leaves the scan's best point
        no_refine = lambda f, a, b, xtol: (0.5 * (a + b), math.inf)
        with mock.patch.object(floquet, "_brent", no_refine):
            # tol = inf splits no arc for the decision: the minimum's rule
            # alone, whose points are all in the dense oracle
            minimum = min_singular_on_circle(s, grid=grid, tol=math.inf)
            found = min_singular_on_circle(s, grid=grid)
        assert min(dense) - 1e-12 * max(dense) <= minimum[0]
        assert minimum.evaluations <= 2 * grid
        assert found.evaluations <= floquet._DECISION_EVALUATIONS * grid
        eps = s.lipschitz_bound() * math.pi / grid
        for value, witness in (minimum, found):
            # the scan and the one-point SVD each err by at most the allowance
            at_witness = np.linalg.svd(symbol_eval(s, witness), compute_uv=False)[-1]
            assert abs(value - at_witness) <= 2 * floquet._rounding_allowance(s)
            assert value <= min(dense) + eps
        assert max(minimum.lower_bound, found.lower_bound) <= min(dense)

    def test_brent_polish_saves_probes(self):
        # the symbol of the pinned non-Hermitian fredholm report; the scan's
        # evaluations are those with a polish that probes nothing
        s = LaurentSymbol({0: [[-2, 0.5j], [0.25, -3]], 1: [[1, 0], [0.5, 1]]})
        no_refine = lambda f, a, b, xtol: (0.5 * (a + b), math.inf)
        with mock.patch.object(floquet, "_brent", no_refine):
            scan = min_singular_on_circle(s).evaluations
        with mock.patch.object(floquet, "_brent", golden_section):
            golden = min_singular_on_circle(s)
        brent = min_singular_on_circle(s)
        assert brent.evaluations - scan <= 2 / 3 * (golden.evaluations - scan)
        assert abs(brent[0] - golden[0]) <= REFINE_TOL

    @pytest.mark.parametrize("f, argmin", [
        (lambda x: (x - 0.3) ** 2, 0.3),  # parabolic steps
        (lambda x: abs(x - 0.3), 0.3),    # a kink: golden-section steps
        (lambda x: x, 0.0)])              # the minimum at the bracket's end
    def test_brent_keeps_the_bracket_rule(self, f, argmin):
        probes = []
        counted = lambda x: probes.append(x) or f(x)
        x, value = floquet._brent(counted, 0.0, 1.0, 1e-8)
        assert value == f(x) == min(map(f, probes))
        assert abs(x - argmin) <= 1e-8
        assert all(0.0 <= p <= 1.0 for p in probes) and len(probes) <= 201


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
        # sigma_min = 1.05e-6 clears tol = 1e-6, but arcs of the decision's
        # least width, 2 pi / grid / 2^16, keep the certified bound below it
        rep = is_fredholm(LaurentSymbol.scalar({0: -1 - 1.05e-6, 1: 1}), grid=16)
        assert rep.is_fredholm and rep.verdict == "inconclusive" and rep.index is None
        assert rep.lower_bound <= 1.05e-6 <= rep.min_singular

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
        # sigma_min is |A_0| - |A_1| > tol in closed form; the winding alone
        # skips a 512-point scan of 200 x 200 blocks that it does not use
        assert abs(coeffs[0]) - abs(coeffs[1]) > tol
        assert floquet._winding_index(s, abs(coeffs[0]) - abs(coeffs[1])) == 0
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
        d = LaurentSymbol({0: 0.5 * np.eye(40), 1: 2 * np.eye(40)})  # index -40
        assert toeplitz_index(symbol_direct_sum(a, d)) == -41

    @pytest.mark.parametrize("coeffs, block", [
        ({0: 0.5, 1: 2}, 40), ({0: 1, 1: 3}, 64), ({0: 0.5, 1: 2}, 130)])
    def test_many_turns(self, coeffs, block):
        # det A(z) = A_1^N (z - r)^N, |r| < 1, winds N times, fast enough
        # that a 64-point phase grid loses whole turns
        s = LaurentSymbol({j: v * np.eye(block) for j, v in coeffs.items()})
        assert toeplitz_index(s) == -block
        assert is_fredholm(s).index == -block

    @pytest.mark.parametrize("k", [-2, 1, 3])
    def test_power_of_z_shifts_index(self, k):
        # z^k A(z) has det z^(N k) det A(z): the index moves by -N k
        s, _ = diagonal_symbol(np.random.default_rng(20 + k), 3, 2, 1.0)
        shifted = LaurentSymbol({j + k: a for j, a in s.coeffs.items()})
        index = toeplitz_index(s)
        assert index == section_index_oracle(s, periods=64)
        assert toeplitz_index(shifted) == index - 3 * k

    def test_second_mobius_point(self):
        # det A(z) = z - 1/a' vanishes where the first disc map sends w to
        # infinity, so its Q_D is singular; the second point counts it
        s = LaurentSymbol.scalar({0: -2 * cmath.exp(1j), 1: 1})
        assert s.coeffs[0][0, 0] == pytest.approx(-1 / floquet._MOBIUS[0].conjugate())
        rep = is_fredholm(s)
        assert (rep.verdict, rep.index) == ("fredholm", 0)
        assert toeplitz_index(s) == 0

    def test_uncertified_index(self):
        # sigma_min = 1.05e-6 clears the tolerance, but the decision's
        # budget runs out with a bound below it: both commands leave the
        # index uncertified
        s = LaurentSymbol.scalar({0: -(1 + 1.05e-6), 1: 1})
        rep = is_fredholm(s)
        assert 0.0 < rep.lower_bound <= FREDHOLM_TOL < rep.min_singular
        assert rep.verdict == "inconclusive" and rep.index is None
        with pytest.raises(ContractViolation, match="index is not certified"):
            toeplitz_index(s)
        # zeros at 1/a' for both disc map points: no point serves
        r1, r2 = (1 / a.conjugate() for a in floquet._MOBIUS)
        both = LaurentSymbol.scalar({0: r1 * r2, 1: -(r1 + r2), 2: 1})
        rep = is_fredholm(both)
        assert rep.verdict == "fredholm" and rep.index is None
        with pytest.raises(ContractViolation, match="index is not certified"):
            toeplitz_index(both)

    @pytest.mark.parametrize("d, index", [(1.2e-6, 0), (1.6e-6, 0), (-1.2e-6, -1), (-1.6e-6, -1)])
    def test_decision_bound_certifies_a_near_circle_zero(self, d, index):
        # the zero 1 + d sits where sigma_min is |d|, just above the
        # tolerance: both scans split arcs below 2 pi / CIRCLE_GRID until
        # each bound clears it, and count the zero on its side of the circle
        s = LaurentSymbol.scalar({0: -(1 + d), 1: 1})
        _, value, lower, _ = floquet._circle_scan(s, floquet.CIRCLE_GRID, math.inf,
                                                  FREDHOLM_TOL)
        assert FREDHOLM_TOL < lower <= abs(d) <= value
        rep = is_fredholm(s)
        assert (rep.verdict, rep.index) == ("fredholm", index)
        assert rep.lower_bound > FREDHOLM_TOL
        assert toeplitz_index(s) == index

    @pytest.mark.parametrize("coeffs, verdict, polishes, outcome", [
        ({0: -(1 + 1.2e-6), 1: 1}, "fredholm", 0, 0),
        # a steep zero between the scan's points: only the polish of the
        # failed scan meets a sigma_min at or below the tolerance
        ({0: -100 * cmath.exp(1j), 1: 100}, "not-fredholm", 1, "not Fredholm"),
        ({0: -(1 + 1.05e-6), 1: 1}, "inconclusive", 1, "not certified"),
    ])
    def test_index_runs_one_scan(self, coeffs, verdict, polishes, outcome):
        s = LaurentSymbol.scalar(coeffs)
        with mock.patch.object(floquet, "min_singular_on_circle",
                               side_effect=AssertionError), \
                mock.patch.object(floquet, "is_fredholm", side_effect=AssertionError), \
                mock.patch.object(floquet, "_polish", wraps=floquet._polish) as polish, \
                mock.patch.object(floquet, "_circle_scan",
                                  wraps=floquet._circle_scan) as scan:
            if isinstance(outcome, int):
                assert toeplitz_index(s) == outcome
            else:
                with pytest.raises(ContractViolation, match=outcome):
                    toeplitz_index(s)
        assert (scan.call_count, polish.call_count) == (1, polishes)
        assert is_fredholm(s).verdict == verdict

    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(1, 5), bandwidth=st.integers(1, 2),
           ratio=st.floats(0.3, 5.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_agrees_with_fredholm_near_the_tolerance(self, block, bandwidth, ratio, seed):
        # random blocks scaled so that sigma_min is 0.3 to 5 tolerances
        rng = np.random.default_rng(seed)
        coeffs = {j: rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
                  for j in range(-bandwidth, bandwidth + 1)}
        scale = ratio * FREDHOLM_TOL / min_singular_on_circle(LaurentSymbol(coeffs))[0]
        s = LaurentSymbol({j: scale * a for j, a in coeffs.items()})
        rep = is_fredholm(s)
        if not rep.is_fredholm:
            with pytest.raises(ContractViolation, match="not Fredholm"):
                toeplitz_index(s)
        elif rep.verdict == "fredholm" and rep.index is not None:
            assert toeplitz_index(s) == rep.index
        else:
            with pytest.raises(ContractViolation, match="not certified"):
                toeplitz_index(s)


class TestOneSplitRule:
    """``fredholm`` and ``index`` run one split rule: an arc splits below
    the minimum's level, or, within the decision's budget, while its bound
    does not clear the tolerance."""

    @pytest.mark.parametrize("phi", [0.0, 0.37, 1.3, 2.9])
    def test_near_circle_zeros(self, phi):
        # -(1 + d) e^{i phi} + z has its zero at (1 + d) e^{i phi}: sigma_min
        # is |d| at z = e^{i phi}, and the index is 0 outside the disc, -1 inside
        grid = floquet.CIRCLE_GRID
        window = math.pi / grid / 2 ** floquet._DECISION_DEPTH  # L = 1
        for d in np.concatenate([np.logspace(-9, -2, 60), -np.logspace(-9, -2, 60)]):
            s = LaurentSymbol.scalar({0: -(1 + d) * cmath.exp(1j * phi), 1: 1})
            sigma, index = abs(d), 0 if d > 0 else -1
            rep = is_fredholm(s)
            assert rep.lower_bound <= sigma
            assert rep.verdict != ("fredholm" if sigma <= FREDHOLM_TOL else "not-fredholm")
            if rep.verdict == "inconclusive":
                allowance = floquet._rounding_allowance(s)
                assert sigma <= FREDHOLM_TOL + window + 2 * allowance
            for eps in (s.lipschitz_bound() * math.pi / grid, math.inf):  # fredholm, index
                scan = floquet._circle_scan(s, grid, eps, FREDHOLM_TOL)
                assert scan[3] <= floquet._DECISION_EVALUATIONS * grid
            if rep.verdict == "fredholm":
                assert rep.index == toeplitz_index(s) == index
            else:
                assert rep.index is None
                match = "not Fredholm" if rep.verdict == "not-fredholm" else "not certified"
                with pytest.raises(ContractViolation, match=match):
                    toeplitz_index(s)

    def test_flat_valley_stays_within_the_evaluation_budget(self):
        # sigma_min = 1.3e-6 on the whole circle: every arc of the first
        # piece is near the tolerance, and only the budget ends the decision
        s = LaurentSymbol({0: np.diag([1.3e-6, 1.0]), 1: np.diag([0.0, 0.5])})
        budget = floquet._DECISION_EVALUATIONS * floquet.CIRCLE_GRID
        rep = is_fredholm(s)
        assert (rep.verdict, rep.index) == ("inconclusive", None)
        for eps in (s.lipschitz_bound() * math.pi / floquet.CIRCLE_GRID, math.inf):
            assert floquet._circle_scan(s, floquet.CIRCLE_GRID, eps, FREDHOLM_TOL)[3] <= budget
        with pytest.raises(ContractViolation, match="not certified"):
            toeplitz_index(s)


block_diagonal_symbols = functools.cache(permuted_block_diagonal_symbols)


class TestPieces:
    """A symbol whose coefficients' nonzero patterns fall into several
    connected pieces is solved piece by piece."""

    @staticmethod
    def whole_block(s):
        """The same symbol, solved as one block."""
        with mock.patch.object(LaurentSymbol, "_pieces", None):
            return is_fredholm(LaurentSymbol(s.coeffs))

    @pytest.mark.parametrize("case", range(12))
    def test_pieces_match_the_whole_block(self, case):
        s = block_diagonal_symbols()[case]
        assert s._pieces is not None
        rep, whole = is_fredholm(s), self.whole_block(s)
        assert (rep.verdict, rep.index) == (whole.verdict, whole.index)
        assert rep.lower_bound == pytest.approx(whole.lower_bound, rel=1e-12)
        if rep.is_fredholm:
            assert rep.min_singular == pytest.approx(whole.min_singular, rel=1e-12)
        else:  # a circle zero: both values are rounding
            assert max(rep.min_singular, whole.min_singular) <= floquet._rounding_allowance(s)
        lipschitz = sum(abs(j) * np.linalg.norm(a, 2) for j, a in s.coeffs.items())
        assert s.lipschitz_bound() == pytest.approx(lipschitz, rel=1e-12)

    def test_pieces_are_grouped_by_size(self):
        s = LaurentSymbol({0: np.eye(3), 1: [[0, 0, 0], [0, 0, 0], [2, 0, 0]]})
        assert [p.tolist() for p in s._pieces] == [[[1]], [[0, 2]]]
        dense = LaurentSymbol({0: np.eye(2), 1: np.ones((2, 2))})
        assert dense._pieces is None

    def test_sections_do_not_find_pieces(self):
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.3)
        s = period_symbol(mass_doubled(d.matrix, 1.0))
        fredholm_via_sections(s, (8, 16))
        assert "_pieces" not in vars(s)

    def test_diagonal_scan_takes_no_svd(self):
        # 300 I + 50 I z: 128 pieces of 1 x 1, each |300 + 50 z|
        s = LaurentSymbol({0: 300.0 * np.eye(128), 1: 50.0 * np.eye(128)})
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            found = min_singular_on_circle(s)
        assert svd.call_count == 0
        assert found[0] == pytest.approx(250.0, rel=1e-12)
        assert s.lipschitz_bound() == 50.0
        assert 250.0 - 50.0 * math.pi / 512 <= found.lower_bound <= 250.0

    def test_index_makes_no_single_point_probe(self):
        s = LaurentSymbol({0: [[-2, 0.5j], [0.25, -3]], 1: [[1, 0], [0.5, 1]]})
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            assert toeplitz_index(s) == 0
        assert svd.call_count > 0
        assert all(c.args[0].ndim == 3 for c in svd.call_args_list)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            is_fredholm(s)
        assert any(c.args[0].ndim == 2 for c in svd.call_args_list)  # the polish


@functools.cache
def corpus_symbols():
    rng = np.random.default_rng(17)
    return (invertible_symbols() + circle_zero_symbols()
            + [s for s, _ in winding_test_symbols()] + block_diagonal_symbols()
            + [diagonal_symbol(rng, block, 1 + block % 2, 10.0 ** (block % 3 - 1))[0]
               for block in range(1, 9)])


@pytest.mark.parametrize("case", range(len(corpus_symbols())))
def test_index_matches_fredholm_on_the_corpus(case):
    s = corpus_symbols()[case]
    index = is_fredholm(s).index
    if index is not None:
        assert toeplitz_index(s) == index


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

    @staticmethod
    def counted_sweep(s, sizes):
        """The sweep, its ``eigvalsh`` and ``svd`` calls, and the number of
        section builds, after checking its values against the oracle."""
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig, \
                mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd, \
                mock.patch.object(floquet, "finite_section", wraps=finite_section) as build:
            sweep = fredholm_via_sections(s, sizes)
        oracle = [singular_values(finite_section(s, n))[-1] for n in sizes]
        assert np.allclose(sweep.sigma_min, oracle, rtol=1e-12)
        return sweep, eig.call_args_list, svd.call_args_list, build.call_count

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_one_solve_per_size(self, hermitian):
        if hermitian:
            d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
            s = period_symbol(mass_doubled(d.matrix, 1.0))
        else:
            s = LaurentSymbol.scalar({0: -2, 1: 1})
        assert s.hermitian_symmetric is hermitian
        sizes = (8, 16, 32)
        _, eig, svd, builds = self.counted_sweep(s, sizes)
        # one section build and one solve per size; the mass-doubled section
        # has no flux and a bipartite graph whose off-diagonal block B is
        # symmetric, with diagonal +-m on B's own classes and a bipartite
        # hop, so each size's solve is one real SVD of B's off-diagonal
        # block C, with a quarter of the section's rows
        assert builds == 1
        if hermitian:
            assert (len(eig), len(svd)) == (0, 3)
            assert [c.args[0].shape for c in svd] == [(4 * n, 4 * n) for n in sizes]
            assert all(c.args[0].dtype == float for c in svd)
        else:
            assert (len(eig), len(svd)) == (0, 3)

    def test_twisted_section_keeps_one_real_eigensolve_per_size(self):
        # the twist puts c on the diagonal, so the section is not bipartite;
        # it still has no flux, so each leading block is solved in real
        # arithmetic
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.3)
        s = period_symbol(mass_doubled(d.matrix, 1.0))
        sizes = (8, 16, 32)
        _, eig, svd, builds = self.counted_sweep(s, sizes)
        assert builds == 1
        assert (len(eig), len(svd)) == (3, 0)
        assert [c.args[0].shape for c in eig] == [(16 * n, 16 * n) for n in sizes]
        assert all(c.args[0].dtype == float for c in eig)

    @pytest.mark.parametrize("spin", [BOUND, NONBOUND])
    @pytest.mark.parametrize("grid, sizes", [(16, (3, 4, 6, 8)), (32, (3, 4, 6))])
    def test_mass_doubled_sweep_takes_one_svd_of_the_quarter_block(self, spin, grid, sizes):
        # the section is K with B = mu Gamma_B + [[0, C], [C^T, 0]] after
        # two splits, so sigma_min = hypot(mu, sigma_min(C)): the open chain
        # of p * grid sites has hopping eigenvalues cos(k pi / (L + 1)) / h
        mass = 0.6
        d = build_circle_dirac(grid, Scheme.CENTRAL_DIFFERENCE, spin, 0.0)
        s = period_symbol(mass_doubled(d.matrix, mass))
        sweep, eig, svd, builds = self.counted_sweep(s, sizes)
        assert builds == 1 and len(eig) == 0
        assert [c.args[0].shape for c in svd] == [(grid * n // 2, grid * n // 2) for n in sizes]
        assert all(c.args[0].dtype == float for c in svd)
        h = 2.0 * math.pi / grid
        for value, n in zip(sweep.sigma_min, sizes):
            k = np.arange(1, grid * n + 1)
            mu = np.min(np.abs(np.cos(k * math.pi / (grid * n + 1)))) / h
            assert value == pytest.approx(math.hypot(mass, mu), rel=1e-13)

    @pytest.mark.parametrize("spin", [BOUND, NONBOUND])
    def test_twisted_plain_section_splits_with_its_shift(self, spin):
        # the twist puts c on the whole diagonal, constant on both classes
        # of the open chain, so the section splits with shift c: one SVD
        # per size of the bidiagonal hop B, with half the section's rows,
        # and the values c +- sigma_k(B)
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, spin, 0.3)
        s = period_symbol(d.matrix)
        sizes = (4, 8, 16)
        _, eig, svd, builds = self.counted_sweep(s, sizes)
        assert builds == 1 and len(eig) == 0
        assert [c.args[0].shape for c in svd] == [(4 * n, 4 * n) for n in sizes]
        assert all(c.args[0].dtype == float for c in svd)

    @staticmethod
    def chiral_symbol(rng, evens, odds, bandwidth, flux, perm=None, hermitian_block=False):
        """A_j = [[0, P_j], [P_{-j}^H, 0]], Hermitian-symmetric, with
        ``evens`` x ``odds`` blocks P_j, conjugated by the block permutation
        ``perm``.  Without ``flux`` the P_j are real up to a diagonal phase
        gauge, so every section is gauge-equivalent to a real one.  With
        ``hermitian_block`` (square P_j) P_{-j} = P_j^H, so the chiral
        block of every section is Hermitian."""
        shape = (evens, odds)
        p = {j: rng.normal(size=shape) + (1j * rng.normal(size=shape) if flux else 0.0)
             for j in range(-bandwidth, bandwidth + 1)}
        if hermitian_block:
            p[0] = 0.5 * (p[0] + p[0].conj().T)
            p.update({-j: p[j].conj().T for j in range(1, bandwidth + 1)})
        block = evens + odds
        phases = np.exp(2j * np.pi * rng.uniform(size=block))
        perm = np.arange(block) if perm is None else perm
        coeffs = {}
        for j in p:
            a = np.zeros((block, block), dtype=complex)
            a[:evens, evens:] = p[j]
            a[evens:, :evens] = p[-j].conj().T
            coeffs[j] = (phases.conj()[:, None] * a * phases)[np.ix_(perm, perm)]
        return LaurentSymbol(coeffs)

    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(1, 2), bandwidth=st.integers(1, 2), flux=st.booleans(),
           extra=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_chiral_symbol_takes_one_svd_of_its_off_diagonal_block(self, half, bandwidth,
                                                                    flux, extra, seed):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(2 * half)
        s = self.chiral_symbol(rng, half, half, bandwidth, flux, perm)
        assert s.hermitian_symmetric
        sizes = (2 * bandwidth + 1, 2 * bandwidth + 2 + extra)
        sweep, eig, svd, _ = self.counted_sweep(s, sizes)
        # agreement within 1e-12 of the section's norm, the accuracy of a
        # backward-stable singular value
        for value, n in zip(sweep.sigma_min, sizes):
            section = finite_section(s, n)
            assert abs(value - singular_values(section)[-1]) <= 1e-12 * np.linalg.norm(section, 2)
        # random P_j make the chiral block B non-Hermitian, so each size
        # keeps its SVD; every flux-free section is gauged real
        assert len(eig) == 0
        assert [c.args[0].shape for c in svd] == [(half * n, half * n) for n in sizes]
        assert all(c.args[0].dtype == (complex if flux else float) for c in svd)

    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(1, 3), bandwidth=st.integers(1, 2), extra=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_hermitian_chiral_block_takes_one_real_eigensolve(self, half, bandwidth, extra,
                                                              seed):
        # P_{-j} = P_j^H makes the chiral block B Hermitian once the gauge is
        # real; the random riffle of the two classes keeps the order within
        # each class, so B is not merely a row and column permutation of a
        # Hermitian matrix
        rng = np.random.default_rng(seed)
        perm = np.empty(2 * half, dtype=int)
        evens = np.isin(np.arange(2 * half), rng.choice(2 * half, half, replace=False))
        perm[evens], perm[~evens] = np.arange(half), half + np.arange(half)
        s = self.chiral_symbol(rng, half, half, bandwidth, False, perm, hermitian_block=True)
        assert s.hermitian_symmetric
        sizes = (2 * bandwidth + 1, 2 * bandwidth + 2 + extra)
        sweep, eig, svd, builds = self.counted_sweep(s, sizes)
        for value, n in zip(sweep.sigma_min, sizes):
            section = finite_section(s, n)
            assert abs(value - singular_values(section)[-1]) <= 1e-12 * np.linalg.norm(section, 2)
        assert builds == 1
        if half == bandwidth == 1:
            # B is then the chain P_0 I + P_1 (shift) + P_1 (shift)^T: its
            # diagonal is constant and its hop bipartite, so it splits
            # again, and each size takes one real SVD of its off-diagonal
            # block
            assert len(eig) == 0
            assert [c.args[0].shape for c in svd] == [((n + 1) // 2, n // 2) for n in sizes]
            assert all(c.args[0].dtype == float for c in svd)
        else:
            assert len(svd) == 0
            assert [c.args[0].shape for c in eig] == [(half * n, half * n) for n in sizes]
            assert all(c.args[0].dtype == float for c in eig)

    def test_unbalanced_chiral_block_reports_zero(self):
        # one even and two odd indices per period: every section has as many
        # zero eigenvalues as periods
        s = self.chiral_symbol(np.random.default_rng(11), 1, 2, 1, True)
        sizes = (3, 5, 8)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            sweep = fredholm_via_sections(s, sizes)
        assert sweep.sigma_min == (0.0, 0.0, 0.0)
        assert svd.call_count == 0
        for n in sizes:
            h = finite_section(s, n)
            assert np.min(np.abs(np.linalg.eigvalsh(h))) <= 1e-12 * np.linalg.norm(h)

    @pytest.mark.parametrize("coeffs, sizes", [({2: 1, -2: 1}, (4, 8)),
                                               ({0: -2, 1: 1}, (3.5, 8))])
    def test_rejects_each_bad_size(self, coeffs, sizes):
        # every size is checked, not only the longest section that is built
        with pytest.raises(ContractViolation, match=r"at least 2\*bandwidth \+ 1"):
            fredholm_via_sections(LaurentSymbol.scalar(coeffs), sizes)

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
        # search one stack of the bracket's midpoint: halving [0.4, 0.5]
        # down to 1e-9 takes ceil(log2(0.1 / 1e-9)) = 27 rounds
        fam = lambda c: np.diag([c - 0.43, c + 2.0]).astype(complex)
        r, stacks = self._stack_sizes(fam, 10)
        assert r.flow == 1 and abs(r.crossings[0][0] - 0.43) < 1e-8
        assert stacks == [11] + [1] * 27

    def test_rounds_halve_all_brackets_together(self):
        # two crossings of a curved branch, at c = +-arccos(-0.3) / (2 pi):
        # each round halves both brackets in one stack of two midpoints
        fam = lambda c: np.diag([np.cos(2 * np.pi * c) + 0.3, 2.0]).astype(complex)
        r, stacks = self._stack_sizes(fam, 10)
        c1 = math.acos(-0.3) / (2 * math.pi)
        assert r.crossings[0][0] == pytest.approx(c1, abs=1e-8)
        assert r.crossings[1][0] == pytest.approx(1 - c1, abs=1e-8)
        assert stacks == [11] + [2] * math.ceil(math.log2(0.1 / 1e-9))

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
        assert r == bisection_flow(fam, steps)
        assert [d for _, d in r.crossings] == [d for _, d in oracle]
        assert r.flow == sum(d for _, d in oracle)
        assert all(abs(c - co) < 1e-8 for (c, _), (co, _) in zip(r.crossings, oracle))

    def test_symbol_loop_has_zero_net_flow(self):
        d = build_circle_dirac(16, Scheme.CENTRAL_DIFFERENCE, BOUND, 0.0)
        s = period_symbol(d.matrix)
        fam = lambda c: symbol_eval(s, twist_to_floquet(c))
        r = spectral_flow(fam, steps=32)
        assert r.flow == 0
        assert len(r.crossings) == 2  # one branch down, the doubler back up


class TestTwistCrossings:
    @settings(max_examples=30, deadline=None)
    @given(block=st.integers(1, 16), steps=st.integers(8, 64),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_conjugated_diagonal_families(self, block, steps, seed, data):
        branches = data.draw(st.integers(0, min(block, steps // 4)))
        s, oracle = conjugated_diagonal_family(np.random.default_rng(seed), block, steps,
                                               branches)
        r = twist_crossings(s)
        assert [d for _, d in r.crossings] == [d for _, d in oracle]
        assert r.flow == sum(d for _, d in oracle)
        assert all(abs(c - co) < 1e-8 for (c, _), (co, _) in zip(r.crossings, oracle))

    def test_hermitian_defect(self):
        # A_{-1} = A_1^H + E inside HERMITICITY_TOL: the crossings are those
        # of the exactly Hermitian symbol
        s, oracle = conjugated_diagonal_family(np.random.default_rng(8), 6, 32, 3)
        e = 0.1 * HERMITICITY_TOL * np.linalg.norm(s.coeffs[1]) * np.ones((6, 6))
        off = LaurentSymbol({0: s.coeffs[0], 1: s.coeffs[1], -1: s.coeffs[-1] + e})
        assert off.hermitian_symmetric and not np.array_equal(off.coeffs[-1], s.coeffs[-1])
        r = twist_crossings(off)
        assert [d for _, d in r.crossings] == [d for _, d in oracle]
        assert all(abs(c - co) < 1e-8 for (c, _), (co, _) in zip(r.crossings, oracle))

    def test_cluster_of_a_direct_sum(self):
        # two copies of one branch cross at the same twists: each crossing
        # is a two-dimensional kernel with two equal directions
        t = 0.9 * cmath.exp(0.4j)
        s = LaurentSymbol({0: 0.7 * np.eye(2), 1: t * np.eye(2), -1: t.conjugate() * np.eye(2)})
        one = twist_crossings(LaurentSymbol.scalar({0: 0.7, 1: t, -1: t.conjugate()}))
        r = twist_crossings(s)
        assert r.flow == 0
        assert [d for _, d in r.crossings] == [-1, -1, 1, 1]
        assert all(abs(c - co) < 1e-12 for (c, _), (co, _) in
                   zip(r.crossings, sorted(2 * list(one.crossings))))

    @pytest.mark.parametrize("seed", range(3))
    def test_cluster_of_opposite_directions(self, seed):
        # U diag(a, -a, 4 + 0.3 z + 0.3/z) U^*: a two-dimensional kernel at
        # each twist of the scalar branch a, with one direction each way
        t = 0.9 * cmath.exp(0.4j)
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rotate = lambda d: (u * np.asarray(d, complex)) @ u.conj().T
        s = LaurentSymbol({0: rotate([0.7, -0.7, 4.0]), 1: rotate([t, -t, 0.3]),
                           -1: rotate([t.conjugate(), -t.conjugate(), 0.3])})
        one = twist_crossings(LaurentSymbol.scalar({0: 0.7, 1: t, -1: t.conjugate()}))
        r = twist_crossings(s)
        assert r.flow == 0
        assert [d for _, d in r.crossings] == [-1, 1] * len(one.crossings)
        assert all(abs(c - co) < 1e-12 for (c, _), (co, _) in
                   zip(r.crossings, sorted(2 * list(one.crossings))))

    @pytest.mark.parametrize("size", [0.5, 1.0, 2.0])
    def test_block_tangency(self, size):
        # det A(e^{i theta}) = 3 (1 - cos theta) touches zero at theta = 0
        # without changing sign, where A' = [[0, size], [size, 0]] is
        # invertible but e_0^H A' e_0 = 0
        q, b = size * size / 3.0, size / 2j
        a1, a2 = np.array([[-0.5, b], [b, 0.0]]), np.diag([-q / 4.0, 0.0])
        s = LaurentSymbol({0: np.diag([1.0 + q / 2.0, 3.0]), 1: a1, -1: a1.conj().T,
                           2: a2, -2: a2.conj().T})
        assert s.hermitian_symmetric
        with pytest.raises(DegenerateCrossing):
            twist_crossings(s)

    def test_constant_symbols(self):
        assert twist_crossings(LaurentSymbol({0: np.diag([1.0, -2.0])})).crossings == ()
        with pytest.raises(DegenerateCrossing):
            twist_crossings(LaurentSymbol({0: np.diag([0.0, 1.0])}))

    def test_kernel_on_the_whole_circle(self):
        # det A(z) = 0 for every z: the first row and column are zero
        a1 = np.array([[0, 0], [0, 1.0]])
        with pytest.raises(DegenerateCrossing):
            twist_crossings(LaurentSymbol({0: np.diag([0.0, 0.5]), 1: a1, -1: a1}))

    def test_rejects_non_hermitian_symbol(self):
        with pytest.raises(ContractViolation, match="Hermitian-symmetric"):
            twist_crossings(LaurentSymbol.scalar({0: -2, 1: 1}))

    def test_crossing_a_rounding_below_zero_is_at_zero(self):
        # the angle of a circle zero at z = 1 can round a few ulps below 0
        # (grid 8); the twist is 0, not the largest float below 1
        assert floquet_to_twist(complex(1, -5e-16)) == 0.0
        for grid in (8, 16, 32):
            op = build_circle_dirac(grid, Scheme.CENTRAL_DIFFERENCE, NONBOUND, 0.0)
            r = twist_crossings(period_symbol(op.matrix))
            assert [d for _, d in r.crossings] == [-1, 1]
            assert all(c < 1e-15 for c, _ in r.crossings)
