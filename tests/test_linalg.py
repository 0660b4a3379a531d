import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _corpus import numeric_kernel_dim, singular_values
from spinspec.conventions import HERMITICITY_TOL
from spinspec.discretize import (DiscreteDirac, Scheme, build_circle_dirac, mass_doubled,
                                 period_symbol)
from spinspec.errors import ContractViolation
from spinspec.exact import _to_fraction
from spinspec.floquet import LaurentSymbol, finite_section, fredholm_via_sections
from spinspec.linalg import (Inertia, connected_pieces, gauge_split, hermitian_eigenvalues,
                             is_hermitian, rational_ldl_inertia, sigma_min)
from spinspec.spectra import SpinStructure


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def random_unitary(n, seed):
    """Product of complex Householder reflections."""
    rng = np.random.default_rng(seed)
    u = np.eye(n, dtype=complex)
    for _ in range(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v = v / np.linalg.norm(v)
        u = u @ (np.eye(n) - 2.0 * np.outer(v, v.conj()))
    return u


def jacobi_eigenvalues(m, tol=1e-13, max_sweeps=60):
    """Cyclic Jacobi eigenvalues of a complex Hermitian matrix, ascending.

    Rotates away one off-diagonal pair at a time, sweeping all (p, q) until
    the off-diagonal Frobenius mass drops below ``tol`` relative to the
    matrix norm.  No LAPACK involved: an independent oracle for
    ``hermitian_eigenvalues``.
    """
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    scale = np.linalg.norm(a, "fro")
    if scale == 0.0:
        return np.zeros(n)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(a - np.diag(np.diag(a))) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-2 * tol * scale / n:
                    continue
                app, aqq = a[p, p].real, a[q, q].real
                phase = apq / abs(apq)
                tau = (aqq - app) / (2.0 * abs(apq))
                # stable root of t^2 - 2*tau*t - 1 = 0
                t = -np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = t * c * np.conj(phase)
                # columns: A <- A U with U = [[c, -conj(s)], [s, c]] on (p, q)
                col_p = c * a[:, p] + s * a[:, q]
                col_q = -np.conj(s) * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                # rows: A <- U^H A
                row_p = c * a[p, :] + np.conj(s) * a[q, :]
                row_q = -s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = row_p, row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        raise AssertionError("Jacobi iteration did not converge")
    return np.sort(np.diag(a).real)


class TestHermitianEigenvalues:
    def test_identity(self):
        r = hermitian_eigenvalues(np.eye(4))
        assert np.allclose(r.eigenvalues, np.ones(4))

    def test_diagonal(self):
        r = hermitian_eigenvalues(np.diag([-2.0, 0.0, 3.0]))
        assert np.allclose(r.eigenvalues, [-2.0, 0.0, 3.0])

    def test_random_residual(self):
        r = hermitian_eigenvalues(random_hermitian(20, 1))
        assert r.residual < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(ContractViolation):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_rejects_nonhermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ContractViolation):
            hermitian_eigenvalues(m)

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractViolation):
            hermitian_eigenvalues(np.array([[np.nan, 0], [0, 1.0]]))

    def test_jacobi_agrees_with_lapack(self):
        m = random_hermitian(30, 3)
        lapack = hermitian_eigenvalues(m).eigenvalues
        assert np.max(np.abs(lapack - jacobi_eigenvalues(m))) < 1e-10

    def test_jacobi_zero_matrix(self):
        assert np.allclose(jacobi_eigenvalues(np.zeros((3, 3))), 0.0)
        assert np.array_equal(hermitian_eigenvalues(np.zeros((3, 3))).eigenvalues,
                              np.zeros(3))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_jacobi_agrees_on_conjugated_matrices(self, seed):
        u = random_unitary(12, seed + 100)
        m = u.conj().T @ random_hermitian(12, seed) @ u
        lapack = hermitian_eigenvalues(m).eigenvalues
        assert np.max(np.abs(lapack - jacobi_eigenvalues(m))) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_unitary_conjugation_invariance(self, seed):
        m = random_hermitian(12, seed)
        u = random_unitary(12, seed + 100)
        a = hermitian_eigenvalues(m).eigenvalues
        b = hermitian_eigenvalues(u.conj().T @ m @ u).eigenvalues
        assert np.max(np.abs(a - b)) < 1e-9


class TestStackedEigenvalues:
    """A (k, N, N) stack is one batched solve whose rows are exactly the
    per-matrix eigenvalues, and every block is checked as a matrix is."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 32, 64])
    def test_rows_equal_per_matrix_solves(self, n):
        stack = np.stack([random_hermitian(n, seed) for seed in range(7)])
        r = hermitian_eigenvalues(stack)
        assert r.eigenvalues.shape == (7, n)
        for block, row in zip(stack, r.eigenvalues):
            assert np.array_equal(row, hermitian_eigenvalues(block).eigenvalues)
        assert r.residual == pytest.approx(max(hermitian_eigenvalues(b).residual for b in stack))

    def test_list_of_matrices_is_a_stack(self):
        blocks = [random_hermitian(4, seed) for seed in range(3)]
        assert np.array_equal(hermitian_eigenvalues(blocks).eigenvalues,
                              hermitian_eigenvalues(np.stack(blocks)).eigenvalues)

    @pytest.mark.parametrize("rel,hermitian", [(1e-11, False), (1e-13, True)])
    def test_one_nonhermitian_block(self, rel, hermitian):
        stack = np.stack([random_hermitian(16, seed) for seed in range(5)])
        k = 1j * random_hermitian(16, 8)  # anti-Hermitian
        stack[2] += rel * np.linalg.norm(stack[2]) / np.linalg.norm(k) * k
        if hermitian:
            hermitian_eigenvalues(stack)
        else:
            with pytest.raises(ContractViolation, match="^matrix is not Hermitian within tolerance$"):
                hermitian_eigenvalues(stack)

    def test_one_nonfinite_block(self):
        stack = np.stack([random_hermitian(4, seed) for seed in range(5)])
        stack[3, 1, 1] = np.inf
        with pytest.raises(ContractViolation, match="^matrix entries must be finite$"):
            hermitian_eigenvalues(stack)

    def test_one_nonsquare_block(self):
        blocks = [random_hermitian(2, 0), np.ones((2, 3)), random_hermitian(2, 1)]
        with pytest.raises(ContractViolation, match="^matrix is 2x3, not square$"):
            hermitian_eigenvalues(blocks)

    def test_zero_block_has_zero_residual(self):
        with np.errstate(all="raise"):
            assert hermitian_eigenvalues(np.zeros((3, 4, 4))).residual == 0.0
            r = hermitian_eigenvalues(np.stack([np.zeros((4, 4)), random_hermitian(4, 2)]))
        assert np.array_equal(r.eigenvalues[0], np.zeros(4))
        assert r.residual == hermitian_eigenvalues(random_hermitian(4, 2)).residual


class TestHermiticityRule:
    """One rule for the eigensolver, the discrete operator and the symbol
    flag: ||x - x^H||_F <= 1e-12 ||x||_F."""

    @pytest.mark.parametrize("rel,hermitian", [(1e-11, False), (1e-13, True)])
    def test_one_rule_everywhere(self, rel, hermitian):
        h = random_hermitian(16, 7)
        k = 1j * random_hermitian(16, 8)  # anti-Hermitian
        m = h + rel * np.linalg.norm(h) / np.linalg.norm(k) * k
        if hermitian:
            hermitian_eigenvalues(m)
            DiscreteDirac(n=16, scheme=Scheme.SPECTRAL, spin=SpinStructure.BOUNDING,
                          c=0.0, matrix=m)
        else:
            with pytest.raises(ContractViolation):
                hermitian_eigenvalues(m)
            with pytest.raises(ContractViolation):
                DiscreteDirac(n=16, scheme=Scheme.SPECTRAL, spin=SpinStructure.BOUNDING,
                              c=0.0, matrix=m)
        # the same defect in A_{-1}, relative to the norm of all coefficients
        rng = np.random.default_rng(9)
        a1 = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        scale = np.sqrt(np.linalg.norm(h) ** 2 + 2 * np.linalg.norm(a1) ** 2)
        s = LaurentSymbol({0: h, 1: a1,
                           -1: a1.conj().T + rel * scale / np.linalg.norm(k) * k})
        assert s.hermitian_symmetric is hermitian


class TestPairwiseHermiticity:
    """``is_hermitian`` sums the norms pair by pair; its verdict is the one
    the whole stack and its reversed block adjoint give, wherever the
    defect is not within rounding of the tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 7), n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           ratio=st.sampled_from([0.0, 0.1, 0.5, 2.0, 10.0]), as_list=st.booleans())
    def test_verdict_equals_the_stacked_one(self, k, n, seed, ratio, as_list):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        x = 0.5 * (x + x[::-1].conj().swapaxes(-1, -2))  # A_{-j} = A_j^H
        e = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
        e -= e[::-1].conj().swapaxes(-1, -2)  # its adjoint-reversal is -e
        if np.linalg.norm(e) > 0:
            x += ratio * HERMITICITY_TOL * np.linalg.norm(x) / np.linalg.norm(e) * 0.5 * e
        stacked = (np.linalg.norm(x - x[::-1].conj().swapaxes(-1, -2))
                   <= HERMITICITY_TOL * np.linalg.norm(x))
        assert is_hermitian(list(x) if as_list else x) is bool(stacked)
        assert stacked == (ratio <= 1.0 or np.linalg.norm(e) == 0)


class TestSigmaMin:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), k=st.integers(1, 4), singular=st.booleans(),
           exponent=st.integers(-6, 6), seed=st.integers(0, 2 ** 32 - 1))
    def test_hermitian_path_matches_the_svd(self, n, k, singular, exponent, seed):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))
        lam = rng.normal(size=(k, n)) * 10.0 ** exponent
        if singular:
            lam[:, rng.integers(n)] = 0.0
        h = (q * lam[:, None, :]) @ q.conj().swapaxes(-1, -2)
        a = 0.5 * (h + h.conj().swapaxes(-1, -2))  # exactly Hermitian
        got = sigma_min(a, True)
        want = np.linalg.svd(a, compute_uv=False)[:, -1]
        # both solvers are backward stable, each to a small multiple of
        # N eps ||A||: at N = 2 they differ by up to 2.7 eps ||A||_F
        norm = np.linalg.norm(a, axis=(-2, -1))
        assert got.shape == (k,)
        assert np.all(np.abs(got - want) <= 4 * n * np.finfo(float).eps * norm)
        assert sigma_min(a[0], True) == got[0]

    def test_general_path_is_the_svd(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        want = np.linalg.svd(a, compute_uv=False)[:, -1]
        assert np.array_equal(sigma_min(a, False), want)
        assert sigma_min(a[1], False) == want[1]

    def test_one_by_one_blocks_take_no_solve(self):
        # |a| on the general path; the Hermitian one reads the real
        # diagonal, as eigvalsh does
        a = np.array([[[3 - 4j]], [[-2 + 1e-13j]]])
        with mock.patch.object(np.linalg, "svd") as svd, \
                mock.patch.object(np.linalg, "eigvalsh") as eig:
            assert np.array_equal(sigma_min(a, False), [5.0, abs(-2 + 1e-13j)])
            assert np.array_equal(sigma_min(a, True), [3.0, 2.0])
            assert sigma_min(a[0], False) == 5.0
        assert (svd.call_count, eig.call_count) == (0, 0)
        assert sigma_min(a[1], True) == abs(np.linalg.eigvalsh(a[1])[0])


class TestConnectedPieces:
    def test_permuted_blocks(self):
        rng = np.random.default_rng(5)
        pieces = [[0], [1, 2], [3, 4, 5], [6, 7, 8, 9]]
        pattern = np.zeros((10, 10), dtype=bool)
        for p in pieces:  # a path through each piece, one triangle only
            for i, j in zip(p, p[1:]):
                pattern[i, j] = True
        perm = rng.permutation(10)
        labels = connected_pieces(pattern[perm][:, perm])
        # the label is the least index of the piece, after the permutation
        place = np.argsort(perm)
        for p in pieces:
            assert set(labels[place[p]].tolist()) == {place[p].min()}

    def test_joined_trees_take_the_least_root(self):
        # 1 has no neighbour below it and starts a tree of its own; the
        # entry (1, 2) joins it to the tree of 0 through 2
        pattern = np.zeros((4, 4), dtype=bool)
        pattern[0, 2] = pattern[1, 2] = True
        assert connected_pieces(pattern).tolist() == [0, 0, 0, 3]


def random_tridiagonal(rng, n):
    """A complex Hermitian tridiagonal matrix: its graph is a path, a tree."""
    off = rng.normal(size=n - 1) + 1j * rng.normal(size=n - 1)
    return np.diag(rng.normal(size=n)) + np.diag(off, -1) + np.diag(off.conj(), 1)


def assert_same_spectrum(g, h):
    assert np.all(np.abs(np.linalg.eigvalsh(g) - np.linalg.eigvalsh(h))
                  <= 1e-12 * np.linalg.norm(h, 2))


def reference_gauge(h):
    """D^* h D, dense, with d_j = d_i h_ji/|h_ji| for the least i < j with
    h_ji != 0 and d_j = 1 at a root, multiplied in the order the one-pass
    gauge uses: its bitwise oracle where every connected piece has one
    root."""
    nonzero = h != 0
    d = [1.0] * h.shape[0]
    for j, i in enumerate(nonzero.argmax(axis=1).tolist()):
        if i < j and nonzero[j, i]:
            p = d[i] * complex(h[j, i])
            d[j] = p / abs(p)
    phases = np.array(d, dtype=complex)
    g = h * phases.conj()[:, None]
    g *= phases
    return g


def split_spectrum(b, split):
    """The eigenvalues a split ``(even, odd, c, mu)`` with off-diagonal
    block ``b`` stands for, ascending: c +- hypot(mu, sigma_k(b)), c + mu
    for each unpaired even index and c - mu for each unpaired odd one."""
    even, odd, shift, mass = split
    sigma = singular_values(b) if b.size else np.zeros(0)
    root = np.hypot(mass, sigma)
    return np.sort(np.concatenate([shift + root, shift - root,
                                   np.full(even.size - sigma.size, shift + mass),
                                   np.full(odd.size - sigma.size, shift - mass)]))


def assert_gauged(h, m, split, deviation=0.0):
    """``gauge_split(h)`` gave the real reference gauge: the dense section
    with the eigenvalues of ``h``, or the off-diagonal block of a split
    whose ``split_spectrum`` is those eigenvalues.  ``deviation`` is the
    most the diagonal of ``h``, as the test built it, departs from the
    split's two levels; dropping it moves each eigenvalue by at most as
    much (Weyl's inequality)."""
    want = reference_gauge(h).real
    assert m.dtype == float
    if split is None:
        assert np.array_equal(m, want)
        assert_same_spectrum(m, h)
        return
    even, odd = split[:2]
    assert np.array_equal(m, want[np.ix_(even, odd)])
    assert np.all(np.abs(np.linalg.eigvalsh(h) - split_spectrum(m, split))
                  <= deviation + 1e-12 * np.linalg.norm(h, 2))


class TestRealGauge:
    """``gauge_split`` of a flux-free Hermitian matrix comes back real
    symmetric with the same eigenvalues; one with flux comes back as the
    same object."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_tree_comes_back_real(self, n, seed):
        h = random_tridiagonal(np.random.default_rng(seed), n)
        g, split = gauge_split(h)
        # the random diagonal is constant on a class only when each class
        # has one index
        assert (split is None) == (n > 2)
        assert g.dtype == float
        if split is None:
            assert np.allclose(np.abs(g), np.abs(h), rtol=1e-14, atol=0.0)  # a diagonal unitary
        assert_gauged(h, g, split)

    @settings(max_examples=20, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), mass=st.floats(0.1, 2.0),
           bounding=st.booleans(), c=st.floats(-0.5, 0.5), periods=st.integers(4, 6))
    # twists within the tolerance but above 1e-12 ||h||_2, the second also
    # above the leading block's tolerance
    @example(n=8, mass=1.0, bounding=False, c=6.32e-12, periods=4)
    @example(n=8, mass=0.125, bounding=False, c=6.32e-12, periods=4)
    def test_mass_doubled_ladder_comes_back_real(self, n, mass, bounding, c, periods):
        # purely imaginary hops on two rails and real mass rungs: every
        # plaquette product is real, so the section has no flux; a twist
        # puts +-c on the diagonal, alternating inside each class, and
        # without one, or with one within the tolerance, the section splits
        spin = SpinStructure.BOUNDING if bounding else SpinStructure.NONBOUNDING
        d = build_circle_dirac(n, Scheme.CENTRAL_DIFFERENCE, spin, c)
        s = period_symbol(mass_doubled(d.matrix, mass))
        h = finite_section(s, periods)
        g, split = gauge_split(h)
        assert (split is None) == (abs(c) > HERMITICITY_TOL * np.linalg.norm(h))
        # each class's diagonal is its level +- c
        assert_gauged(h, g, split, abs(c))
        # the gauge of a leading block is the leading block of the gauge
        rows = (periods - 1) * s.block_size
        lead_h = finite_section(s, periods - 1)
        lead, lead_split = gauge_split(lead_h)
        if split is None:
            assert lead_split is None and np.array_equal(g[:rows, :rows], lead)
            return
        even, odd = split[:2]
        even, odd = even[even < rows], odd[odd < rows]
        lead_b = g[:even.size, :odd.size]
        if lead_split is not None:
            assert np.array_equal(lead_b, lead)
            return
        # a twist within the whole section's tolerance but above the
        # smaller leading block's: the block keeps its real gauge, whose
        # even/odd block is the restricted one, and the restricted split
        # gives its eigenvalues up to the twist
        assert abs(c) > HERMITICITY_TOL * np.linalg.norm(lead_h)
        assert np.array_equal(lead[np.ix_(even, odd)], lead_b)
        assert_gauged(lead_h, lead_b, (even, odd) + tuple(split[2:]), abs(c))

    @settings(max_examples=40, deadline=None)
    @given(r1=st.floats(0.2, 2.0), r2=st.floats(0.2, 2.0), alpha=st.floats(0.0, 2 * math.pi),
           beta=st.floats(0.0, 2 * math.pi), periods=st.integers(6, 40))
    def test_flux_comes_back_unchanged(self, r1, r2, alpha, beta, periods):
        # each triangle i, i+1, i+2 carries the flux a * a * conj(b)
        assume(abs(math.sin(2 * alpha - beta)) > 0.1)
        a, b = r1 * np.exp(1j * alpha), r2 * np.exp(1j * beta)
        s = LaurentSymbol.scalar({0: 0.3, 1: a, -1: np.conj(a), 2: b, -2: np.conj(b)})
        assert s.hermitian_symmetric
        h = finite_section(s, periods)
        m, split = gauge_split(h)
        assert m is h and split is None
        sizes = (5, periods)
        sweep = fredholm_via_sections(s, sizes)
        assert sweep.sigma_min == tuple(float(sigma_min(finite_section(s, n), True))
                                        for n in sizes)

    def test_flux_on_a_split_keeps_the_complex_entries(self):
        # the square 0 - 1 - 2 - 3 - 0 with the flux i splits as {0, 2} | {1, 3}
        h = np.zeros((4, 4), dtype=complex)
        for i, j, v in [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1j)]:
            h[i, j], h[j, i] = v, np.conj(v)
        b, (even, odd, shift, mass) = gauge_split(h)
        assert even.tolist() == [0, 2] and odd.tolist() == [1, 3]
        assert shift == mass == 0.0
        assert b.dtype == complex and np.array_equal(b, h[np.ix_(even, odd)])

    def test_zero_rows_and_disconnected_blocks(self):
        rng = np.random.default_rng(3)
        h = np.zeros((9, 9), dtype=complex)
        h[:4, :4] = random_tridiagonal(rng, 4)
        h[5:, 5:] = random_tridiagonal(rng, 4)  # row and column 4 stay zero
        g, split = gauge_split(h)
        assert g.dtype == float and not g[4].any() and not g[:, 4].any()
        assert_gauged(h, g, split)
        zero, (even, odd, shift, mass) = gauge_split(np.zeros((3, 3), dtype=complex))
        assert zero.dtype == float and zero.shape == (3, 0) and shift == mass == 0.0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 30), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_tree_is_rooted_once(self, n, seed):
        # a random tree in a random index order: a piece whose first indices
        # are not joined among themselves starts as several trees, which the
        # pass joins, so the gauge is real and the split found whatever the
        # order
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        h = np.zeros((n, n), dtype=complex)
        for k in range(1, n):
            i, j = order[k], order[rng.integers(k)]
            h[i, j] = rng.normal() + 1j * rng.normal()
            h[j, i] = np.conj(h[i, j])
        b, split = gauge_split(h)
        assert split is not None and b.dtype == float
        even, odd, shift, mass = split
        assert shift == mass == 0.0
        assert not h[np.ix_(even, even)].any() and not h[np.ix_(odd, odd)].any()
        sigma = singular_values(b)
        zeros = np.zeros(abs(even.size - odd.size))
        want = np.sort(np.concatenate([sigma, -sigma, zeros]))
        assert np.all(np.abs(np.linalg.eigvalsh(h) - want) <= 1e-12 * np.linalg.norm(h, 2))

    @settings(max_examples=40, deadline=None)
    @given(block=st.integers(1, 3), bandwidth=st.integers(0, 2), extra=st.integers(0, 3),
           more=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
    def test_section_is_the_leading_block_of_longer_ones(self, block, bandwidth, extra, more,
                                                         seed):
        rng = np.random.default_rng(seed)
        s = LaurentSymbol({j: rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
                           for j in range(-bandwidth, bandwidth + 1)})
        n = 2 * bandwidth + 1 + extra
        rows = n * block
        assert np.array_equal(finite_section(s, n), finite_section(s, n + more)[:rows, :rows])


class TestBipartition:
    """Every nonzero off-diagonal entry of a matrix that ``gauge_split``
    splits joins an even and an odd index, and its diagonal is constant on
    each class within the tolerance; one off-diagonal entry inside a class,
    or a diagonal entry off its class's level, gives None."""

    @pytest.mark.parametrize("spin", [SpinStructure.BOUNDING, SpinStructure.NONBOUNDING])
    def test_ladder_gives_its_parity_classes(self, spin):
        # site j, component s of the mass-doubled chain is index 2j + s;
        # hops join sites j, j + 1 on one rail and the mass joins the rails
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, spin, 0.0)
        s = period_symbol(mass_doubled(d.matrix, 0.7))
        h = finite_section(s, 4)
        site, component = np.divmod(np.arange(h.shape[0]), 2)
        parity = (site + component) % 2
        b, split = gauge_split(h)
        even, odd, shift, mass = split
        assert np.array_equal(even, np.flatnonzero(parity == 0))
        assert np.array_equal(odd, np.flatnonzero(parity == 1))
        assert not h[np.ix_(even, even)].any() and not h[np.ix_(odd, odd)].any()
        assert shift == mass == 0.0
        assert_gauged(h, b, split)
        # the split of a leading block is the leading part of the split
        lead, (lead_even, lead_odd, _, _) = gauge_split(finite_section(s, 3))
        assert np.array_equal(lead_even, even[even < 48])
        assert np.array_equal(lead_odd, odd[odd < 48])
        assert np.array_equal(lead, b[:lead_even.size, :lead_odd.size])

    def test_nonzero_diagonal_gives_none(self):
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, SpinStructure.BOUNDING, 0.0)
        h = finite_section(period_symbol(mass_doubled(d.matrix, 0.7)), 3)
        assert gauge_split(h)[1] is not None
        # a diagonal entry within the tolerance of its class's level is
        # dropped as error, so the split stays
        h[5, 5] = 1e-300
        b, split = gauge_split(h)
        assert split is not None
        assert_gauged(h, b, split)
        # one beyond it leaves a diagonal that is not constant on its class
        h[5, 5] = 1e-3
        g, split = gauge_split(h)
        assert split is None
        assert_gauged(h, g, split)
        twisted = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, SpinStructure.BOUNDING, 0.3)
        assert gauge_split(finite_section(period_symbol(mass_doubled(twisted.matrix, 0.7)),
                                          3))[1] is None

    def test_triangle_gives_none(self):
        h = np.ones((3, 3), dtype=complex) - np.eye(3)
        g, split = gauge_split(h)
        assert split is None
        assert_gauged(h, g, split)
        h[0, 2] = h[2, 0] = 0.0  # cutting the edge 0 - 2 leaves the path 0 - 1 - 2
        b, split = gauge_split(h)
        assert split[0].tolist() == [0, 2] and split[1].tolist() == [1]
        assert_gauged(h, b, split)

    def test_zero_rows_and_disconnected_pieces(self):
        rng = np.random.default_rng(5)
        h = np.zeros((9, 9), dtype=complex)
        h[:4, :4] = random_tridiagonal(rng, 4)
        h[5:, 5:] = random_tridiagonal(rng, 4)  # row and column 4 stay zero
        h[np.diag_indices(9)] = 0.0
        b, split = gauge_split(h)
        # each piece and the zero row is rooted at its least index, which is even
        assert split[0].tolist() == [0, 2, 4, 5, 7] and split[1].tolist() == [1, 3, 6, 8]
        assert_gauged(h, b, split)
        b, (even, odd, _, _) = gauge_split(np.zeros((3, 3)))
        assert even.tolist() == [0, 1, 2] and odd.size == 0
        assert b.dtype == float and b.shape == (3, 0)

    def test_split_the_forest_used_to_miss_is_found(self):
        # the path 1 - 3 - 2 - 0 splits as {0, 3} | {1, 2}; 1 and 0 both start
        # trees of the forest, which the edge 2 - 3 joins into one piece
        # rooted at 0
        h = np.zeros((4, 4), dtype=complex)
        for i, j, v in [(0, 2, 2j), (1, 3, -1.0 + 1j), (2, 3, 3.0 - 4j)]:
            h[i, j], h[j, i] = v, np.conj(v)
        b, (even, odd, _, _) = gauge_split(h)
        assert even.tolist() == [0, 3] and odd.tolist() == [1, 2]
        # one phase per index makes every entry real and positive
        assert b.dtype == float
        assert np.allclose(b, [[0.0, 2.0], [math.sqrt(2.0), 5.0]], rtol=1e-15, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
    def test_split_spectrum_is_plus_minus_sigma(self, n, seed):
        # a path is a tree, so the forest finds its split; the eigenvalues
        # are +-sigma(B) and |len(even) - len(odd)| zeros
        h = random_tridiagonal(np.random.default_rng(seed), n)
        h[np.diag_indices(n)] = 0.0
        b, split = gauge_split(h)
        even, odd, shift, mass = split
        assert shift == mass == 0.0
        sigma = singular_values(h[np.ix_(even, odd)])
        zeros = np.zeros(abs(even.size - odd.size))
        want = np.sort(np.concatenate([sigma, -sigma, zeros]))
        assert np.all(np.abs(np.linalg.eigvalsh(h) - want) <= 1e-12 * np.linalg.norm(h, 2))
        assert_gauged(h, b, split)


    @settings(max_examples=80, deadline=None)
    @given(evens=st.integers(1, 9), odds=st.integers(0, 9),
           shift=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
           mass=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
           complex_hop=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_graded_spectrum_is_shift_plus_minus_root(self, evens, odds, shift, mass,
                                                      complex_hop, seed):
        # H = c I + mu Gamma + K with K joining only the two classes, in a
        # random index order: (H - c)^2 = mu^2 + K^2, so the eigenvalues are
        # c +- hypot(mu, sigma_k(B)) and c +- mu for the unpaired indices
        rng = np.random.default_rng(seed)
        n = evens + odds
        order = rng.permutation(n)
        up, down = order[:evens], order[evens:]
        hop = rng.normal(size=(evens, odds)) + (1j * rng.normal(size=(evens, odds))
                                                 if complex_hop else 0.0)
        h = np.zeros((n, n), dtype=complex)
        h[np.ix_(up, down)] = hop
        h[np.ix_(down, up)] = hop.conj().T
        h[up, up], h[down, down] = shift + mass, shift - mass
        b, split = gauge_split(h)
        assert split is not None
        even, odd = split[:2]
        assert {frozenset(even.tolist()), frozenset(odd.tolist())} <= {
            frozenset(up.tolist()), frozenset(down.tolist()), frozenset()}
        tol = 4 * n * np.finfo(float).eps * np.linalg.norm(h, 2)
        assert np.all(np.abs(np.linalg.eigvalsh(h) - split_spectrum(b, split)) <= tol)

    def test_diagonal_level_is_read_within_the_tolerance(self):
        # the ladder with its mass rungs, shifted by c and graded by mu: one
        # diagonal entry moved by delta widens its class's range by delta,
        # which the split drops as error up to 2 HERMITICITY_TOL ||h||_F
        d = build_circle_dirac(8, Scheme.CENTRAL_DIFFERENCE, SpinStructure.NONBOUNDING, 0.0)
        h = finite_section(period_symbol(mass_doubled(d.matrix, 0.7)), 3)
        even, odd = gauge_split(h)[1][:2]
        h[even, even], h[odd, odd] = 0.3 + 0.2, 0.3 - 0.2
        b, split = gauge_split(h)
        assert np.allclose(split[2:], (0.3, 0.2), rtol=1e-15, atol=0.0)
        assert_gauged(h, b, split)
        bound = HERMITICITY_TOL * np.linalg.norm(h)
        h[odd[3], odd[3]] += bound
        b, split = gauge_split(h)
        assert split is not None
        # the dropped deviation, bound/2 in each entry of the class, moves
        # each eigenvalue by at most as much (Weyl's inequality)
        err = np.abs(np.linalg.eigvalsh(h) - split_spectrum(b, split))
        assert np.all(err <= 0.5 * bound + 1e-12 * np.linalg.norm(h, 2))
        h[odd[3], odd[3]] += 3.0 * bound
        g, split = gauge_split(h)
        assert split is None
        assert_gauged(h, g, split)

class TestSingularValues:
    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_diagonal_absolute_values(self):
        assert np.allclose(singular_values(np.diag([3.0, -4.0])), [4.0, 3.0])

    def test_operator_norm_is_first(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        s = singular_values(m)
        assert abs(s[0] - np.linalg.norm(m, 2)) <= 1e-10 * s[0]

    def test_sigma_min_inverse_norm_oracle(self):
        rng = np.random.default_rng(6)
        m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
        m += 3.0 * np.eye(10)
        s = singular_values(m)
        oracle = 1.0 / np.linalg.norm(np.linalg.inv(m), 2)
        assert abs(s[-1] - oracle) < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sqrt_of_gram_eigenvalues(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        s = np.sort(singular_values(m))
        gram = hermitian_eigenvalues(m.conj().T @ m).eigenvalues
        assert np.max(np.abs(s - np.sqrt(np.clip(gram, 0, None)))) < 1e-9


class TestNumericKernelDim:
    def test_zero_matrix(self):
        assert numeric_kernel_dim(np.zeros((3, 3)), 1e-8) == 3

    def test_identity(self):
        assert numeric_kernel_dim(np.eye(4), 1e-8) == 0

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=5) + 1j * rng.normal(size=5)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        assert numeric_kernel_dim(np.outer(u, v.conj()), 1e-8) == 4

    def test_rejects_bad_tol(self):
        with pytest.raises(ContractViolation):
            numeric_kernel_dim(np.eye(2), 0.0)


E8_ROWS = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


class TestRationalLdlInertia:
    def test_hyperbolic_plane(self):
        assert rational_ldl_inertia([[0, 1], [1, 0]]) == Inertia(1, 1, 0)

    def test_e8_positive_definite(self):
        # floating-point cross-check that the lattice matrix really is
        # positive definite, then the exact route
        assert np.linalg.eigvalsh(np.array(E8_ROWS, dtype=float)).min() > 0
        assert rational_ldl_inertia(E8_ROWS) == Inertia(8, 0, 0)

    def test_diagonal_with_zero(self):
        assert rational_ldl_inertia([[1, 0, 0], [0, -1, 0], [0, 0, 0]]) == Inertia(1, 1, 1)

    def test_zero_form(self):
        assert rational_ldl_inertia([[0, 0], [0, 0]]) == Inertia(0, 0, 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ContractViolation):
            rational_ldl_inertia([[0, 1], [2, 0]])

    def test_rational_entries(self):
        half = Fraction(1, 2)
        inertia = rational_ldl_inertia([[half, 0], [0, -half]])
        assert inertia.signature == 0 and inertia.n_zero == 0

    @pytest.mark.parametrize("entry, exact", [
        (3, Fraction(3)), (True, Fraction(1)), (np.int64(-7), Fraction(-7)),
        (np.int32(5), Fraction(5)), (Fraction(3, 4), Fraction(3, 4)),
        ("3/4", Fraction(3, 4)), (0.5, Fraction(1, 2)), (np.float64(-0.25), Fraction(-1, 4)),
    ], ids=repr)
    def test_exact_entry_types(self, entry, exact):
        # every integer type numpy registers as numbers.Integral is read exactly
        got = _to_fraction(entry)
        assert type(got) is Fraction and got == exact
        form = [[entry, 1], [1, entry]]  # eigenvalues entry +- 1
        assert rational_ldl_inertia(form) == rational_ldl_inertia([[exact, 1], [1, exact]])

    @pytest.mark.parametrize("entry", [np.float32(0.5), 1j, np.complex128(1)], ids=repr)
    def test_rejects_inexact_entry_types(self, entry):
        with pytest.raises(ContractViolation, match="not exactly representable"):
            _to_fraction(entry)
        with pytest.raises(ContractViolation, match="not exactly representable"):
            rational_ldl_inertia([[entry, 1], [1, entry]])

    @pytest.mark.parametrize("entry", ["abc", "1/0", float("nan"), float("inf")], ids=repr)
    def test_rejects_non_rational_entries(self, entry):
        with pytest.raises(ContractViolation, match="not exactly representable"):
            _to_fraction(entry)
        with pytest.raises(ContractViolation, match="not exactly representable"):
            rational_ldl_inertia([[entry, 1], [1, entry]])

    @settings(max_examples=100, deadline=None)
    @given(diagonal=st.lists(st.integers(-3, 3), max_size=4),
           triangles=st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                                        st.integers(-2, 2)), max_size=3),
           steps=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                                    st.integers(-2, 2)), max_size=30))
    def test_congruent_to_known_inertia(self, diagonal, triangles, steps):
        # D is block diagonal: 1x1 integers, whose inertia is their sign,
        # and zero-diagonal 3x3 blocks [[0, a, b], [a, 0, c], [b, c, 0]]
        # (trace 0, det 2abc), whose inertia is (1, 2) for det > 0, (2, 1)
        # for det < 0, (1, 1) for a nonzero singular block and (0, 0) for
        # zero; the zero diagonals need 2x2 pivots.  By Sylvester's law
        # P^T D P has the same inertia for any unimodular integer P, here
        # a product of elementary matrices, which makes it dense.
        n = len(diagonal) + 3 * len(triangles)
        assume(n > 0)
        d = [[0] * n for _ in range(n)]
        for i, x in enumerate(diagonal):
            d[i][i] = x
        n_plus = sum(x > 0 for x in diagonal)
        n_minus = sum(x < 0 for x in diagonal)
        for k, (a, b, c) in enumerate(triangles):
            i = len(diagonal) + 3 * k
            d[i][i + 1] = d[i + 1][i] = a
            d[i][i + 2] = d[i + 2][i] = b
            d[i + 1][i + 2] = d[i + 2][i + 1] = c
            det = 2 * a * b * c
            n_plus += 2 if det < 0 else int(det > 0 or any((a, b, c)))
            n_minus += 2 if det > 0 else int(det < 0 or any((a, b, c)))
        p = [[int(i == j) for j in range(n)] for i in range(n)]
        for i, j, k in steps:
            i, j = i % n, j % n
            if i != j:  # P <- P (I + k e_i e_j^T): column j += k column i
                for row in p:
                    row[j] += k * row[i]
        s = [[sum(p[a][r] * d[a][b] * p[b][c] for a in range(n) for b in range(n))
              for c in range(n)] for r in range(n)]
        assert rational_ldl_inertia(s) == Inertia(n_plus, n_minus, n - n_plus - n_minus)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_unimodular_congruence_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        s = rng.integers(-4, 5, size=(n, n))
        s = s + s.T
        p = np.eye(n, dtype=int)
        for _ in range(12):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                e = np.eye(n, dtype=int)
                e[i, j] = rng.integers(-2, 3)
                p = p @ e
        assert abs(round(np.linalg.det(p.astype(float)))) == 1
        before = rational_ldl_inertia(s.tolist())
        after = rational_ldl_inertia((p.T @ s @ p).tolist())
        assert before == after
