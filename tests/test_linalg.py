import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _corpus import numeric_kernel_dim, singular_values
from spinspec.discretize import DiscreteDirac, Scheme
from spinspec.errors import ContractViolation
from spinspec.floquet import LaurentSymbol
from spinspec.linalg import Inertia, hermitian_eigenvalues, rational_ldl_inertia, sigma_min
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
        from fractions import Fraction
        half = Fraction(1, 2)
        inertia = rational_ldl_inertia([[half, 0], [0, -half]])
        assert inertia.signature == 0 and inertia.n_zero == 0

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
