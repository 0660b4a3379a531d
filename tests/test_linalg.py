import numpy as np
import pytest

from spinspec.errors import ContractViolation
from spinspec.linalg import (Inertia, hermitian_eigenvalues, numeric_kernel_dim,
                             rational_ldl_inertia, singular_values)


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
