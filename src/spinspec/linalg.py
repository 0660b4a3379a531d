"""Dense complex linear algebra and exact rational symmetric-form arithmetic.

Floating-point routines operate on square or rectangular complex matrices
at desk scale (dimension up to a few thousand).  The exact routines work
over arbitrary-precision rationals and never touch floating point; they
back every signature computation in the invariant layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .conventions import DEFAULT_TOL
from .errors import ContractViolation

__all__ = [
    "EigResult",
    "Inertia",
    "as_matrix",
    "hermitian_eigenvalues",
    "singular_values",
    "numeric_kernel_dim",
    "rational_ldl_inertia",
]


def as_matrix(m) -> np.ndarray:
    """Validate and convert to a 2-d complex array with finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.size == 0:
        raise ContractViolation("expected a nonempty 2-d matrix")
    if not np.all(np.isfinite(a)):
        raise ContractViolation("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class EigResult:
    """Eigenvalues sorted ascending plus the worst relative residual
    max_i ||M v_i - lambda_i v_i|| / ||M||_2 over the computed pairs."""

    eigenvalues: np.ndarray
    residual: float


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and zero pivots of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero


def _require_hermitian(a: np.ndarray, tol: float) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ContractViolation(f"matrix is {a.shape[0]}x{a.shape[1]}, not square")
    scale = np.linalg.norm(a, "fro")
    if scale > 0 and np.linalg.norm(a - a.conj().T, "fro") > max(tol, 1e-15) * scale:
        raise ContractViolation("matrix is not Hermitian within tolerance")
    return 0.5 * (a + a.conj().T)


def hermitian_eigenvalues(m, tol: float = DEFAULT_TOL) -> EigResult:
    """Eigenvalues of a Hermitian matrix, sorted ascending, from the
    library eigensolver, with the worst residual of the eigenpairs
    checked against ``tol``."""
    a = _require_hermitian(as_matrix(m), tol)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    norm = float(np.max(np.abs(vals))) if vals.size else 0.0
    if norm == 0.0:
        residual = 0.0
    else:
        residual = float(np.max(np.linalg.norm(a @ vecs - vecs * vals, axis=0)) / norm)
    if residual > max(tol, 1e-12):
        raise ContractViolation(f"eigen residual {residual:.3e} exceeds tolerance {tol:.3e}")
    return EigResult(eigenvalues=vals, residual=residual)


def singular_values(m) -> np.ndarray:
    """Singular values sorted descending; count = min(rows, cols)."""
    a = as_matrix(m)
    return np.linalg.svd(a, compute_uv=False)


def numeric_kernel_dim(m, tol: float = 1e-8) -> int:
    """Number of singular values below ``tol * sigma_max``.

    A matrix that is numerically zero (all singular values vanish) reports
    full kernel dimension: sigma_max is taken as 1 in that case.
    """
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    s = singular_values(m)
    smax = float(s[0]) if s.size and s[0] > 0 else 1.0
    return int(np.count_nonzero(s < tol * smax))


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value
    raise ContractViolation(f"entry {x!r} is not exactly representable as a rational")


def rational_ldl_inertia(s: Sequence[Sequence]) -> Inertia:
    """Inertia of an exact symmetric matrix by pivoted LDL over rationals.

    Pivoting: largest-magnitude diagonal entry; when every active diagonal
    vanishes, a 2x2 off-diagonal block pivot (needed for even forms such as
    the hyperbolic plane).  Sylvester's law makes the pivot signs an
    invariant, so ``signature`` is exact.  Singular forms are fine; the
    defect is reported in ``n_zero``.
    """
    rows = [[_to_fraction(x) for x in row] for row in s]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ContractViolation("expected a nonempty square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise ContractViolation("matrix is not exactly symmetric")

    a = {(i, j): rows[i][j] for i in range(n) for j in range(n)}
    active = list(range(n))
    n_plus = n_minus = 0
    while active:
        piv = max(active, key=lambda i: abs(a[i, i]))
        if a[piv, piv] != 0:
            d = a[piv, piv]
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(piv)
            # rows and columns with a zero multiplier are left unchanged
            col = [(i, a[i, piv]) for i in active if a[i, piv] != 0]
            for i, ci in col:
                m = ci / d
                for j, cj in col:
                    a[i, j] -= m * cj
            continue
        # all active diagonals vanish: look for a 2x2 block pivot
        best = None
        best_abs = Fraction(0)
        for ii, i in enumerate(active):
            for j in active[ii + 1:]:
                if abs(a[i, j]) > best_abs:
                    best, best_abs = (i, j), abs(a[i, j])
        if best is None:
            break  # active block is identically zero
        i, j = best
        b = a[i, j]
        # [[0, b], [b, 0]] has eigenvalues +-|b|
        n_plus += 1
        n_minus += 1
        active.remove(i)
        active.remove(j)
        cols = [(k, a[k, i], a[k, j]) for k in active if a[k, i] != 0 or a[k, j] != 0]
        for k, ki, kj in cols:
            for l, li, lj in cols:
                a[k, l] -= (ki * lj + kj * li) / b
    return Inertia(n_plus=n_plus, n_minus=n_minus, n_zero=n - n_plus - n_minus)
