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

from .conventions import DEFAULT_TOL, HERMITICITY_TOL
from .errors import ContractViolation

__all__ = [
    "EigResult",
    "Inertia",
    "as_matrix",
    "is_hermitian",
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
    max_i ||M v_i - lambda_i v_i|| / ||M||_2 over the computed pairs; for
    a stack, one row of eigenvalues per block and the worst block's
    residual."""

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


def _within_hermiticity_tol(x: np.ndarray, adjoint: np.ndarray, axis=None):
    """The Hermiticity inequality ||x - x^H||_F <= HERMITICITY_TOL * ||x||_F,
    given ``adjoint`` = x^H: over all of ``x``, or one verdict per block
    with ``axis=(-2, -1)``."""
    return (np.linalg.norm(x - adjoint, axis=axis)
            <= HERMITICITY_TOL * np.linalg.norm(x, axis=axis))


def is_hermitian(x: np.ndarray) -> bool:
    """The Hermiticity rule: ||x - x^H||_F <= HERMITICITY_TOL * ||x||_F,
    so a zero matrix passes.

    A (k, N, N) stack stands for the block anti-diagonal matrix with x[i]
    in block row i, whose adjoint is the reversed stack of block adjoints;
    the stack A_{-d}, ..., A_d of a Laurent symbol passes exactly when
    A_{-j} = A_j^H for every j.
    """
    blocks = x.reshape(-1, *x.shape[-2:])  # a matrix is a one-block stack
    adjoint = blocks[::-1].conj().swapaxes(-1, -2)
    return bool(_within_hermiticity_tol(blocks, adjoint))


def _square_blocks(m) -> np.ndarray:
    """``m`` as a complex matrix or (k, N, N) stack whose blocks are
    nonempty, finite and square.  A sequence of matrices of different
    shapes is checked block by block, so a bad block gets the message it
    gets on its own."""
    try:
        a = np.asarray(m, dtype=complex)
    except ValueError:
        if not isinstance(m, (list, tuple)):
            raise
        for block in m:
            _square_blocks(block)
        raise ContractViolation("stacked matrices must share one shape") from None
    if a.ndim == 3:  # nonempty and finite, checked on the stacked block rows
        as_matrix(a.reshape(a.shape[0] * a.shape[1], a.shape[2]))
    else:
        a = as_matrix(a)
    if a.shape[-2] != a.shape[-1]:
        raise ContractViolation(f"matrix is {a.shape[-2]}x{a.shape[-1]}, not square")
    return a


def hermitian_eigenvalues(m) -> EigResult:
    """Eigenvalues of a Hermitian matrix (``is_hermitian``), sorted
    ascending, from the library eigensolver, with the worst residual of
    the eigenpairs checked against ``DEFAULT_TOL``.

    A (k, N, N) stack, or a list of k N x N matrices, is solved in one
    batched call: ``eigenvalues`` is then (k, N), each row exactly what
    the block gives on its own, and ``residual`` the worst block's.  Every
    block passes the checks a single matrix does -- finite, square,
    Hermitian and within the residual tolerance -- or the stack is
    rejected with that block's message.
    """
    a = _square_blocks(m)
    adjoint = a.conj().swapaxes(-1, -2)
    if not _within_hermiticity_tol(a, adjoint, axis=(-2, -1)).all():
        raise ContractViolation("matrix is not Hermitian within tolerance")
    a = 0.5 * (a + adjoint)
    vals, vecs = np.linalg.eigh(a)  # ascending
    norm = np.max(np.abs(vals), axis=-1)
    err = np.max(np.linalg.norm(a @ vecs - vecs * vals[..., None, :], axis=-2), axis=-1)
    residual = float(np.max(np.divide(err, norm, out=np.zeros_like(err), where=norm > 0)))
    if residual > DEFAULT_TOL:
        raise ContractViolation(f"eigen residual {residual:.3e} exceeds tolerance {DEFAULT_TOL:.3e}")
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
