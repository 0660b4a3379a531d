"""Dense complex linear algebra.

The routines operate on square complex matrices, or stacks of them, at
desk scale (dimension up to a few thousand).  Two helpers read the
graph of a Hermitian matrix through one forest (``_forest``):
``real_gauge`` turns a flux-free one into a real symmetric one with the
same eigenvalues, whose eigensolve costs about a third as much, and
``bipartition`` finds the even/odd split of one whose nonzero entries
all join the two classes, so that its eigenvalues are +-sigma of one
off-diagonal block of half the rows.  The exact
rational LDL inertia lives in the numpy-free ``exact`` module; ``Inertia`` and
``rational_ldl_inertia`` are re-exported here under their public names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conventions import DEFAULT_TOL, HERMITICITY_TOL
from .errors import ContractViolation
from .exact import Inertia, rational_ldl_inertia

__all__ = [
    "EigResult",
    "Inertia",
    "as_matrix",
    "is_hermitian",
    "bipartition",
    "hermitian_eigenvalues",
    "real_gauge",
    "sigma_min",
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


def sigma_min(a: np.ndarray, hermitian: bool):
    """Least singular value of a square matrix, or of each block of a
    (k, N, N) stack: the last singular value from ``svd``.

    With ``hermitian`` it is min |lambda| from ``eigvalsh``, which reads
    only the lower triangle (and the real diagonal) of each block, so no
    symmetrised copy is built.  That triangle defines a Hermitian H with
    ||H - a||_F <= ||a - a^H||_F, and by Weyl's inequality the result
    errs from sigma_min(a) by at most that defect besides rounding.
    """
    if hermitian:
        return np.abs(np.linalg.eigvalsh(a)).min(axis=-1)
    return np.linalg.svd(a, compute_uv=False)[..., -1]


def _forest(nonzero: np.ndarray) -> list:
    """The first-nonzero-neighbour forest on the graph of a square zero
    pattern: index j's parent is the least i < j with ``nonzero[j, i]``,
    and -1 marks a root, an index with no such neighbour.  Every parent
    precedes its child, so the forest of a leading principal block is the
    restriction of the whole one's."""
    first = nonzero.argmax(axis=1)  # 0 for a zero row
    rows = np.arange(first.size)
    return np.where((first < rows) & nonzero[rows, first], first, -1).tolist()


def bipartition(h: np.ndarray):
    """The (even, odd) split of a square matrix ``h``: two ascending index
    arrays such that every nonzero entry of ``h``, the diagonal included,
    joins an even and an odd index; None when one nonzero entry joins two
    indices of one class.

    The classes are the depth parities in the first-nonzero-neighbour
    forest that ``real_gauge`` takes its phases from, and the verdict
    reads the exact zero pattern, with no tolerance.  A nonzero diagonal
    entry or an odd cycle gives None; so does a split the forest misses
    (a connected piece with two roots of opposite classes), which costs
    only speed.  Every parent precedes its child, so the indices below m
    are the split of the leading m x m block.  A Hermitian ``h`` is
    [[0, B], [B^H, 0]] after a permutation, B = h[np.ix_(even, odd)], with
    the eigenvalues +-sigma(B) and |len(even) - len(odd)| zeros.
    """
    nonzero = h != 0
    parity = [False] * nonzero.shape[0]
    for j, i in enumerate(_forest(nonzero)):
        if i >= 0:
            parity[j] = not parity[i]
    odd = np.array(parity)
    if (nonzero & (odd[:, None] == odd)).any():
        return None
    return np.flatnonzero(~odd), np.flatnonzero(odd)


def real_gauge(h: np.ndarray) -> np.ndarray:
    """Re(D^* h D) for a Hermitian matrix ``h`` when a diagonal unitary D
    makes D^* h D real within the Hermiticity rule; ``h`` itself, the
    same object, otherwise.

    D comes from the first-nonzero-neighbour forest on the graph of ``h``
    (``_forest``): index j takes as parent its first nonzero neighbour
    i < j, and d_j = d_i h_ji/|h_ji| makes the gauged entry
    conj(d_j) h_ji d_i = |h_ji| real; a root has d_j = 1.  G = D^* h D is
    accepted when ||G - conj(G)||_F <= HERMITICITY_TOL * ||G||_F.  That
    holds when h carries no flux (every cycle product h_ij h_jk ... h_li
    is real) and each connected piece of the graph has one root, as in the
    sections of the mass-doubled central-difference operator; with flux no
    diagonal D makes h real.  D is unitary, so G
    has the eigenvalues of h, and dropping Im G moves each by at most
    ||Im G||_2 <= HERMITICITY_TOL/2 * ||h||_F (Weyl's inequality).  Every
    parent precedes its child, so a leading principal block of the result
    is the same gauge of the leading block of ``h``.  When the forest
    misses a gauge that exists, ``h`` comes back and only speed is lost.

    The real solve costs about a third of the complex one: ``eigvalsh``
    of those sections at 256, 384 and 512 rows took 1.4, 3.7 and 7.0 ms
    against 4.0, 12.4 and 24.4 ms, and the gauge 0.34, 0.50 and 0.85 ms
    (medians, 2 cores, default OpenBLAS threads).  The last row of G is
    tested before G is built, which rejects a dense 512-row section with
    flux in 0.36 ms.
    """
    d = [1.0] * h.shape[0]
    parents = _forest(h != 0)
    for j, (i, v) in enumerate(zip(parents, h[np.arange(len(d)), parents].tolist())):
        if i >= 0:
            p = d[i] * v
            d[j] = p / abs(p)
    phases = np.array(d, dtype=complex)
    # G - conj(G) = 2i Im G exactly and ||G||_F = ||h||_F, so this bound is
    # the Hermiticity rule; any part of G, its last row first, can refute it
    bound = HERMITICITY_TOL * np.linalg.norm(h)
    if 2.0 * np.linalg.norm((h[-1] * phases * phases[-1].conjugate()).imag) > bound:
        return h
    g = h * phases.conj()[:, None]
    g *= phases
    if 2.0 * np.linalg.norm(g.imag) <= bound:
        return g.real.copy()
    return h
