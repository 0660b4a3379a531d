"""Dense complex linear algebra.

The routines operate on square complex matrices, or stacks of them, at
desk scale (dimension up to a few thousand).  Every Frobenius or
Euclidean norm is ``frobenius_norm``, which scales before it squares, and
the one Hermiticity rule, ``hermiticity_holds``, is written on it, so a
matrix multiplied by 2^k keeps its verdicts.  ``gauge_split`` reads the
nonzero entries of a Hermitian matrix once: through one forest that
roots each connected piece of its graph once, it gauges a flux-free one
into a real symmetric one with the same eigenvalues, whose eigensolve
costs about a third as much, and finds the even/odd split of one whose
nonzero off-diagonal entries all join the two classes and whose diagonal
is constant on each class, c + mu and c - mu, up to a deviation within
the Hermiticity tolerance that counts as error.  It returns the
off-diagonal block B of half the rows with c and mu: the matrix's
eigenvalues are c +- sqrt(mu^2 + sigma(B)^2) and c +- mu for the
unpaired indices.  ``connected_pieces`` labels the pieces of a nonzero
pattern through the same forest.  ``sigma_min`` is the one
smallest-singular-value solve of a symbol stack: ``eigvalsh`` for a
Hermitian operand, the SVD otherwise, and |a| for a 1 x 1 block.  The
exact rational LDL inertia lives in the numpy-free ``exact`` module;
``Inertia`` and ``rational_ldl_inertia`` are re-exported here under their
public names.
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
    "frobenius_norm",
    "hermiticity_holds",
    "is_hermitian",
    "gauge_split",
    "connected_pieces",
    "hermitian_eigenvalues",
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


def frobenius_norm(x, axis=None):
    """||x||_F of an array, or with ``axis`` the norm over those axes of
    each block of ``x``, for finite entries anywhere in the double range
    whose norm is a double (Blue's remedy, ACM TOMS 4, 1978): each block's
    |entries| are multiplied by 2^-e, 2^(e - 1) <= their largest < 2^e
    (e >= -1021), before they are squared, and the root by 2^e.  Scaling
    by a power of two is exact, so x 2^k has norm 2^k ||x||_F.  An empty
    or zero x has norm 0, and a vector's norm is its Euclidean norm.  The
    squares are summed by numpy, not by a BLAS dot, whose threads can take
    milliseconds to wake for one matrix."""
    mag = np.abs(x)
    # 2^-e is a double too: 2^-1024 is subnormal but exact
    e = np.frexp(mag.max(axis, keepdims=True, initial=2.0 ** -1022))[1]
    mag *= np.ldexp(1.0, -e)
    return np.ldexp(np.sqrt(np.square(mag, out=mag).sum(axis)), np.squeeze(e, axis))


def hermiticity_holds(x, defect, axis=None):
    """The one Hermiticity rule, ||x - x^*||_F <= HERMITICITY_TOL *
    ||x||_F on ``frobenius_norm``, given the ``defect`` x - x^* (or its
    negative) against the adjoint x^* that x must equal: x^H for a matrix,
    the mirrored block adjoints for the stack of a Laurent symbol's
    coefficients.  Only the two norms enter, so either argument may be
    any array with the same norm, such as the norms of its blocks.  A zero
    x passes, and x 2^k keeps the verdict of x.  With ``axis``, one
    verdict per block."""
    return frobenius_norm(defect, axis) <= HERMITICITY_TOL * frobenius_norm(x, axis)


def is_hermitian(x) -> bool:
    """The Hermiticity rule (``hermiticity_holds``) for one square matrix
    against its adjoint."""
    a = np.asarray(x)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractViolation("is_hermitian takes one square matrix")
    return bool(hermiticity_holds(a, a - a.conj().T))


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
    if not np.all(hermiticity_holds(a, a - adjoint, axis=(-2, -1))):
        raise ContractViolation("matrix is not Hermitian within tolerance")
    a = 0.5 * a + 0.5 * adjoint  # a sum of halves: no entry overflows
    vals, vecs = np.linalg.eigh(a)  # ascending
    norm = np.max(np.abs(vals), axis=-1)
    err = np.max(frobenius_norm(a @ vecs - vecs * vals[..., None, :], axis=-2), axis=-1)
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

    A 1 x 1 block is answered without a solve: |a|, or |Re a| with
    ``hermitian``, the real diagonal that ``eigvalsh`` reads.
    """
    if a.shape[-1] == 1:
        return np.abs(a.real if hermitian else a)[..., 0, 0]
    if hermitian:
        return np.abs(np.linalg.eigvalsh(a)).min(axis=-1)
    return np.linalg.svd(a, compute_uv=False)[..., -1]


def gauge_split(h: np.ndarray):
    """One pass over the nonzero entries of a Hermitian matrix ``h``: a
    real gauge when it carries no flux, and the even/odd split when every
    nonzero off-diagonal entry joins two classes on which the diagonal is
    constant.  Returns ``(m, split)``.

    The graph of ``h`` (an edge per nonzero off-diagonal entry, either
    triangle) is spanned by a forest in which index j takes as parent its
    first nonzero neighbour i < j, h_ji != 0; a connected piece whose first
    indices are not joined among themselves starts as several trees, and
    those are joined through the entries between them, so that each piece
    ends up rooted once, at its least index.  Along the forest
    d_j = d_i h_ji/|h_ji| makes the gauged entry conj(d_j) h_ji d_i =
    |h_ji| real (a joined tree takes one constant phase that does the same
    for its joining entry), and the depth parities give the classes.  The
    diagonal unitary D is accepted when G = D^* h D passes the Hermiticity
    rule, 2 ||Im G||_F <= HERMITICITY_TOL * ||h||_F over the nonzero
    entries: h carries no flux (every cycle product h_ij h_jk ... h_li is
    real), as in the sections of the mass-doubled central-difference
    operator, and with flux no diagonal D makes h real.  D is unitary, so
    G has the eigenvalues of h, and dropping Im G moves each by at most
    ||Im G||_2 <= HERMITICITY_TOL/2 * ||h||_F (Weyl's inequality).

    A real ``h`` is its own real gauge, D = I, and is not gauged.

    The split holds when no nonzero off-diagonal entry joins two indices
    of one class, read off the exact zero pattern with no tolerance (an
    odd cycle breaks it), and the diagonal's real part, which ``eigvalsh``
    reads, is c + mu on the even and c - mu on the odd class up to a
    deviation of at most HERMITICITY_TOL * ||h||_F in every entry.  Each
    class's level is the midpoint of its diagonal range, which a constant
    class hits exactly.  The deviation is a diagonal matrix of that
    2-norm, and dropping it moves each eigenvalue by at most as much
    (Weyl's inequality), as dropping Im G does.  After a permutation h is
    then c I + mu Gamma + K, Gamma = +-1 on the two classes and
    K = [[0, B], [B^H, 0]]; Gamma anticommutes with K, so
    (h - c)^2 = mu^2 + K^2 and the eigenvalues are
    c +- sqrt(mu^2 + sigma_k(B)^2), one pair per singular value of B,
    c + mu for each further even index and c - mu for each further odd
    one.

    With a split, ``split`` is ``(even, odd, c, mu)``, the ascending index
    arrays and the two floats, and ``m`` is B = G[even][:, odd], real
    without flux and h[even][:, odd] otherwise.  Without one, ``split`` is
    None and ``m`` is G.real, or ``h`` itself, the same object, when ``h``
    is real or carries flux.  B reads each Hermitian pair of entries
    once, as one triangle does.

    A leading principal block of ``h`` takes the restriction of this D and
    of these classes: a restricted real gauge is still real, a restricted
    2-colouring is still proper, and a restricted diagonal deviates from
    c +- mu by no more.  So the leading m x m block of G.real, and the
    leading r x c block of B with r and c the even and odd indices below
    m, serve the leading m x m block of ``h`` within the tolerance of
    ``h``.  Where no trees were joined, every parent precedes its child,
    and the restricted gauge is exactly the leading block's own.  Its own
    split may differ: its smaller ||.||_F can refuse a diagonal deviation
    that this one accepts, and it then comes back unsplit, its real gauge
    holding the restricted B as its even/odd block.
    """
    real = np.isrealobj(h)
    h = np.ascontiguousarray(h, dtype=float if real else complex)
    n = h.shape[0]
    rows, cols, values, d, parity, _ = _forest(h)
    # G is real when the Hermiticity rule holds for G against conj(G), as
    # G - conj(G) = 2i Im G and ||G||_F = ||h||_F; the last row of G, tested
    # first against the same bound on 2 ||Im G||_F, can refute it
    bound = HERMITICITY_TOL * frobenius_norm(values)
    entries = values  # a real h is its own real gauge, D = I
    if not real:
        phases = np.array(d, dtype=complex)
        last = slice(int(np.searchsorted(rows, n - 1)), None)
        if 2.0 * frobenius_norm((values[last] * phases[cols[last]] * d[-1].conjugate()).imag) <= bound:
            g = values * phases.conj()[rows] * phases[cols]
            if hermiticity_holds(g, g - g.conj()):
                entries = g.real
    parity = np.array(parity)
    levels = None
    if not ((parity[rows] == parity[cols]) & (rows != cols)).any():
        levels = _class_levels(h.diagonal().real, parity, bound)
    if levels is None:
        if entries is values:
            return h, None
        m = np.zeros((n, n))
        m[rows, cols] = entries
        return m, None
    even, odd = np.flatnonzero(~parity), np.flatnonzero(parity)
    place = np.empty(n, dtype=int)  # each index's place in its class
    place[even], place[odd] = np.arange(even.size), np.arange(odd.size)
    top = ~parity[rows] & parity[cols]
    b = np.zeros((even.size, odd.size), dtype=entries.dtype)
    b[place[rows[top]], place[cols[top]]] = entries[top]
    return b, (even, odd) + levels


def _class_levels(diagonal: np.ndarray, parity: np.ndarray, bound: float):
    """``(c, mu)`` with ``diagonal`` within ``bound`` of c + mu on the even
    and c - mu on the odd indices (``parity``) in every entry, from the
    midpoints of the two ranges; None when a range is wider than 2 bound.
    An empty class takes the other's level, so mu is then 0."""
    levels = []
    for members in (diagonal[~parity], diagonal[parity]):
        if members.size:
            lo, hi = members.min(), members.max()
            if hi - lo > 2.0 * bound:
                return None
            levels.append(lo + 0.5 * (hi - lo))
    up, down = levels[0], levels[-1]
    return float(0.5 * (up + down)), float(0.5 * (up - down))


def _forest(h: np.ndarray):
    """The forest of ``gauge_split`` over the graph of a real or complex
    matrix ``h`` whose nonzero pattern is symmetric.  Returns the row-major
    rows, columns and values of its nonzero entries, and for each index the
    phase d, the depth parity and the root: the least index of its
    connected piece."""
    n = h.shape[0]
    if h.dtype == complex:
        # an entry is nonzero when either of its two float halves is: each
        # pair of bools is tested at once as one uint16
        nonzero = (h.view(float) != 0).view(np.uint16) != 0
    else:
        nonzero = h != 0
    flat = np.flatnonzero(nonzero)
    rows, cols = np.divmod(flat, n)
    values = h.ravel()[flat]
    first = nonzero.argmax(axis=1)  # each row's least column, 0 for a zero row
    index = np.arange(n)
    tree = np.flatnonzero((first < index) & nonzero[index, first])
    d, parity, root = [1.0] * n, [False] * n, list(range(n))
    for j, i, v in zip(tree.tolist(), first[tree].tolist(), h[tree, first[tree]].tolist()):
        p = d[i] * v
        d[j] = p / abs(p)
        parity[j] = not parity[i]
        root[j] = root[i]
    roots = np.array(root)
    cross = np.flatnonzero(roots[rows] != roots[cols])
    if cross.size:
        _join_trees(d, parity, root, rows[cross].tolist(), cols[cross].tolist(),
                    values[cross].tolist())
    return rows, cols, values, d, parity, root


def connected_pieces(pattern: np.ndarray) -> np.ndarray:
    """The connected pieces of the graph of a square boolean ``pattern``,
    an edge per True entry of either triangle, through the forest of
    ``gauge_split``: each index's label is the least index of its piece."""
    return np.array(_forest((pattern | pattern.T).astype(float))[-1])


def _join_trees(d: list, parity: list, root: list, rows: list, cols: list, values: list):
    """Join the trees of ``gauge_split``'s forest that nonzero entries
    (rows[k], cols[k]) with ``values`` link, in place: from the least root
    of each connected piece outwards, a tree reached through an entry takes
    the constant phase that makes that entry's gauged value real and
    positive, and flips its parities when the entry joins one class; its
    indices take that least root as theirs."""
    links = {}
    for r, c, v in zip(rows, cols, values):
        e = d[r].conjugate() * v * d[c]
        same = parity[r] == parity[c]
        links.setdefault(root[r], []).append((root[c], e.conjugate(), same))
        links.setdefault(root[c], []).append((root[r], e, same))
    turn = {}  # tree root -> (phase, flip, least root of its piece)
    for start in sorted(links):
        if start in turn:
            continue
        turn[start] = (1.0, False, start)
        stack = [start]
        while stack:
            a = stack.pop()
            phase, flip, _ = turn[a]
            for b, e, same in links[a]:
                if b not in turn:
                    p = phase * e
                    turn[b] = (p / abs(p), flip != same, start)
                    stack.append(b)
    for j, t in enumerate(root):
        if t in turn:
            phase, flip, root[j] = turn[t]
            d[j] *= phase
            parity[j] = parity[j] != flip
