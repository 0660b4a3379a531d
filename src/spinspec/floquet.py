"""Symbol-level Fredholm analysis of periodic and end-periodic lattice
operators.

A banded block Laurent symbol A(z) = sum_j A_j z^j stands for the doubly
infinite block-banded operator with blocks A_{j-i}.  The full-line
operator is Fredholm exactly when A(z) is invertible for every z on the
unit circle; the half-line compression is then Fredholm with index equal
to minus the winding number of det A(z).

``symbol_eval`` is the one evaluator; scans build symbol stacks in
chunks of at most ``_CHUNK_BYTES`` for batched calls.  Every sigma_min of
a stack or a point comes from ``linalg.sigma_min``: a Hermitian
eigensolve for a Hermitian-symmetric symbol, whose A(z) is Hermitian on
the circle, the SVD otherwise.  A symbol whose coefficients' nonzero
patterns fall into several connected pieces, found on its first scan, is
a direct sum: the scans solve each A(z) piece by piece, pieces of one
size as one stack and a 1 x 1 piece as |a|.  The
circle minimum of sigma_min(A(z)) is a Lipschitz branch-and-bound
(Piyavskii; Shubert) with a certified lower bound, polished by one Brent
search; the index runs the same loop as a decision, which splits arcs
only until each clears the tolerance and makes no polish, and settles an
arc it leaves open, or a bound that certifies no count, with one minimum
scan, keeping the larger bound.
The zeros of det A(z) come from one solve and one eigensolve of a block
companion matrix (``_symbol_zeros``): the half-line index counts those
in the unit disc (``_winding_index``), certified through the scan's
lower bound, and the twist-loop crossings of a Hermitian-symmetric
symbol are those on the circle (``twist_crossings``).  A section sweep
solves its shorter sections as leading blocks of the longest, in real
arithmetic when a Hermitian section carries no flux.  When its graph
splits into even and odd indices with the diagonal constant on each,
c +- mu (both from one pass, ``linalg.gauge_split``), the eigenvalues
are c +- sqrt(mu^2 + sigma(B)^2) from the off-diagonal block B, with half
the rows; a Hermitian B is split the same way in turn, so a mass-doubled
section at twist 0 takes one SVD per size of a block with a quarter of
its rows.  A Hermitian block that does not split takes one ``eigvalsh``
per size, any other block one SVD.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .conventions import (CIRCLE_GRID, CLIFFORD_SIGN, FREDHOLM_TOL, INDEX_SIGN, REFINE_TOL,
                          floquet_to_twist)
from .errors import ContractViolation, DegenerateCrossing, check_tolerance
from .linalg import (connected_pieces, gauge_split, hermitian_eigenvalues, is_hermitian,
                     sigma_min)
from .spectra import SpectrumSample, spectra_match

__all__ = [
    "LaurentSymbol",
    "CircleMinimum",
    "FredholmReport",
    "SectionSweep",
    "SpectralFlowResult",
    "symbol_eval",
    "min_singular_on_circle",
    "is_fredholm",
    "toeplitz_index",
    "finite_section",
    "fredholm_via_sections",
    "spectral_flow",
    "twist_crossings",
]

_CHUNK_BYTES = 2 * 1024 * 1024  # largest symbol stack one batched scan call holds
_START_GRID = 32  # uniform points of the circle scan's first round
# the points a of the disc map z = (w + a)/(1 + a' w), the second where the first fails
_MOBIUS = (0.5 * cmath.exp(1j), 0.5 * cmath.exp(-2j))


class LaurentSymbol:
    """Banded block coefficients A_j, j in [-d, d], of a symbol A(z).

    ``coeffs`` maps integer offsets to square blocks of one common size;
    missing offsets are zero.  ``hermitian_symmetric`` is set when
    A_{-j} = A_j^* for all j, which makes A(z) Hermitian on |z| = 1; the
    blocks A_{-d}, ..., A_d are checked as one stack by ``is_hermitian``.
    """

    def __init__(self, coeffs: Mapping[int, object]):
        if len({int(j) for j in coeffs if isinstance(j, numbers.Integral)}) != len(coeffs):
            raise ContractViolation("symbol offsets must be distinct integers")
        blocks, size = {}, None
        for j, raw in coeffs.items():
            a = np.atleast_2d(np.asarray(raw, dtype=complex))
            if a.shape[0] != a.shape[1]:
                raise ContractViolation("symbol blocks must be square")
            size = a.shape[0] if size is None else size
            if a.shape[0] != size:
                raise ContractViolation("symbol blocks must share one size")
            if not np.all(np.isfinite(a)):
                raise ContractViolation("symbol blocks must be finite")
            if np.any(a):
                blocks[int(j)] = a
        if not blocks:
            raise ContractViolation("symbol needs at least one nonzero coefficient")
        self.coeffs = blocks
        self.block_size = size
        # Vandermonde form of the evaluation: A(z) = [z^j]_j @ stacked rows
        self._offsets = np.array(sorted(blocks))
        self._stacked = np.stack([blocks[j].reshape(-1) for j in sorted(blocks)])
        self.bandwidth = max(abs(j) for j in blocks)
        self.hermitian_symmetric = is_hermitian(
            [self.coeff(j) for j in range(-self.bandwidth, self.bandwidth + 1)])

    @classmethod
    def scalar(cls, coeffs: Mapping[int, complex]) -> "LaurentSymbol":
        return cls({j: [[v]] for j, v in coeffs.items()})

    def coeff(self, j: int) -> np.ndarray:
        a = self.coeffs.get(j)
        if a is None:
            return np.zeros((self.block_size, self.block_size), dtype=complex)
        return a

    @functools.cached_property
    def _pieces(self) -> Optional[list]:
        """The connected pieces of the union of the coefficients' nonzero
        patterns (``linalg.connected_pieces``), found when first asked for
        (sections never ask): None for one piece, and otherwise one
        (count, size) index array per piece size, each row the ascending
        indices p of one piece.  A(z) is then the direct sum of its blocks
        A(z)[p][:, p] at every z."""
        n = self.block_size
        pattern = (self._stacked != 0).any(axis=0).reshape(n, n)
        if pattern.all():  # a dense symbol is one piece
            return None
        labels = connected_pieces(pattern)
        if not labels.any():
            return None
        order = np.argsort(labels, kind="stable")
        _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
        by_size = {}
        for start, size in zip(starts.tolist(), sizes.tolist()):
            by_size.setdefault(size, []).append(order[start:start + size])
        return [np.array(rows) for _, rows in sorted(by_size.items())]

    @functools.cached_property
    def _norms(self) -> dict:
        """||A_j||_2 of each coefficient with j != 0, computed when first
        asked for (sections never ask): one SVD each for a one-piece
        symbol, and otherwise the largest over the pieces of A_j, one
        batched SVD per piece size and |a| for a 1 x 1 piece."""
        if self._pieces is None:
            return {j: np.linalg.norm(a, 2) for j, a in self.coeffs.items() if j}
        return {j: max(float(_spectral_norms(_piece_blocks(a, p)).max()) for p in self._pieces)
                for j, a in self.coeffs.items() if j}

    def lipschitz_bound(self) -> float:
        """Bound on |d/dtheta sigma_min(A(e^{i theta}))|: sum |j| ||A_j||."""
        return float(sum(abs(j) * norm for j, norm in self._norms.items()))

    def __repr__(self):
        js = sorted(self.coeffs)
        return f"LaurentSymbol(block_size={self.block_size}, offsets={js})"


def _piece_blocks(a: np.ndarray, pieces: np.ndarray) -> np.ndarray:
    """The (..., count, size, size) blocks a[p][:, p] of a matrix or stack
    ``a`` for the rows p of a (count, size) index array."""
    return a[..., pieces[:, :, None], pieces[:, None, :]]


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    """||.||_2 of each block of a stack; |a| for 1 x 1 blocks."""
    if a.shape[-1] == 1:
        return np.abs(a[..., 0, 0])
    return np.linalg.norm(a, 2, axis=(-2, -1))


def symbol_eval(s: LaurentSymbol, z) -> np.ndarray:
    """A(z) = sum_j A_j z^j by exact polynomial evaluation.

    A 1-d array of k points gives the (k, N, N) stack in one product of
    the k x J matrix of powers z^j with the J stacked coefficients; a
    scalar ``z`` gives the (N, N) block, the one-point stack.  Scans over
    many points go through ``_scan``, so that no stack exceeds
    ``_CHUNK_BYTES``.
    """
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1:
        raise ContractViolation("symbol evaluation takes a scalar or a 1-d array of points")
    if not zs.all():
        raise ContractViolation("symbol evaluation needs z != 0")
    n = s.block_size
    stack = ((zs.reshape(-1)[:, None] ** s._offsets) @ s._stacked).reshape(-1, n, n)
    return stack if zs.ndim else stack[0]


def _scan(s: LaurentSymbol, zs: np.ndarray, reduce: Callable[[np.ndarray], np.ndarray]):
    """Concatenate ``reduce`` over symbol stacks at ``zs``, evaluated in
    chunks of at most ``_CHUNK_BYTES`` (at least one point per chunk)."""
    per = max(1, _CHUNK_BYTES // (16 * s.block_size * s.block_size))
    return np.concatenate([reduce(symbol_eval(s, zs[i:i + per]))
                           for i in range(0, zs.size, per)])


def _brent(f: Callable[[float], float], a: float, b: float, xtol: float):
    """Minimise ``f`` over [a, b] by Brent's method (Algorithms for
    Minimization without Derivatives, 1973, ch. 5): a step to the vertex
    of the parabola through the three best points when it falls inside
    the bracket and is under half the step before last, a golden-section
    step into the larger part otherwise, and never a step under xtol/4.
    Each probe shrinks the bracket around the best point x; the search
    stops when b - a <= xtol, or after 200 probes, and returns x, f(x).
    """
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    tol = 0.25 * xtol
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for _ in range(200):
        if b - a <= xtol:
            break
        middle = 0.5 * (a + b)
        p = q = 0.0
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
        if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < middle else -tol
        else:
            e = (b if x < middle else a) - x
            d = golden * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


class CircleMinimum(tuple):
    """``(value, witness)`` of the certified circle scan; it unpacks as
    that pair.  ``lower_bound`` is the certified lower bound on the true
    minimum, ``evaluations`` the sigma_min evaluations of the scan and the
    polish."""

    def __new__(cls, value: float, witness: complex, lower_bound: float,
                evaluations: int):
        self = super().__new__(cls, (value, witness))
        self.lower_bound = lower_bound
        self.evaluations = evaluations
        return self


def _rounding_allowance(s: LaurentSymbol) -> float:
    """Bound on the rounding error of one computed sigma_min(A(z)).

    Evaluating A(z) errs by at most a few eps * sum ||A_j||, and the
    backward-stable SVD or Hermitian eigensolve by a few N * eps * ||A(z)||;
    8 N eps sum ||A_j||_F covers both (the Frobenius norm bounds the
    spectral one).  A Hermitian-symmetric symbol adds its Hermitian defect
    delta = sum_j ||A_j - A_{-j}^H||_F, which bounds ||A(z) - A(z)^H||_F on
    the circle: the eigensolve reads one triangle of A(z) only.
    """
    total = sum(np.linalg.norm(a) for a in s.coeffs.values())
    allowance = 8.0 * s.block_size * np.finfo(float).eps * total
    if s.hermitian_symmetric:
        d = s.bandwidth
        allowance += sum(np.linalg.norm(s.coeff(j) - s.coeff(-j).conj().T)
                         for j in range(-d, d + 1))
    return float(allowance)


def _sigma_min(s: LaurentSymbol, a: np.ndarray):
    """``linalg.sigma_min`` of A(z), or of each block of a stack of them;
    a symbol with several pieces (``LaurentSymbol._pieces``) takes the
    least over its pieces, one batched solve per piece size."""
    herm = s.hermitian_symmetric
    if s._pieces is None:
        return sigma_min(a, herm)
    return functools.reduce(np.minimum, [sigma_min(_piece_blocks(a, p), herm).min(axis=-1)
                                         for p in s._pieces])


def _circle_scan(s: LaurentSymbol, grid: int, tol: Optional[float] = None):
    """The branch-and-bound loop (Piyavskii; Shubert) of both circle
    scans.  Returns the best angle and value, the least bound of the arcs
    it closed less ``_rounding_allowance``, and the evaluations made.

    sigma_min at ``_START_GRID`` equally spaced points (``grid`` if fewer)
    splits the circle into arcs, and an arc [a, b] is bounded below by
    (f(a) + f(b))/2 - L (b - a)/2, L = ``s.lipschitz_bound()``.  Each round
    evaluates the midpoints of all arcs that do not clear a level in one
    batched call, until every arc does.  For the minimum (``tol`` None)
    the level is best - eps, eps = L pi / grid.  For the decision an arc
    clears when its bound less the allowance exceeds ``tol``; an arc no
    wider than 2 pi / grid is not split but closed as it is, which keeps
    the lower bound at or below ``tol``, and the first value <= ``tol``
    stops the scan with lower bound -inf.
    """
    lam = s.lipschitz_bound()
    eps = lam * (math.pi / grid)
    allowance = _rounding_allowance(s)

    def sigma(thetas):
        return _scan(s, np.exp(1j * thetas), lambda stack: _sigma_min(s, stack))

    start = min(grid, _START_GRID)
    h = 2.0 * math.pi / start
    left = h * np.arange(start)
    f_left = sigma(left)
    f_right = np.roll(f_left, -1)
    best = int(np.argmin(f_left))
    best_theta, best_value = float(left[best]), float(f_left[best])
    evaluations = start
    lower = math.inf
    while True:
        if tol is not None and best_value <= tol:
            return best_theta, best_value, -math.inf, evaluations
        bound = 0.5 * (f_left + f_right) - lam * (0.5 * h)
        if tol is None:
            split = bound < best_value - eps
        else:
            split = (bound - allowance <= tol) & (h > 2.0 * math.pi / grid)
        lower = min(lower, float(bound[~split].min(initial=math.inf)))
        if not split.any():
            return best_theta, best_value, lower - allowance, evaluations
        left, f_left, f_right = left[split], f_left[split], f_right[split]
        h *= 0.5
        mid = left + h
        f_mid = sigma(mid)
        evaluations += mid.size
        k = int(np.argmin(f_mid))
        if f_mid[k] < best_value:
            best_theta, best_value = float(mid[k]), float(f_mid[k])
        left = np.concatenate([left, mid])
        f_left, f_right = np.concatenate([f_left, f_mid]), np.concatenate([f_mid, f_right])


def min_singular_on_circle(s: LaurentSymbol, grid: int = CIRCLE_GRID) -> CircleMinimum:
    """Global minimum of sigma_min(A(e^{i theta})) over the unit circle.

    With L = ``s.lipschitz_bound()`` (a Lipschitz constant of sigma_min in
    theta, by Weyl's inequality) and eps = L pi / grid, the returned value
    is within eps of the true minimum -- the guarantee of a uniform
    ``grid``-point scan.  The scan is the branch-and-bound of
    ``_circle_scan``, splitting each arc whose bound is below best - eps.
    An arc no wider than 2 pi / grid always clears that level, so the
    scan evaluates at most 2 * grid points (``grid`` when grid / 32 is a
    power of two).  The least arc bound, less ``_rounding_allowance``, is
    the certified ``lower_bound``.

    Every sigma_min goes through ``symbol_eval`` and ``_sigma_min``.  When
    the nonzero patterns of the coefficients fall into several connected
    pieces, as in a diagonal symbol, A(z) is their direct sum: its
    sigma_min is the least over the pieces, solved with the pieces of one
    size as one stack and a 1 x 1 piece as |a|, and each ||A_j|| of L is
    the largest over the pieces.  L, the allowance, the evaluation points
    and the certificate are those of the whole block.

    The best point is then refined by one Brent search (``_brent``) over
    [best - 2 pi/grid, best + 2 pi/grid] to a bracket of
    REFINE_TOL / max(L, 1): the polished value is within REFINE_TOL of its
    basin's minimum when L >= 1, and within REFINE_TOL * L -- relative to
    the symbol's scale -- below that.
    """
    if grid < 16:
        raise ContractViolation("grid must be at least 16")
    best_theta, best_value, lower, evaluations = _circle_scan(s, grid)
    step = 2.0 * math.pi / grid
    xtol = min(REFINE_TOL / max(s.lipschitz_bound(), 1.0), step)
    probes = 0

    def probe(theta: float) -> float:
        nonlocal probes
        probes += 1
        return float(_sigma_min(s, symbol_eval(s, cmath.exp(1j * theta))))

    x, v = _brent(probe, best_theta - step, best_theta + step, xtol)
    if v < best_value:
        best_value, best_theta = v, x
    return CircleMinimum(best_value, cmath.exp(1j * best_theta), lower, evaluations + probes)


@dataclass(frozen=True)
class FredholmReport:
    """Fredholm verdict of a symbol from the certified circle scan.

    ``min_singular`` is sigma_min at the ``witness``, within L pi / grid of
    the true minimum; ``is_fredholm`` is ``min_singular > tol``.
    ``lower_bound`` is the scan's certified lower bound on the minimum over
    the whole circle: its least arc bound less ``_rounding_allowance``,
    which covers rounding and the Hermitian defect of a Hermitian-symmetric
    symbol.  ``verdict`` is ``"not-fredholm"`` when ``min_singular <= tol``,
    ``"fredholm"`` when ``lower_bound > tol``, and ``"inconclusive"``
    otherwise.  ``index`` is the half-line index, certified as in
    ``_winding_index``, or None when the symbol is not Fredholm at the
    witness or the count is not certified.  ``evaluations`` counts the
    sigma_min evaluations of the scan and its polish.
    """

    is_fredholm: bool
    min_singular: float
    witness: complex
    index: Optional[int]
    grid_used: int
    tol: float
    lower_bound: float
    verdict: str
    evaluations: int


def is_fredholm(s: LaurentSymbol, tol: float = FREDHOLM_TOL,
                grid: int = CIRCLE_GRID) -> FredholmReport:
    """Decide Fredholmness of the full-line operator: the symbol must be
    invertible everywhere on the unit circle.  When ``min_singular``
    clears ``tol``, the half-line index is filled in at any block size,
    or left None when its zeros count is not certified."""
    check_tolerance(tol)
    found = min_singular_on_circle(s, grid=grid)
    value, witness = found
    fred = value > tol
    verdict = ("not-fredholm" if not fred else
               "fredholm" if found.lower_bound > tol else "inconclusive")
    index = _winding_index(s, found.lower_bound) if fred else None
    return FredholmReport(is_fredholm=fred, min_singular=value, witness=witness, index=index,
                          grid_used=grid, tol=tol, lower_bound=found.lower_bound,
                          verdict=verdict, evaluations=found.evaluations)


def toeplitz_index(s: LaurentSymbol, tol: float = FREDHOLM_TOL) -> int:
    """Half-line index of a symbol whose sigma_min on the unit circle
    exceeds ``tol``.

    One rule: the scan runs as a decision (``_circle_scan``), splitting an
    arc only while its bound, less the allowance, is <= ``tol``, with no
    polish.  Where it evaluates no sigma_min <= ``tol`` but leaves an arc
    open at width 2 pi / CIRCLE_GRID, or its bound certifies no count,
    ``min_singular_on_circle`` runs once, and the smaller sigma_min and
    the larger lower bound of the two scans are kept.  A sigma_min <=
    ``tol`` raises ``ContractViolation`` (not Fredholm); otherwise
    ``_winding_index`` counts the zeros through the lower bound, and a
    count it does not certify raises ``ContractViolation``.
    """
    check_tolerance(tol)
    _, value, lower, _ = _circle_scan(s, CIRCLE_GRID, tol)
    index = _winding_index(s, lower) if lower > tol else None
    if index is None and value > tol:
        found = min_singular_on_circle(s)
        value, lower = min(value, found[0]), max(lower, found.lower_bound)
        index = _winding_index(s, lower) if value > tol else None
    if value <= tol:
        raise ContractViolation("symbol is not Fredholm; the index is undefined")
    if index is None:
        raise ContractViolation("index is not certified")
    return index


@dataclass(frozen=True)
class _Zeros:
    """The D N zeros ``z`` of det P(z), P(z) = z^-lo A(z), from
    ``_symbol_zeros``.  Every zero of C + tE that lies on the unit circle
    lies where sigma_min(A(z)) <= ``level``.  ``kernels``, when asked for,
    holds in column k a unit kernel vector of A(z_k): the last block of
    the companion eigenvector."""

    z: np.ndarray
    level: float
    kernels: Optional[np.ndarray]


def _symbol_zeros(s: LaurentSymbol, lower_bound: float, vectors: bool) -> Optional[_Zeros]:
    """Zeros of det A(z) through the disc map z = (w + a)/(1 + a' w), at the
    first a of ``_MOBIUS`` whose ``level`` is below ``lower_bound``, a
    lower bound of sigma_min(A(z)) on the unit circle (``inf`` takes the
    first a with a finite level); None when no a serves.  The symbol needs
    two offsets or more.

    P(z) = z^-lo A(z) = sum_k B_k z^k with B_k = A_{lo+k} and D = hi - lo
    (Gohberg, Lancaster & Rodman, Matrix Polynomials, 1982).  The map keeps
    the disc, and Q(w) = sum_k B_k (w + a)^k (1 + a' w)^(D-k) has the
    zeros of det P, moved by the map: the eigenvalues of the companion
    matrix C of M = Q_D^-1 Q = w^D + sum_i M_i w^i.  Q_D = a'^D P(1/a') is
    invertible unless det P vanishes at 1/a'; the second point serves
    where the first fails.

    Slack, c = 10: forming M errs by at most r = c eps ((2D + 1)
    (1 + |a|)^D sum_k ||B_k||_F + N ||Q_D||_F mu), mu = sum_i ||M_i||_F,
    and solving (wI - C) x = y blockwise gives ||(wI - C)^-1|| <= D (1 +
    (1 + mu) ||Q_D||_F / (sigma_min(Q(w)) - r)).  The computed zeros are
    exact for C + E, ||E|| <= eta = c N D eps ||C||_F (Higham, Li &
    Tisseur, SIAM J. Matrix Anal. Appl. 29, 2007), so no zero of C + tE,
    0 <= t <= 1, lies where sigma_min(Q(w)) > slack = r + D eta (1 + mu)
    ||Q_D||_F / (1 - D eta).  On |w| = 1, Q(w) = (1 + a' w)^D z^-lo A(z)
    gives sigma_min(Q(w)) >= (1 - |a|)^D sigma_min(A(z)), so such a zero on
    the circle has sigma_min(A(z)) <= level = slack / (1 - |a|)^D.  A level
    below ``lower_bound`` keeps every zero of C + tE off the circle, and
    the count inside it is the exact one.
    """
    lo = int(s._offsets[0])
    d, n = int(s._offsets[-1]) - lo, s.block_size
    eps = 10.0 * np.finfo(float).eps
    norms = np.linalg.norm(s._stacked, axis=1).sum()
    for a in _MOBIUS:
        # column k: the coefficients of (w + a)^k (1 + a' w)^(d-k), w^0 first
        weights = np.stack([functools.reduce(np.convolve, [[a, 1]] * k + [[1, np.conj(a)]] * (d - k))
                            for k in range(d + 1)], axis=1)
        q = (weights[:, s._offsets - lo] @ s._stacked).reshape(d + 1, n, n)
        try:
            monic = np.linalg.solve(q[d], q[d - 1::-1].transpose(1, 0, 2).reshape(n, d * n))
        except np.linalg.LinAlgError:  # Q_D singular
            continue
        mu, lead = sum(np.linalg.norm(m) for m in np.hsplit(monic, d)), np.linalg.norm(q[d])
        rounding = eps * ((2 * d + 1) * (1 + abs(a)) ** d * norms + n * lead * mu)
        backward = eps * n * d * d * math.sqrt((d - 1) * n + np.linalg.norm(monic) ** 2)
        level = (rounding + backward * (1.0 + mu) * lead / (1.0 - backward)) / (1 - abs(a)) ** d
        if not (backward < 1.0 and level < lower_bound):  # also when M overflows
            continue
        companion = np.eye(d * n, k=-n, dtype=complex)
        companion[:n] = -monic
        kernels = None
        if vectors:
            w, x = np.linalg.eig(companion)
            kernels = x[-n:] / np.linalg.norm(x[-n:], axis=0)
        else:
            w = np.linalg.eigvals(companion)
        return _Zeros(z=(w + a) / (1 + np.conj(a) * w), level=float(level), kernels=kernels)
    return None


def _winding_index(s: LaurentSymbol, lower_bound: float) -> Optional[int]:
    """INDEX_SIGN * winding(det A(z)) from the zeros of det A(z) in the
    unit disc, or None when the count is not certified; ``lower_bound``
    bounds sigma_min(A(z)) on the unit circle from below.

    The winding is N lo plus the number of zeros of det P in the disc,
    P(z) = z^-lo A(z), lo the least offset; ``_symbol_zeros`` gives them,
    certified through ``lower_bound``.
    """
    lo = int(s._offsets[0])
    if s._offsets.size == 1:  # det A(z) = z^(N lo) det A_lo
        return INDEX_SIGN * s.block_size * lo
    zeros = _symbol_zeros(s, lower_bound, False)
    if zeros is None:
        return None
    inside = int(np.count_nonzero(np.abs(zeros.z) < 1.0))
    return INDEX_SIGN * (inside + s.block_size * lo)


def _section_rows(s: LaurentSymbol, n) -> int:
    """Rows n*N of the n-period section, once ``n`` is checked to be an
    integer of at least 2*bandwidth + 1."""
    if not isinstance(n, numbers.Integral) or n < 2 * s.bandwidth + 1:
        raise ContractViolation("section must span an integer number of periods, "
                                "at least 2*bandwidth + 1")
    return int(n) * s.block_size


def finite_section(s: LaurentSymbol, n: int) -> np.ndarray:
    """(n*N) x (n*N) truncation with blocks A_{j-i} for |j-i| <= d; the
    n-period section is the leading block of every longer one."""
    rows = _section_rows(s, n)
    big = np.zeros((rows, rows), dtype=complex)
    nb = s.block_size
    for j, a in s.coeffs.items():
        for i in range(n):
            if 0 <= i + j < n:
                big[i * nb:(i + 1) * nb, (i + j) * nb:(i + j + 1) * nb] = a
    return big


@dataclass(frozen=True)
class SectionSweep:
    sizes: tuple
    sigma_min: tuple
    verdict: str
    tol: float


def fredholm_via_sections(s: LaurentSymbol, sizes: Sequence[int],
                          tol: float = FREDHOLM_TOL) -> SectionSweep:
    """Empirical cross-check: sigma_min of growing finite sections.

    ``stable`` -- the last two values agree within 20% and clear ``tol``
    (the symbol looks invertible); ``decaying`` -- the values shrink
    monotonically toward zero; anything else is ``inconclusive``.  These
    verdicts are a heuristic and carry no bound; the certified verdict is
    ``is_fredholm``'s.

    Every size is checked first; the longest section is then built once,
    and each shorter one is its leading block, solved by
    ``_leading_values``: one SVD per size for a non-Hermitian symbol.  The
    sections of a Hermitian-symmetric symbol are Hermitian, and their
    sigma_min is the least |eigenvalue|.  Each solve reads one of each
    Hermitian pair of entries, so each value's error includes the
    symbol's Hermitian defect delta = sum_j ||A_j - A_{-j}^H||_F besides
    rounding.  The section goes through ``linalg.gauge_split``, one pass
    over its nonzero entries.  When it carries no flux (the Floquet twist
    and the imaginary hops of -i d/dtheta are a pure gauge on an open
    stretch of lattice) the solves run in real arithmetic, about a third
    of the complex cost, and each value's error also includes the dropped
    imaginary part, at most HERMITICITY_TOL/2 times the Frobenius norm of
    the longest section.  A section with flux stays complex.

    When every nonzero off-diagonal entry joins an even and an odd index
    and the diagonal is c + mu on one class and c - mu on the other, the
    section is c I + mu Gamma + [[0, B], [B^H, 0]] after a permutation,
    and each size is solved on its leading block of B, with half the rows:
    its eigenvalues are c +- sqrt(mu^2 + sigma_k(B_m)^2) and c +- mu for
    the unpaired indices.  The diagonal's deviation from c +- mu, at most
    HERMITICITY_TOL times the Frobenius norm of the longest section in
    each entry, is dropped and counts as error (Weyl's inequality), as the
    imaginary part does.  A Hermitian B is split the same way in turn,
    with ||B - B^H||_F more error, and so on: the B of a mass-doubled
    section at twist 0 has diagonal +-mu on its own classes and a
    bipartite hop, so each size takes one real SVD of B's off-diagonal
    block C, with a quarter of the section's rows, and sigma_min =
    hypot(mu, sigma_min(C_m)).  A block that does not split ends in one
    ``eigvalsh`` per size if it is Hermitian and one SVD otherwise.  A
    twist puts c sigma_z on the mass-doubled section's diagonal, which is
    not constant on a class, and keeps the eigensolve of the whole
    section; an odd cycle does the same.
    """
    if list(sizes) != sorted(set(sizes)) or len(sizes) < 2:
        raise ContractViolation("sizes must be strictly ascending, at least two of them")
    rows = [_section_rows(s, n) for n in sizes]
    values = _leading_values(finite_section(s, sizes[-1]), [(m, m) for m in rows],
                             s.hermitian_symmetric, True)
    sigmas = [float(np.abs(v).min()) for v in values]
    last, prev = sigmas[-1], sigmas[-2]
    if last > tol and abs(last - prev) < 0.2 * max(last, prev):
        verdict = "stable"
    elif all(b <= a * 1.05 for a, b in zip(sigmas, sigmas[1:])) and last < 0.5 * sigmas[0]:
        verdict = "decaying"
    else:
        verdict = "inconclusive"
    return SectionSweep(sizes=tuple(sizes), sigma_min=tuple(sigmas),
                        verdict=verdict, tol=tol)


def _leading_values(a: np.ndarray, shapes: list, hermitian: bool, least: bool) -> list:
    """One array per (r, c) in ``shapes``: the eigenvalues of the leading
    block a[:r, :r] when ``hermitian`` (``a`` Hermitian, every r == c),
    else the singular values of a[:r, :c].  With ``least`` only the least
    modulus of each array need be right.

    A Hermitian ``a`` that ``linalg.gauge_split`` splits with levels
    c +- mu gives each block's eigenvalues from the singular values of its
    leading block of B, which this helper finds on B in turn, as
    eigenvalues when B is Hermitian and every needed block of it square.
    When c is 0 and only the least modulus is asked for, a block with an
    unpaired index is |mu|, which no pair undercuts, and takes no solve.
    """
    if not hermitian:
        return [np.linalg.svd(a[:r, :c], compute_uv=False) for r, c in shapes]
    b, split = gauge_split(a)
    if split is None:
        return [np.linalg.eigvalsh(b[:r, :r]) for r, _ in shapes]
    even, odd, shift, mass = split
    inner = [(int(np.searchsorted(even, r)), int(np.searchsorted(odd, r))) for r, _ in shapes]
    least = least and shift == 0.0
    wanted = [min(r, c) > 0 and (r == c or not least) for r, c in inner]
    solve = [shape for shape, w in zip(inner, wanted) if w]
    square = all(r == c for r, c in solve) and b.shape[0] == b.shape[1] and is_hermitian(b)
    solved = iter(_leading_values(b, solve, square, least) if solve else [])
    out = []
    for (r, c), w in zip(inner, wanted):
        sigma = np.abs(next(solved)) if w else np.zeros(0)
        root = np.hypot(mass, sigma)
        out.append(np.concatenate([shift + root, shift - root,
                                   np.full(r - sigma.size, shift + mass),
                                   np.full(c - sigma.size, shift - mass)]))
    return out


@dataclass(frozen=True)
class SpectralFlowResult:
    flow: int
    crossings: tuple  # (parameter value, direction +-1)


def twist_crossings(s: LaurentSymbol) -> SpectralFlowResult:
    """Crossings of the twist loop c -> A(z(c)), c in [0, 1) and z(c) from
    ``conventions.twist_to_floquet``, of a Hermitian-symmetric symbol,
    from the unimodular zeros of det A(z): one ``eig`` of the companion
    matrix of ``_symbol_zeros``, no scan.  Crossings are sorted by c.

    The direction of a crossing at z with unit kernel vector v is the sign
    of v^H A'(c) v (Hellmann-Feynman).  A cluster of k zeros at one circle
    point is a k-dimensional kernel: its directions are the signs of the
    eigenvalues of V^H A'(c) V, V an orthonormal basis of the cluster's
    kernel vectors.

    Certificate, to first order in the distance a zero moves.  Every
    computed zero lies where sigma_min(H(z)) <= beta, H(z) the Hermitian
    part of A(z) on the circle and beta = ``_Zeros.level`` plus
    ``_rounding_allowance``, which holds the symbol's Hermitian defect.
    With slopes s_i, the eigenvalues of V^H A'(theta) V at the cluster's
    circle point z_c, and K = sum_j j^2 ||A_j|| >= ||A''(theta)||,
    sigma_min(H(z)) >= |s| |z - z_c| - K |z - z_c|^2 / 2, |s| = min_i |s_i|,
    so where |s| > sqrt(2 K beta) the set sigma_min(H) <= beta around z_c
    lies in the disc of radius r = 2 beta / |s|: it holds as many true
    zeros as computed ones.  The Hermitian part has H(1/z') = H(z)^H, so
    that set and its zeros are symmetric under z -> 1/z', and a lone zero
    in the disc lies on the circle.  A slope
    under sqrt(2 K beta) bounds r by rho = sqrt(2 beta / K), so zeros
    farther than 4 rho from the circle are taken as off it, and zeros
    nearer than that and within 4 rho of each other form a cluster.  A
    cluster whose zeros leave the disc, whose slopes do not clear
    sqrt(2 K beta), or whose kernel vectors V leave
    ||A(z_c) V||_F > k (beta + L r) with L = ``lipschitz_bound`` (fewer
    than k independent kernel vectors: a tangency such as
    2 + z + 1/z) raises ``DegenerateCrossing``; so does a symbol whose
    det A(z) vanishes on the whole circle.
    """
    if not s.hermitian_symmetric:
        raise ContractViolation("spectral flow needs a Hermitian-symmetric symbol")
    n = s.block_size
    if s._offsets.size == 1:  # A(z) = A_0 is singular everywhere or nowhere
        if sigma_min(s._stacked.reshape(n, n), True) <= _rounding_allowance(s):
            raise DegenerateCrossing("an eigenvalue stays at zero around the whole loop")
        return SpectralFlowResult(flow=0, crossings=())
    zeros = _symbol_zeros(s, math.inf, True)
    if zeros is None:
        raise DegenerateCrossing("the zeros of det A(z) are not certified")
    z, beta = zeros.z, zeros.level + _rounding_allowance(s)
    curvature = sum(j * j * norm for j, norm in s._norms.items())
    lip = s.lipschitz_bound()
    reach = 4.0 * math.sqrt(2.0 * beta / curvature)
    near = np.flatnonzero(np.abs(np.abs(z) - 1.0) <= reach)
    near = near[np.argsort(np.angle(z[near]) % (2.0 * math.pi))]
    # a cluster ends where the next zero round the circle is out of reach
    ends = np.abs(z[near] - np.roll(z[near], -1)) > reach
    clusters = [near] if near.size else []
    if ends.any():
        start = int(np.argmax(ends)) + 1
        near, ends = np.roll(near, -start), np.roll(ends, -start)
        clusters = np.split(near, np.flatnonzero(ends[:-1]) + 1)
    crossings = []
    for idx in clusters:
        k = idx.size
        zc = np.mean(z[idx] / np.abs(z[idx]))
        zc /= abs(zc)
        c = floquet_to_twist(complex(zc))
        basis = np.linalg.qr(zeros.kernels[:, idx])[0]
        # dA/dc / (2 pi) = -i CLIFFORD_SIGN sum_j j A_j z^j, as z(c) =
        # exp(-2 pi i c CLIFFORD_SIGN) (``conventions.twist_to_floquet``)
        derivative = (-1j * CLIFFORD_SIGN * zc ** s._offsets * s._offsets) @ s._stacked
        slope = basis.conj().T @ derivative.reshape(n, n) @ basis
        slopes = slope.real.diagonal() if k == 1 else np.linalg.eigvalsh(slope)
        least = float(np.abs(slopes).min())
        radius = 2.0 * beta / least if least > 0.0 else math.inf
        if (k > n or least <= math.sqrt(2.0 * curvature * beta)
                or np.abs(z[idx] - zc).max() > radius
                or np.linalg.norm(symbol_eval(s, zc) @ basis) > k * (beta + lip * radius)):
            raise DegenerateCrossing(f"{k} zero(s) of det A(z) near c = {c:.9g} do not "
                                     "form a certified crossing")
        crossings += [(c, 1 if v > 0 else -1) for v in slopes]
    crossings.sort()
    return SpectralFlowResult(flow=sum(d for _, d in crossings), crossings=tuple(crossings))


_PIN_EPS = 1e-11
_ZERO_BAND = 1e-10  # eigenvalues this close to 0 count as 0, not negative
_CROSSING_TOL = 1e-9  # width of the bracket that locates a crossing


def _negative_counts(eigenvalues: np.ndarray) -> np.ndarray:
    return np.count_nonzero(eigenvalues < -_ZERO_BAND, axis=-1)


def _family_eigenvalues(family: Callable[[float], np.ndarray], cs) -> np.ndarray:
    """Eigenvalues of family(c) for each c, one row per point, solved as
    stacks of at most ``_CHUNK_BYTES`` (at least one matrix each)."""
    rows, stack = [], []
    for i, c in enumerate(cs):
        m = family(c)
        if np.ndim(m) != 2:
            raise ContractViolation("family values must be matrices")
        stack.append(m)
        if i + 1 == len(cs) or 16 * np.size(stack[0]) * (len(stack) + 1) > _CHUNK_BYTES:
            rows.append(hermitian_eigenvalues(stack).eigenvalues)
            stack = []
    return np.concatenate(rows)


def _locate_crossings(family: Callable[[float], np.ndarray], lo: np.ndarray,
                      hi: np.ndarray, n_lo: np.ndarray) -> np.ndarray:
    """Halve every bracket [lo, hi], whose negative count is n_lo at lo
    and another at hi, until it is no wider than ``_CROSSING_TOL``, and
    return the upper ends.  Each round solves the midpoints of all open
    brackets as one stack; a bracket moves lo to its midpoint where the
    count there is n_lo and hi otherwise, so its ends keep different
    counts."""
    lo, hi = lo.copy(), hi.copy()
    live = np.flatnonzero(hi - lo > _CROSSING_TOL)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        same = _negative_counts(_family_eigenvalues(family, mid)) == n_lo[live]
        lo[live[same]] = mid[same]
        hi[live[~same]] = mid[~same]
        live = live[hi[live] - lo[live] > _CROSSING_TOL]
    return hi


def spectral_flow(family: Callable[[float], np.ndarray], steps: int = 50) -> SpectralFlowResult:
    """Signed count of eigenvalue crossings through 0 over c in [0, 1].

    ``family`` maps one c to one Hermitian matrix; its values are solved
    as stacks of at most ``_CHUNK_BYTES`` each, so the ``steps + 1`` scan
    points take one stacked solve for matrices up to 2 MiB / (steps + 1).
    Their eigenvalues give each point's negative-eigenvalue count and the
    pin check, and the first and last give the endpoint check.  Every scan
    interval whose count changes is a bracket, and all brackets are
    halved together, one stacked solve of their midpoints per round
    (``_locate_crossings``): ceil(log2(step / ``_CROSSING_TOL``)) rounds,
    25 at the default 50 steps.  A crossing is reported at the upper end
    of a bracket no wider than ``_CROSSING_TOL``; the direction is the
    sign of the eigenvalue's motion (+1 for upward).  The endpoints must
    be isospectral away from truncation edges, which makes the flow over
    one period well-defined.  An eigenvalue pinned at zero across
    consecutive scan points raises ``DegenerateCrossing``.  The twist loop
    of a symbol takes its crossings from zeros instead
    (``twist_crossings``).
    """
    if steps < 2:
        raise ContractViolation("need at least 2 steps")
    cs = np.linspace(0.0, 1.0, steps + 1)
    eigs = _family_eigenvalues(family, cs)
    s0 = SpectrumSample.from_eigenvalues(eigs[0], band=10 ** 9)
    s1 = SpectrumSample.from_eigenvalues(eigs[-1], band=10 ** 9)
    if not spectra_match(s0, s1, tol=1e-8):
        raise ContractViolation("family endpoints are not isospectral")

    counts = _negative_counts(eigs)
    pinned = np.min(np.abs(eigs), axis=-1) < _PIN_EPS
    if np.any(pinned[1:] & pinned[:-1]):
        raise DegenerateCrossing("an eigenvalue stays at zero across an interval")

    dn = np.diff(counts)
    changed = np.flatnonzero(dn)
    located = _locate_crossings(family, cs[changed], cs[changed + 1], counts[changed])
    crossings = []
    for d, hi in zip(dn[changed].tolist(), located.tolist()):
        crossings += [(hi, -1 if d > 0 else 1)] * abs(d)
    flow = sum(d for _, d in crossings)
    return SpectralFlowResult(flow=flow, crossings=tuple(crossings))
