"""Symbol-level Fredholm analysis of periodic and end-periodic lattice
operators.

A banded block Laurent symbol A(z) = sum_j A_j z^j stands for the doubly
infinite block-banded operator with blocks A_{j-i}.  The full-line
operator is Fredholm exactly when A(z) is invertible for every z on the
unit circle; the half-line compression is then Fredholm with index equal
to minus the winding number of det A(z).

``symbol_eval`` is the one evaluator: a product of the powers z^j with
the stacked coefficients, for a stack of points or for the single point a
refinement probes.  Unit-circle scans evaluate the symbol as a stack of
blocks built in chunks of at most ``_CHUNK_BYTES`` and handed to batched
calls, so memory stays bounded for large blocks.  Every sigma_min, of a
stack, a point or a finite section, comes from the one helper
``linalg.sigma_min`` with ``s.hermitian_symmetric`` as its flag: A(z) of
a Hermitian-symmetric symbol is Hermitian on the circle, as are its
finite sections, and there sigma_min = min |lambda| from a Hermitian
eigensolve; other symbols take the SVD.  The minimum of sigma_min(A(z))
over the circle comes from a Lipschitz branch-and-bound (Piyavskii;
Shubert): each round bisects, in one batched call, every arc whose lower
bound could still beat the best value found, so the result carries a
certified lower bound as well as a witness.  The winding follows the
unit-modulus phase of det A(z) from ``slogdet``, which neither overflows
nor underflows.  The best point of the scan is refined by one
golden-section search, ``_golden_section``, which the twist scan in
``discretize`` reuses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .conventions import CIRCLE_GRID, FREDHOLM_TOL, INDEX_SIGN, REFINE_TOL
from .errors import ContractViolation, DegenerateCrossing
from .linalg import hermitian_eigenvalues, is_hermitian, sigma_min
from .spectra import SpectrumSample, spectra_match

__all__ = [
    "LaurentSymbol",
    "CircleMinimum",
    "FredholmReport",
    "SectionSweep",
    "SpectralFlowResult",
    "symbol_eval",
    "symbol_direct_sum",
    "min_singular_on_circle",
    "is_fredholm",
    "toeplitz_index",
    "finite_section",
    "fredholm_via_sections",
    "spectral_flow",
]

_INDEX_FILL_LIMIT = 128  # fill the index automatically when N * max(d,1) is at most this
_CHUNK_BYTES = 2 * 1024 * 1024  # largest symbol stack one batched scan call holds
_START_GRID = 32  # uniform points of the circle scan's first round


class LaurentSymbol:
    """Banded block coefficients A_j, j in [-d, d], of a symbol A(z).

    ``coeffs`` maps integer offsets to square blocks of one common size;
    missing offsets are zero.  ``hermitian_symmetric`` is set when
    A_{-j} = A_j^* for all j, which makes A(z) Hermitian on |z| = 1; the
    stack A_{-d}, ..., A_d is checked as a whole by ``is_hermitian``.
    """

    def __init__(self, coeffs: Mapping[int, object]):
        blocks = {}
        size = None
        for j, raw in coeffs.items():
            a = np.atleast_2d(np.asarray(raw, dtype=complex))
            if a.shape[0] != a.shape[1]:
                raise ContractViolation("symbol blocks must be square")
            if size is None:
                size = a.shape[0]
            elif a.shape[0] != size:
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
            np.stack([self.coeff(j) for j in range(-self.bandwidth, self.bandwidth + 1)]))

    @classmethod
    def scalar(cls, coeffs: Mapping[int, complex]) -> "LaurentSymbol":
        return cls({j: [[v]] for j, v in coeffs.items()})

    def coeff(self, j: int) -> np.ndarray:
        a = self.coeffs.get(j)
        if a is None:
            return np.zeros((self.block_size, self.block_size), dtype=complex)
        return a

    def lipschitz_bound(self) -> float:
        """Bound on |d/dtheta sigma_min(A(e^{i theta}))|: sum |j| ||A_j||."""
        return float(sum(abs(j) * np.linalg.norm(a, 2) for j, a in self.coeffs.items() if j))

    def __repr__(self):
        js = sorted(self.coeffs)
        return f"LaurentSymbol(block_size={self.block_size}, offsets={js})"


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


def symbol_direct_sum(a: LaurentSymbol, b: LaurentSymbol) -> LaurentSymbol:
    """Blockwise direct sum; indices add under the half-line compression."""
    na, nb = a.block_size, b.block_size
    coeffs = {}
    for j in set(a.coeffs) | set(b.coeffs):
        block = np.zeros((na + nb, na + nb), dtype=complex)
        block[:na, :na] = a.coeff(j)
        block[na:, na:] = b.coeff(j)
        coeffs[j] = block
    return LaurentSymbol(coeffs)


def _golden_section(f: Callable[[float], float], a: float, b: float, xtol: float):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
        if b - a <= xtol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


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


def min_singular_on_circle(s: LaurentSymbol, grid: int = CIRCLE_GRID) -> CircleMinimum:
    """Global minimum of sigma_min(A(e^{i theta})) over the unit circle.

    With L = ``s.lipschitz_bound()`` (a Lipschitz constant of sigma_min in
    theta, by Weyl's inequality) and eps = L pi / grid, the returned value
    is within eps of the true minimum -- the guarantee of a uniform
    ``grid``-point scan.  The scan is a branch-and-bound: sigma_min at
    ``_START_GRID`` equally spaced points (``grid`` if fewer) splits the
    circle into arcs, and an arc [a, b] is bounded below by
    (f(a) + f(b))/2 - L (b - a)/2.  Each round evaluates the midpoints of
    all arcs whose bound is below best - eps in one batched SVD call,
    until none is.  An arc no wider than 2 pi / grid always passes, so the
    scan evaluates at most 2 * grid points (``grid`` when grid / 32 is a
    power of two).  The least arc bound, less ``_rounding_allowance``, is the
    certified ``lower_bound``.  The best point is then refined by one
    golden-section search over [best - 2 pi/grid, best + 2 pi/grid] to a
    bracket of REFINE_TOL / max(L, 1): the polished value is within
    REFINE_TOL of its basin's minimum when L >= 1, and within
    REFINE_TOL * L -- relative to the symbol's scale -- below that.
    """
    if grid < 16:
        raise ContractViolation("grid must be at least 16")
    lam = s.lipschitz_bound()
    eps = lam * (math.pi / grid)
    herm = s.hermitian_symmetric

    def sigma(thetas):
        return _scan(s, np.exp(1j * thetas), lambda stack: sigma_min(stack, herm))

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
        bound = 0.5 * (f_left + f_right) - lam * (0.5 * h)
        split = bound < best_value - eps
        lower = min(lower, float(bound[~split].min(initial=math.inf)))
        if not split.any():
            break
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

    step = 2.0 * math.pi / grid
    xtol = min(REFINE_TOL / max(lam, 1.0), step)
    probes = 0

    def probe(theta: float) -> float:
        nonlocal probes
        probes += 1
        return float(sigma_min(symbol_eval(s, cmath.exp(1j * theta)), herm))

    x, v = _golden_section(probe, best_theta - step, best_theta + step, xtol)
    if v < best_value:
        best_value, best_theta = v, x
    return CircleMinimum(best_value, cmath.exp(1j * best_theta),
                         lower - _rounding_allowance(s), evaluations + probes)


@dataclass(frozen=True)
class FredholmReport:
    """Fredholm verdict of a symbol from the certified circle scan.

    ``min_singular`` is sigma_min at the ``witness``, within L pi / grid
    of the true minimum; ``is_fredholm`` is ``min_singular > tol``.
    ``lower_bound`` is the scan's certified lower bound on the minimum
    over the whole circle: its least arc bound less a rounding allowance
    of 8 N eps sum_j ||A_j||_F for the evaluation of A(z) and its SVD
    (N the block size, eps the double-precision machine epsilon).  A
    Hermitian-symmetric symbol's sigma_min comes from a Hermitian
    eigensolve of one triangle of A(z), so its Hermitian defect
    delta = sum_j ||A_j - A_{-j}^H||_F (0 when exact, at most about
    HERMITICITY_TOL relative) is part of the error of ``min_singular``,
    and the allowance includes it.
    ``verdict`` is ``"not-fredholm"`` when the witness has
    ``min_singular <= tol``, ``"fredholm"`` when ``lower_bound > tol``,
    and ``"inconclusive"`` otherwise.  ``evaluations`` counts the
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
    invertible everywhere on the unit circle.  For Fredholm symbols of
    moderate size the half-line index is filled in as well."""
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    found = min_singular_on_circle(s, grid=grid)
    value, witness = found
    fred = value > tol
    if not fred:
        verdict = "not-fredholm"
    elif found.lower_bound > tol:
        verdict = "fredholm"
    else:
        verdict = "inconclusive"
    index = None
    if fred and s.block_size * max(s.bandwidth, 1) <= _INDEX_FILL_LIMIT:
        index = toeplitz_index(s, tol=tol, _min_singular=value)
    return FredholmReport(is_fredholm=fred, min_singular=value, witness=witness,
                          index=index, grid_used=grid, tol=tol,
                          lower_bound=found.lower_bound, verdict=verdict,
                          evaluations=found.evaluations)


def _det_phase(s: LaurentSymbol, theta: float) -> complex:
    return complex(np.linalg.slogdet(symbol_eval(s, cmath.exp(1j * theta)))[0])


def _arg_increment(s: LaurentSymbol, a: float, b: float,
                   va: complex, vb: complex, depth: int = 0) -> float:
    if va == 0 or vb == 0:
        raise ContractViolation("det A(z) vanishes on the unit circle")
    dphi = cmath.phase(vb / va)
    if abs(dphi) < math.pi / 2.0:
        return dphi
    if depth > 48:
        raise ContractViolation("winding refinement did not converge")
    mid = 0.5 * (a + b)
    vm = _det_phase(s, mid)
    return (_arg_increment(s, a, mid, va, vm, depth + 1)
            + _arg_increment(s, mid, b, vm, vb, depth + 1))


def toeplitz_index(s: LaurentSymbol, tol: float = FREDHOLM_TOL,
                   _min_singular: Optional[float] = None) -> int:
    """Index of the half-line compression: minus the winding number of
    det A(z) around 0.

    The winding follows the unit-modulus phase det A(z) / |det A(z)|, the
    sign from ``slogdet``, so it holds for any scale of the symbol.  The
    phase is taken on a batched 64-point grid, and a step that turns it
    by pi/2 or more is halved until no step does.
    """
    value = _min_singular
    if value is None:
        value, _ = min_singular_on_circle(s)
    if value <= tol:
        raise ContractViolation("symbol is not Fredholm; the index is undefined")
    base = 64
    thetas = 2.0 * np.pi * np.arange(base + 1) / base
    phases = _scan(s, np.exp(1j * thetas),
                   lambda stack: np.linalg.slogdet(stack)[0]).tolist()
    total = 0.0
    for i in range(base):
        total += _arg_increment(s, thetas[i], thetas[i + 1], phases[i], phases[i + 1])
    winding = total / (2.0 * math.pi)
    if abs(winding - round(winding)) > 1e-3:
        raise ContractViolation(f"winding number {winding} is not near an integer")
    return INDEX_SIGN * int(round(winding))


def finite_section(s: LaurentSymbol, n: int) -> np.ndarray:
    """(n*N) x (n*N) truncation with blocks A_{j-i} for |j-i| <= d."""
    if n < 2 * s.bandwidth + 1:
        raise ContractViolation("section must span at least 2*bandwidth + 1 periods")
    big = np.zeros((n * s.block_size, n * s.block_size), dtype=complex)
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
    ``is_fredholm``'s.  The sections of a Hermitian-symmetric symbol are
    Hermitian, and their sigma_min is min |lambda| of an eigensolve that
    reads one triangle, so each value's error includes the symbol's
    Hermitian defect delta = sum_j ||A_j - A_{-j}^H||_F besides rounding.
    """
    if list(sizes) != sorted(set(sizes)) or len(sizes) < 2:
        raise ContractViolation("sizes must be strictly ascending, at least two of them")
    sigmas = [float(sigma_min(finite_section(s, n), s.hermitian_symmetric)) for n in sizes]
    last, prev = sigmas[-1], sigmas[-2]
    if last > tol and abs(last - prev) < 0.2 * max(last, prev):
        verdict = "stable"
    elif all(b <= a * 1.05 for a, b in zip(sigmas, sigmas[1:])) and last < 0.5 * sigmas[0]:
        verdict = "decaying"
    else:
        verdict = "inconclusive"
    return SectionSweep(sizes=tuple(sizes), sigma_min=tuple(sigmas),
                        verdict=verdict, tol=tol)


@dataclass(frozen=True)
class SpectralFlowResult:
    flow: int
    crossings: tuple  # (parameter value, direction +-1)


_PIN_EPS = 1e-11
_ZERO_BAND = 1e-10  # eigenvalues this close to 0 count as 0, not negative
_CROSSING_TOL = 1e-9  # width of the bracket that locates a crossing
_PROBE_OFFSET = 0.45 * _CROSSING_TOL  # probes either side of a secant point


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


def _crossing_gap(eigenvalues: np.ndarray, n_lo: int, n_hi: int) -> float:
    """lambda_k + _ZERO_BAND for the eigenvalue k whose passage through
    -_ZERO_BAND first moves the negative count off n_lo toward n_hi."""
    k = n_lo if n_hi > n_lo else n_lo - 1
    return float(eigenvalues[k]) + _ZERO_BAND


@dataclass
class _Bracket:
    """A crossing search interval: count ``n_lo`` at ``lo``, another count
    ``n_hi`` at ``hi``, and the eigenvalues at both ends."""

    lo: float
    hi: float
    n_lo: int
    n_hi: int
    e_lo: np.ndarray
    e_hi: np.ndarray


def _locate_crossings(family: Callable[[float], np.ndarray], brackets: list) -> list:
    """Narrow every bracket to at most ``_CROSSING_TOL`` and return the
    upper ends.

    Each round probes, for every open bracket, two points
    ``_PROBE_OFFSET`` either side of the secant root of the crossing
    eigenvalue's gap (``_crossing_gap``) and the midpoint, all in one
    stacked solve.  The new bracket runs from the last probe that still
    has count n_lo to the first that does not, so it at least halves each
    round, and a secant root within ``_PROBE_OFFSET`` of the crossing
    closes it.
    """
    live = [b for b in brackets if b.hi - b.lo > _CROSSING_TOL]
    while live:
        probes = []
        for b in live:
            g_lo = _crossing_gap(b.e_lo, b.n_lo, b.n_hi)
            g_hi = _crossing_gap(b.e_hi, b.n_lo, b.n_hi)
            secant = b.lo + (b.hi - b.lo) * g_lo / (g_lo - g_hi)
            points = {secant - _PROBE_OFFSET, secant + _PROBE_OFFSET, 0.5 * (b.lo + b.hi)}
            probes.append(sorted(p for p in points if b.lo < p < b.hi))
        eigs = _family_eigenvalues(family, [p for ps in probes for p in ps])
        results = zip(eigs, _negative_counts(eigs).tolist())
        for b, ps in zip(live, probes):
            for p in ps:
                e, n = next(results)
                if p > b.hi:  # the bracket already ends at an earlier probe
                    continue
                if n == b.n_lo:
                    b.lo, b.e_lo = p, e
                else:
                    b.hi, b.n_hi, b.e_hi = p, n, e
        live = [b for b in live if b.hi - b.lo > _CROSSING_TOL]
    return [b.hi for b in brackets]


def spectral_flow(family: Callable[[float], np.ndarray], steps: int = 50) -> SpectralFlowResult:
    """Signed count of eigenvalue crossings through 0 over c in [0, 1].

    ``family`` maps one c to one Hermitian matrix; its values are solved
    as stacks of at most ``_CHUNK_BYTES`` each, so the ``steps + 1`` scan
    points take one stacked solve for matrices up to 2 MiB / (steps + 1).
    Their eigenvalues give each point's negative-eigenvalue count and the
    pin check, and the first and last give the endpoint check.  Every scan
    interval whose count changes is a bracket, and all brackets are
    narrowed together in rounds of one stacked solve each
    (``_locate_crossings``): the eigenvalues place a secant root, and the
    counts at two points beside it and at the midpoint decide the new
    bracket.  A crossing is reported at the upper end of a bracket no
    wider than ``_CROSSING_TOL``; the direction is the sign of the
    eigenvalue's motion (+1 for upward).  The endpoints must be
    isospectral away from truncation edges, which makes the flow over one
    period well-defined.  An eigenvalue pinned at zero across consecutive
    scan points raises ``DegenerateCrossing``.
    """
    if steps < 2:
        raise ContractViolation("need at least 2 steps")
    cs = np.linspace(0.0, 1.0, steps + 1)
    eigs = _family_eigenvalues(family, cs)
    s0 = SpectrumSample.from_eigenvalues(eigs[0], band=10 ** 9)
    s1 = SpectrumSample.from_eigenvalues(eigs[-1], band=10 ** 9)
    if not spectra_match(s0, s1, tol=1e-8):
        raise ContractViolation("family endpoints are not isospectral")

    counts = _negative_counts(eigs).tolist()
    pinned = np.min(np.abs(eigs), axis=-1) < _PIN_EPS
    if np.any(pinned[1:] & pinned[:-1]):
        raise DegenerateCrossing("an eigenvalue stays at zero across an interval")

    changed = np.flatnonzero(np.diff(counts))
    located = _locate_crossings(family, [_Bracket(cs[i], cs[i + 1], counts[i], counts[i + 1],
                                                  eigs[i], eigs[i + 1]) for i in changed])
    crossings = []
    for i, hi in zip(changed, located):
        dn = counts[i + 1] - counts[i]
        direction = -1 if dn > 0 else 1
        crossings += [(float(hi), direction)] * abs(dn)
    flow = sum(d for _, d in crossings)
    return SpectralFlowResult(flow=flow, crossings=tuple(crossings))
