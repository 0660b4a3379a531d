"""Symbol-level Fredholm analysis of periodic and end-periodic lattice
operators.

A banded block Laurent symbol A(z) = sum_j A_j z^j stands for the doubly
infinite block-banded operator with blocks A_{j-i}.  The full-line
operator is Fredholm exactly when A(z) is invertible for every z on the
unit circle; the half-line compression is then Fredholm with index equal
to minus the winding number of det A(z).

``symbol_eval`` is the one evaluator: a product of the powers z^j with
the stacked coefficients, for a stack of points or for the single point a
refinement probes.  Unit-circle scans evaluate the symbol once per grid
point, as a stack of blocks built in chunks of at most ``_CHUNK_BYTES``
and handed to batched ``svd`` / ``slogdet`` calls, so memory stays
bounded for large blocks.
The winding follows the unit-modulus phase of det A(z) from ``slogdet``,
which neither overflows nor underflows.  Grid minima are refined by one
golden-section search, ``_golden_section``, which the twist scan in
``discretize`` reuses.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .conventions import CIRCLE_GRID, FREDHOLM_TOL, REFINE_TOL
from .errors import ContractViolation, DegenerateCrossing
from .linalg import hermitian_eigenvalues, is_hermitian
from .spectra import SpectrumSample, spectra_match

__all__ = [
    "LaurentSymbol",
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

_INDEX_FILL_LIMIT = 128  # fill the index automatically when N * max(d,1) is below this
_CHUNK_BYTES = 2 * 1024 * 1024  # largest symbol stack one batched scan call holds


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
        return float(sum(abs(j) * np.linalg.norm(a, 2) for j, a in self.coeffs.items()))

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


def _sigma_min(s: LaurentSymbol, theta: float) -> float:
    vals = np.linalg.svd(symbol_eval(s, cmath.exp(1j * theta)), compute_uv=False)
    return float(vals[-1])


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


def min_singular_on_circle(s: LaurentSymbol, grid: int = CIRCLE_GRID):
    """Global minimum of sigma_min(A(e^{i theta})) over the unit circle.

    Uniform scan (batched singular values) followed by golden-section
    refinement around the three smallest grid points.  The scan step times
    the symbol's Lipschitz bound controls how far the true minimum can
    hide from the grid.
    """
    if grid < 16:
        raise ContractViolation("grid must be at least 16")
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    values = _scan(s, np.exp(1j * thetas),
                   lambda stack: np.linalg.svd(stack, compute_uv=False)[:, -1])
    step = 2.0 * np.pi / grid
    lam = max(s.lipschitz_bound(), 1e-12)
    xtol = min(REFINE_TOL / lam, step)
    best_theta = float(thetas[int(np.argmin(values))])
    best_value = float(values.min())
    for idx in np.argsort(values)[:3]:
        t0 = thetas[idx]
        x, v = _golden_section(lambda t: _sigma_min(s, t), t0 - step, t0 + step, xtol)
        if v < best_value:
            best_value, best_theta = v, x
    return best_value, cmath.exp(1j * best_theta)


@dataclass(frozen=True)
class FredholmReport:
    is_fredholm: bool
    min_singular: float
    witness: complex
    index: Optional[int]
    grid_used: int
    tol: float


def is_fredholm(s: LaurentSymbol, tol: float = FREDHOLM_TOL,
                grid: int = CIRCLE_GRID) -> FredholmReport:
    """Decide Fredholmness of the full-line operator: the symbol must be
    invertible everywhere on the unit circle.  For Fredholm symbols of
    moderate size the half-line index is filled in as well."""
    if tol <= 0:
        raise ContractViolation("tol must be positive")
    value, witness = min_singular_on_circle(s, grid=grid)
    fred = value > tol
    index = None
    if fred and s.block_size * max(s.bandwidth, 1) <= _INDEX_FILL_LIMIT:
        index = toeplitz_index(s, tol=tol, _min_singular=value)
    return FredholmReport(is_fredholm=fred, min_singular=value, witness=witness,
                          index=index, grid_used=grid, tol=tol)


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
    return -int(round(winding))


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
    monotonically toward zero; anything else is ``inconclusive``.
    """
    if list(sizes) != sorted(set(sizes)) or len(sizes) < 2:
        raise ContractViolation("sizes must be strictly ascending, at least two of them")
    sigmas = []
    for n in sizes:
        vals = np.linalg.svd(finite_section(s, n), compute_uv=False)
        sigmas.append(float(vals[-1]))
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


def _negative_count(eigenvalues: np.ndarray) -> int:
    return int(np.count_nonzero(eigenvalues < -_ZERO_BAND))


def spectral_flow(family: Callable[[float], np.ndarray], steps: int = 50) -> SpectralFlowResult:
    """Signed count of eigenvalue crossings through 0 over c in [0, 1].

    Each of the ``steps + 1`` scan points is solved once; its eigenvalues
    give the negative-eigenvalue count and the pin check, and the first
    and last give the endpoint check.  Crossing locations come from
    bisection on the negative-eigenvalue count between scan points, one
    solve per step; the direction is the sign of the eigenvalue's motion
    (+1 for upward).  The endpoints must be isospectral away from
    truncation edges, which makes the flow over one period well-defined.
    An eigenvalue pinned at zero across consecutive scan points raises
    ``DegenerateCrossing``.
    """
    if steps < 2:
        raise ContractViolation("need at least 2 steps")
    cs = np.linspace(0.0, 1.0, steps + 1)
    eigs = [hermitian_eigenvalues(family(c)).eigenvalues for c in cs]
    s0 = SpectrumSample.from_eigenvalues(eigs[0], band=10 ** 9)
    s1 = SpectrumSample.from_eigenvalues(eigs[-1], band=10 ** 9)
    if not spectra_match(s0, s1, tol=1e-8):
        raise ContractViolation("family endpoints are not isospectral")

    counts = [_negative_count(e) for e in eigs]
    pinned = [float(np.min(np.abs(e))) < _PIN_EPS for e in eigs]
    if any(a and b for a, b in zip(pinned, pinned[1:])):
        raise DegenerateCrossing("an eigenvalue stays at zero across an interval")

    crossings = []
    for i in range(steps):
        dn = counts[i + 1] - counts[i]
        if dn == 0:
            continue
        lo, hi = cs[i], cs[i + 1]
        nlo = counts[i]
        while hi - lo > _CROSSING_TOL:
            mid = 0.5 * (lo + hi)
            nmid = _negative_count(hermitian_eigenvalues(family(mid)).eigenvalues)
            if nmid == nlo:
                lo, nlo = mid, nmid
            else:
                hi = mid
        direction = -1 if dn > 0 else 1
        for _ in range(abs(dn)):
            crossings.append((float(hi), direction))
    flow = sum(d for _, d in crossings)
    return SpectralFlowResult(flow=flow, crossings=tuple(crossings))
