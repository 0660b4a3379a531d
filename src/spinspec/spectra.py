"""Closed-form twisted Dirac spectra on model spin manifolds.

The circle carries two spin structures: the bounding one (it extends over
a disk), with spectrum {k + 1/2}, and the non-bounding one with spectrum
{k} and hence a kernel.  Twisting by c shifts both lattices by -c under
the recorded Clifford sign.  Round spheres of dimension l >= 2 have
eigenvalues +-(l/2 + k) with multiplicity 2^floor(l/2) * C(k+l-1, k), so
the square of the operator is bounded below by l^2/4.

``kernel_twists`` reads the kernels of the twisted circle family off the
same lattice, with no operator build and no eigensolve: the spectral
circle model on n grid sites (``discretize.build_circle_dirac``) has the
untwisted eigenvalues mu = -(lattice mode) for the n modes of
``circle_modes(spin, -n/2, n/2)``, the twist term is a multiple of the
identity, so the twist-c spectrum is mu + CLIFFORD_SIGN * c, and the
mass-doubled one is +-hypot(mu + CLIFFORD_SIGN * c, m).  A kernel sits at
c = -CLIFFORD_SIGN * mu, and only when the mass is below the tolerance.

The module loads no numpy at import: the closed forms are plain Python
floats, and only ``SpectrumSample.values``, ``from_eigenvalues`` and
``spectra_match`` import numpy, in their own bodies.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List

from .conventions import CLIFFORD_SIGN, DEFAULT_TOL, EDGE_EXCLUSION, GROUPING_TOL
from .errors import ContractViolation, check_tolerance

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SpinStructure",
    "SpectrumSample",
    "circle_modes",
    "circle_spectrum",
    "kernel_twists",
    "sphere_spectrum",
    "product_square_spectrum",
    "spectra_match",
    "check_twist_periodicity",
    "check_exact_twist_invariance",
]


class SpinStructure(enum.Enum):
    BOUNDING = "bounding"
    NONBOUNDING = "nonbounding"


def _group(pairs: Iterable[tuple]) -> tuple:
    """Merge ascending (value, multiplicity) pairs: a value within
    ``GROUPING_TOL`` of the current anchor, the least value of its group,
    adds its multiplicity there; any other value becomes the next anchor."""
    groups = []
    for value, mult in pairs:
        if groups and value - groups[-1][0] <= GROUPING_TOL:
            groups[-1][1] += mult
        else:
            groups.append([value, mult])
    return tuple((value, mult) for value, mult in groups)


def _mirror_multiplicities(pairs: tuple) -> list:
    """``find_multiplicity(-lam)`` of each ascending (lam, m) pair, in one
    merge of the pairs against their negated reverse: as lam falls, the
    first pair within ``GROUPING_TOL`` of -lam can only move up."""
    out, j = [0] * len(pairs), 0
    for i in range(len(pairs) - 1, -1, -1):
        x = -pairs[i][0]
        while j < len(pairs) and pairs[j][0] - x < -GROUPING_TOL:
            j += 1
        if j < len(pairs) and abs(pairs[j][0] - x) <= GROUPING_TOL:
            out[i] = pairs[j][1]
    return out


@dataclass(frozen=True)
class SpectrumSample:
    """Sorted (eigenvalue, multiplicity) pairs with a truncation radius;
    eigenvalues are grouped by ``_group``, so each pair's eigenvalue lies
    more than ``GROUPING_TOL`` above the previous one.

    ``band`` records how far out the sample is trusted; comparisons drop
    the outermost eigenvalues, where band-truncated sets legitimately
    differ.  ``symmetric=True`` asserts (and validates) invariance under
    eigenvalue negation.
    """

    pairs: tuple
    band: int
    symmetric: bool = False

    def __post_init__(self):
        if not self.pairs:
            raise ContractViolation("empty spectrum")
        vals = [p[0] for p in self.pairs]
        if any(m < 1 for _, m in self.pairs):
            raise ContractViolation("multiplicities must be >= 1")
        if any(b - a <= GROUPING_TOL for a, b in zip(vals, vals[1:])):
            raise ContractViolation("eigenvalues must be strictly increasing after grouping")
        if self.symmetric and any(mirror != m for (_, m), mirror in
                                  zip(self.pairs, _mirror_multiplicities(self.pairs))):
            raise ContractViolation("spectrum is not symmetric under negation")

    @classmethod
    def from_eigenvalues(cls, values: Iterable[float], band: int,
                         symmetric: bool = False) -> "SpectrumSample":
        import numpy as np

        vals = np.sort(np.asarray(list(values), dtype=float)).tolist()
        return cls(pairs=_group((v, 1) for v in vals), band=band, symmetric=symmetric)

    def values(self) -> np.ndarray:
        """Eigenvalues expanded with multiplicity, ascending."""
        import numpy as np

        return np.array([lam for lam, m in self.pairs for _ in range(m)])

    def min_abs(self) -> float:
        return float(min(abs(lam) for lam, _ in self.pairs))

    def find_multiplicity(self, x: float) -> int:
        for lam, m in self.pairs:
            if abs(lam - x) <= GROUPING_TOL:
                return m
        return 0


def _offset(spin: SpinStructure) -> float:
    return 0.5 if spin is SpinStructure.BOUNDING else 0.0


def circle_modes(spin: SpinStructure, k_from: int, k_to: int) -> List[float]:
    """The untwisted circle lattice as a list of floats: k + 1/2 (bounding)
    or k (non-bounding) for k_from <= k < k_to, ascending."""
    offset = _offset(spin)
    return [k + offset for k in range(k_from, k_to)]


def circle_spectrum(spin: SpinStructure, c: float, band: int) -> SpectrumSample:
    """Twisted circle spectrum {k + 1/2 + s*c} (bounding) or {k + s*c}
    (non-bounding) for |k| <= band, each with multiplicity one.  The
    Clifford sign s is fixed in ``conventions``; the twist must be finite."""
    if band < 1:
        raise ContractViolation("band must be >= 1")
    if not math.isfinite(c):
        raise ContractViolation("twist must be finite")
    shift = CLIFFORD_SIGN * float(c)
    # adding one float to an ascending list keeps it ascending
    return SpectrumSample(pairs=_group((mode + shift, 1)
                                       for mode in circle_modes(spin, -band, band + 1)),
                          band=band)


def _check_grid(n: int) -> None:
    """A circle grid is even, at least 8 and at most 2^53 sites, so that
    each of its lattice modes k + 1/2, |k| <= n/2, is an exact float."""
    if n < 8 or n % 2 != 0:
        raise ContractViolation("grid size must be even and at least 8")
    if n > 2 ** 53:
        raise ContractViolation("grid size must be at most 2**53")


def kernel_twists(spin: SpinStructure, c_from: float, c_to: float,
                  grid: int, mass: float, ktol: float) -> list:
    """Twists c mod 1 in [c_from, c_to] where the spectral circle model on
    ``grid`` sites (mass-doubled when ``mass`` is nonzero) has a kernel.

    Nothing is built or solved (see the module docstring): each lattice
    mode gives the eigenvalue mu + CLIFFORD_SIGN * c, or
    +-hypot(mu + CLIFFORD_SIGN * c, m) with a mass, whose modulus is least
    at c = -CLIFFORD_SIGN * mu, clipped to the range; that twist is kept
    when the modulus there is below ``ktol``, so a kernel within ``ktol``
    just outside the range is reported at the range end.  Locations closer
    than 1e-6 mod 1 merge into the one with the least |eigenvalue|, so an
    in-range kernel outranks another kernel's clipped copy at a range end.

    Every in-range mode gives the same (c mod 1, |m|), and every mode below
    (above) the range gives the twist c_from (c_to) with a modulus that
    grows with its distance from that end.  The merge keeps the least
    modulus of equal twists, so the nearest mode on each side of each end
    decides the answer, and the work is the same for every ``grid`` and
    range.  A non-finite range end or mass, a ``ktol`` that is not finite
    and positive, or a grid that ``_check_grid`` rejects, is rejected.
    """
    if not all(math.isfinite(x) for x in (c_from, c_to, mass)):
        raise ContractViolation("twist range and mass must be finite")
    check_tolerance(ktol)
    if c_to <= c_from:
        raise ContractViolation("empty twist range")
    _check_grid(grid)
    offset, half = _offset(spin), grid // 2
    # mode k + offset has its kernel twist at CLIFFORD_SIGN * (k + offset),
    # so an end c lies at k = CLIFFORD_SIGN * c - offset up to rounding; the
    # five modes around that k hold the nearest mode on each side of c
    near_ends = {min(max(math.floor(CLIFFORD_SIGN * end - offset) + d, -half), half - 1)
                 for end in (c_from, c_to) for d in range(-2, 3)}
    kept = []  # (twist mod 1, |eigenvalue|)
    for k in near_ends:
        mu = -(k + offset)
        c = min(max(-CLIFFORD_SIGN * mu, c_from), c_to)
        gap = abs(complex(mu + CLIFFORD_SIGN * c, mass))  # C hypot, as np.hypot; not math's
        if gap < ktol:
            kept.append((c % 1.0, gap))
    merged = []
    for c, gap in sorted(kept):
        if merged and min(abs(c - merged[-1][0]), 1.0 - abs(c - merged[-1][0])) <= 1e-6:
            if gap < merged[-1][1]:
                merged[-1] = (c, gap)
        else:
            merged.append((c, gap))
    return [c for c, _ in merged]


def _sphere_multiplicity(l: int, k: int) -> int:
    return 2 ** (l // 2) * math.comb(k + l - 1, k)


def sphere_spectrum(l: int, kmax: int) -> SpectrumSample:
    """Round unit sphere of dimension l >= 2: eigenvalues +-(l/2 + k),
    k = 0..kmax, multiplicity 2^floor(l/2) * C(k+l-1, k)."""
    if l < 2:
        raise ContractViolation("sphere dimension must be >= 2; use circle_spectrum for l = 1")
    if kmax < 0:
        raise ContractViolation("kmax must be >= 0")
    pairs = []
    for k in range(kmax + 1):
        lam = l / 2.0 + k
        mult = _sphere_multiplicity(l, k)
        pairs.append((-lam, mult))
        pairs.append((lam, mult))
    pairs.sort()
    return SpectrumSample(pairs=tuple(pairs), band=int(math.ceil(l / 2.0 + kmax)),
                          symmetric=True)


def _symmetric_part(s: SpectrumSample, name: str) -> SpectrumSample:
    """Drop unpaired truncation-edge eigenvalues; reject genuinely
    asymmetric spectra (more than 2*EDGE_EXCLUSION unpaired values)."""
    kept = tuple(pair for pair, mirror in zip(s.pairs, _mirror_multiplicities(s.pairs))
                 if mirror == pair[1])
    dropped = sum(m for _, m in s.pairs) - sum(m for _, m in kept)
    if dropped > 2 * EDGE_EXCLUSION or not kept:
        raise ContractViolation(f"{name} spectrum is not symmetric")
    return SpectrumSample(pairs=kept, band=s.band, symmetric=True)


def product_square_spectrum(base: SpectrumSample, sphere: SpectrumSample,
                            cutoff: float) -> SpectrumSample:
    """Spectrum of the squared operator on a product: all sums mu^2 + nu^2
    with product multiplicities, truncated at a finite ``cutoff`` and
    grouped by the rule of ``SpectrumSample.from_eigenvalues``.  Both
    factors must be symmetric spectra (unpaired truncation-edge values are
    dropped); the minimum is at least min(nu^2)."""
    if not base.pairs or not sphere.pairs:
        raise ContractViolation("empty factor spectrum")
    if not math.isfinite(cutoff):
        raise ContractViolation("cutoff must be finite")
    base = _symmetric_part(base, "base")
    sphere = _symmetric_part(sphere, "sphere")
    sums = sorted((s2, mmu * mnu) for mu, mmu in base.pairs for nu, mnu in sphere.pairs
                  if (s2 := mu * mu + nu * nu) <= cutoff)
    pairs = _group(sums)
    if not pairs:
        raise ContractViolation("cutoff excludes the entire product spectrum")
    return SpectrumSample(pairs=pairs, band=int(math.ceil(cutoff)))


def _interior_values(sample: SpectrumSample, lo: float, hi: float) -> np.ndarray:
    v = sample.values()
    return v[(v >= lo) & (v <= hi)]


def spectra_match(a: SpectrumSample, b: SpectrumSample, tol: float) -> bool:
    """Compare two samples after excluding truncation edges.

    The outermost ``EDGE_EXCLUSION`` eigenvalues on each side of each
    sample are dropped; the remaining windows are intersected, nudged off
    the eigenvalue grid by a quarter of the median gap, and clipped to
    |lambda| <= min(band) - EDGE_EXCLUSION.  Samples too small to leave an
    interior compare as equal (there is nothing trustworthy to compare).
    """
    import numpy as np

    va, vb = a.values(), b.values()
    k = EDGE_EXCLUSION
    if len(va) <= 2 * k or len(vb) <= 2 * k:
        return True
    lo = max(va[k], vb[k])
    hi = min(va[-k - 1], vb[-k - 1])
    combined = np.sort(np.concatenate([va, vb]))
    gaps = np.diff(combined)
    gaps = gaps[gaps > 10 * tol]
    pad = 0.25 * float(np.median(gaps)) if gaps.size else 0.0
    lo, hi = lo + pad, hi - pad
    band_limit = min(a.band, b.band) - EDGE_EXCLUSION
    lo, hi = max(lo, -band_limit), min(hi, band_limit)
    if lo >= hi:
        return True
    wa, wb = _interior_values(a, lo, hi), _interior_values(b, lo, hi)
    if len(wa) != len(wb):
        return False
    if len(wa) == 0:
        return True
    return bool(np.max(np.abs(wa - wb)) <= tol)


def check_twist_periodicity(spectra_fn: Callable[[float], SpectrumSample],
                            c: float, tol: float = DEFAULT_TOL) -> bool:
    """True when the spectra at twist c and c + 1 agree away from the
    truncation edges."""
    return spectra_match(spectra_fn(c), spectra_fn(c + 1.0), tol)


def check_exact_twist_invariance(spectra_fn: Callable[[float], SpectrumSample],
                                 c: float, tol: float = DEFAULT_TOL) -> bool:
    """True when the spectrum at twist c agrees with the untwisted one.
    Holds whenever the twisting 1-form is exact (a gauge conjugation)."""
    return spectra_match(spectra_fn(c), spectra_fn(0.0), tol)
