"""Discrete self-adjoint models of the circle Dirac operator.

Two schemes:

* ``Scheme.SPECTRAL`` conjugates an exact diagonal mode matrix back to the
  grid, so its eigenvalues are the closed-form twisted values to machine
  precision.
* ``Scheme.CENTRAL_DIFFERENCE`` is the tridiagonal-with-wrap stencil
  i (psi_{j+1} - psi_{j-1}) / (2h); its small eigenvalues converge to the
  closed forms at second order in h.

The bounding spin structure is the antiperiodic wrap (half-integer modes),
the non-bounding one is periodic (integer modes).  The Fourier-Laplace
conjugation by z^{f} turns the one-period block into the twisted family:
with the recorded branch of ln z, z = exp(-i c) reproduces the twist-c
operator.  Weight lifts are stored in angle units, so the lift of a
degree-d circle map rises by 2*pi*d across one period.

``kernel_twists`` scans the twisted spectral family for kernels with one
eigensolve per scan: the twist term is a multiple of the identity, so the
twist-c spectrum is the untwisted spectrum mu shifted to
mu + CLIFFORD_SIGN * c, and the mass-doubled one is
+-hypot(mu + CLIFFORD_SIGN * c, m).  Local minima of the smallest
|eigenvalue| are refined with the golden-section search of ``floquet``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .conventions import CLIFFORD_SIGN, DEFAULT_LN_BRANCH
from .errors import ContractViolation
from .floquet import LaurentSymbol, _golden_section
from .linalg import hermitian_eigenvalues, is_hermitian
from .spectra import SpectrumSample, SpinStructure

__all__ = [
    "Scheme",
    "DiscreteDirac",
    "WeightFunction",
    "FourierLaplaceOperator",
    "grid_angles",
    "build_circle_dirac",
    "gauge_conjugate",
    "kernel_twists",
    "fourier_laplace_family",
    "period_symbol",
    "mass_doubled",
    "spectrum_sample",
]


class Scheme(enum.Enum):
    SPECTRAL = "spectral"
    CENTRAL_DIFFERENCE = "central"


def grid_angles(n: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(n) / n


@dataclass(frozen=True)
class DiscreteDirac:
    """One-period discrete circle Dirac operator (n x n Hermitian)."""

    n: int
    scheme: Scheme
    spin: SpinStructure
    c: float
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (m.shape[0], m.shape[0]):
            raise ContractViolation("operator matrix must be square")
        if not is_hermitian(m):
            raise ContractViolation("operator matrix must be Hermitian")


@dataclass(frozen=True)
class WeightFunction:
    """Discrete lift of a circle-valued map at the grid sites.

    ``values[j]`` is the lift at angle theta_j in angle units; continuing
    past the wrap adds 2*pi*degree, where ``degree`` is the winding of the
    underlying map.  Degree-0 weights are honest periodic functions.
    """

    values: np.ndarray
    degree: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0 or not np.all(np.isfinite(v)):
            raise ContractViolation("weight values must be a finite 1-d array")
        object.__setattr__(self, "values", v)

    @classmethod
    def standard(cls, n: int, degree: int = 1) -> "WeightFunction":
        """Lift of the canonical degree-d map theta -> d*theta."""
        return cls(values=degree * grid_angles(n), degree=degree)

    @classmethod
    def periodic(cls, values) -> "WeightFunction":
        return cls(values=np.asarray(values, dtype=float), degree=0)

    def lifted(self, j: int) -> float:
        """Weight at site j of the cover (j may run past one period)."""
        n = self.values.size
        q, r = divmod(j, n)
        return float(self.values[r] + 2.0 * math.pi * self.degree * q)


@dataclass(frozen=True)
class FourierLaplaceOperator:
    """Conjugated one-period operator together with the branch data that
    produced it (the transform depends on the chosen branch of ln z)."""

    matrix: np.ndarray
    z: complex
    branch: int
    ln_z: complex


def _modes(n: int, spin: SpinStructure) -> np.ndarray:
    base = np.arange(-n // 2, n // 2, dtype=float)
    return base + 0.5 if spin is SpinStructure.BOUNDING else base


def _wrap_sign(spin: SpinStructure) -> float:
    return -1.0 if spin is SpinStructure.BOUNDING else 1.0


def build_circle_dirac(n: int, scheme: Scheme, spin: SpinStructure,
                       c: float = 0.0) -> DiscreteDirac:
    """Discretize the twisted circle operator on n grid sites.

    Both schemes shift by the scalar twist term, which acts as -c under
    the recorded Clifford sign.  Spectral eigenvalues are exactly
    {k + 1/2 - c} (bounding) resp. {k - c} (non-bounding) over the n
    Fourier modes; the central-difference ones agree to O(h^2) away from
    the band edge.
    """
    if n < 8 or n % 2 != 0:
        raise ContractViolation("grid size must be even and at least 8")
    theta = grid_angles(n)
    if scheme is Scheme.SPECTRAL:
        mu = _modes(n, spin)
        f = np.exp(-1j * np.outer(mu, theta)) / math.sqrt(n)
        m = f.conj().T @ (np.diag(-mu).astype(complex) @ f)
        m = 0.5 * (m + m.conj().T)
    elif scheme is Scheme.CENTRAL_DIFFERENCE:
        h = 2.0 * np.pi / n
        t = np.zeros((n, n), dtype=complex)
        for j in range(n - 1):
            t[j, j + 1] = 1.0
        t[n - 1, 0] = _wrap_sign(spin)
        m = 1j * (t - t.T) / (2.0 * h)
    else:
        raise ContractViolation(f"unknown scheme {scheme!r}")
    return DiscreteDirac(n=n, scheme=scheme, spin=spin, c=float(c), matrix=_twisted(m, c))


def _twisted(untwisted: np.ndarray, c: float) -> np.ndarray:
    """Add the scalar twist term, CLIFFORD_SIGN * c on the diagonal."""
    return untwisted + CLIFFORD_SIGN * float(c) * np.eye(untwisted.shape[0])


def kernel_twists(spin: SpinStructure, c_from: float, c_to: float, steps: int,
                  grid: int, mass: float, ktol: float) -> list:
    """Twists c mod 1 in [c_from, c_to] where the spectral-scheme operator
    on ``grid`` sites (mass-doubled when ``mass`` is nonzero) has a kernel.

    The smallest |eigenvalue| is scanned at ``steps`` evenly spaced twists;
    each local minimum is refined by golden section to 1e-12 and kept when
    its value is below ``ktol``.  Locations closer than 1e-6 mod 1 merge.

    One eigensolve per scan: the twist adds CLIFFORD_SIGN * c times the
    identity (``_twisted``), so the twist-c eigenvalues are mu +
    CLIFFORD_SIGN * c for the untwisted eigenvalues mu.  The mass-doubled
    operator squares to (A^2 + m^2) (x) I, so its eigenvalues are
    +-hypot(mu + CLIFFORD_SIGN * c, m).  A non-finite range end or mass is
    rejected: its scan values would be nan or inf, and the scan would
    report no kernels.
    """
    if not all(math.isfinite(x) for x in (c_from, c_to, mass)):
        raise ContractViolation("twist range and mass must be finite")
    if steps < 3:
        raise ContractViolation("need at least 3 scan steps")
    if c_to <= c_from:
        raise ContractViolation("empty twist range")
    base = build_circle_dirac(grid, Scheme.SPECTRAL, spin, 0.0).matrix
    mu = hermitian_eigenvalues(base).eigenvalues

    def min_abs(c: float) -> float:
        return math.hypot(np.min(np.abs(mu + CLIFFORD_SIGN * c)), mass)

    cs = np.linspace(c_from, c_to, steps)
    vals = np.array([min_abs(c) for c in cs])
    locations = []
    for i in range(len(cs)):
        left = vals[i - 1] if i > 0 else math.inf
        right = vals[i + 1] if i + 1 < len(cs) else math.inf
        if not (vals[i] <= left and vals[i] <= right):
            continue
        a = cs[i - 1] if i > 0 else cs[i]
        b = cs[i + 1] if i + 1 < len(cs) else cs[i]
        c_star, value = _golden_section(min_abs, a, b, 1e-12)
        if value < ktol:
            locations.append(c_star % 1.0)
    deduped = []
    for c in sorted(locations):
        if not deduped or min(abs(c - deduped[-1]), 1.0 - abs(c - deduped[-1])) > 1e-6:
            deduped.append(c)
    return deduped


def gauge_conjugate(d: DiscreteDirac, u: WeightFunction, c: float) -> np.ndarray:
    """Return exp(-i c u) D exp(i c u) as a matrix.

    Only degree-0 weights are admissible: for nonzero degree the
    conjugating function would be multivalued on the circle.  The result
    is a unitary diagonal conjugation, hence isospectral to D.
    """
    if u.degree != 0:
        raise ContractViolation("gauge conjugation needs a degree-0 weight")
    if u.values.size != d.n:
        raise ContractViolation("weight grid does not match operator grid")
    uv = u.values
    return d.matrix * np.exp(-1j * c * (uv[:, None] - uv[None, :]))


def _fft_derivative(p: np.ndarray) -> np.ndarray:
    n = p.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    return np.real(np.fft.ifft(1j * k * np.fft.fft(p)))


def fourier_laplace_family(d: DiscreteDirac, f: WeightFunction, z: complex,
                           branch: int = DEFAULT_LN_BRANCH) -> FourierLaplaceOperator:
    """Conjugate the untwisted one-period operator by z^{f}.

    The conjugation multiplies each hop by z^{(weight drop across the
    hop)}, with the weight continued by its lift across the wrap; the
    difference from D is a zero-order (band-supported) term.  With branch
    ``k``, ln z = log|z| + i (Arg z + 2 pi k); at z = exp(-i c) the result
    is the twist-c operator (exactly in the spectral scheme, to O(h^2)
    interior accuracy for central differences).
    """
    if z == 0:
        raise ContractViolation("z must be nonzero")
    if d.c != 0.0:
        raise ContractViolation("start from the untwisted operator (c = 0)")
    if f.values.size != d.n:
        raise ContractViolation("weight grid does not match operator grid")
    ln_z = cmath.log(z) + 2j * math.pi * branch
    n = d.n
    if d.scheme is Scheme.SPECTRAL:
        theta = grid_angles(n)
        slope = f.degree + _fft_derivative(f.values - f.degree * theta)
        matrix = d.matrix - 1j * ln_z * np.diag(slope)
    else:
        matrix = d.matrix.astype(complex).copy()
        for j in range(n):
            k = (j + 1) % n
            drop = f.values[j] - f.lifted(j + 1)
            factor = cmath.exp(ln_z * drop)
            matrix[j, k] = matrix[j, k] * factor
            matrix[k, j] = matrix[k, j] / factor
    return FourierLaplaceOperator(matrix=matrix, z=complex(z), branch=branch, ln_z=ln_z)


def _period_blocks(matrix: np.ndarray):
    """Split a one-period matrix into (A_-1, A_0, A_1) by nearest-image
    displacement.  Entries whose wrapped displacement crosses the seam go
    to the inter-period blocks; the bandwidth must stay below n/2 for the
    split to be unambiguous."""
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    half = n // 2
    sites = np.arange(n)
    hop = sites[None, :] - sites[:, None]    # k - j
    disp = (hop + half) % n - half           # nearest-image displacement
    nonzero = m != 0
    return tuple(np.where(nonzero & (disp == hop + seam), m, 0)
                 for seam in (-n, 0, n))


def period_symbol(matrix: np.ndarray) -> LaurentSymbol:
    """Banded block Laurent symbol of the periodic lattice operator whose
    one-period block is ``matrix``.  Evaluating it at the Floquet point
    z(c) from ``conventions.twist_to_floquet`` recovers (the spectrum of)
    the twist-c quotient operator."""
    a_m1, a_0, a_p1 = _period_blocks(matrix)
    coeffs = {0: a_0}
    if np.any(a_p1):
        coeffs[1] = a_p1
    if np.any(a_m1):
        coeffs[-1] = a_m1
    return LaurentSymbol(coeffs)


def mass_doubled(matrix: np.ndarray, m: float) -> np.ndarray:
    """Synthetic massive model: double the components per site and couple
    them by an off-diagonal mass.  Eigenvalues become +-sqrt(mu^2 + m^2),
    so the twisted family (and its symbol) stays invertible uniformly in
    the twist, unlike a scalar shift which some twist always cancels."""
    a = np.asarray(matrix, dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return np.kron(a, sz) + m * np.kron(np.eye(a.shape[0]), sx)


def spectrum_sample(matrix: np.ndarray, band: Optional[int] = None) -> SpectrumSample:
    """Eigenvalues of a Hermitian matrix packaged as a SpectrumSample."""
    eig = hermitian_eigenvalues(matrix).eigenvalues
    if band is None:
        band = int(math.ceil(float(np.max(np.abs(eig))))) or 1
    return SpectrumSample.from_eigenvalues(eig, band=band)
