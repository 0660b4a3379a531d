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

The kernels of the twisted spectral family are read off the closed-form
lattice by ``spectra.kernel_twists``, with no build here and no
eigensolve; ``spectra.circle_modes`` returns that lattice as a list of
floats, which ``build_circle_dirac`` turns into an array.
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
from .floquet import LaurentSymbol
from .linalg import hermitian_eigenvalues, is_hermitian
from .spectra import SpectrumSample, SpinStructure, _check_grid, circle_modes

__all__ = [
    "Scheme",
    "DiscreteDirac",
    "WeightFunction",
    "FourierLaplaceOperator",
    "grid_angles",
    "build_circle_dirac",
    "gauge_conjugate",
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


def _wrap_sign(spin: SpinStructure) -> float:
    return -1.0 if spin is SpinStructure.BOUNDING else 1.0


def build_circle_dirac(n: int, scheme: Scheme, spin: SpinStructure,
                       c: float = 0.0) -> DiscreteDirac:
    """Discretize the twisted circle operator on n grid sites.

    Both schemes shift by the scalar twist term, which acts as -c under
    the recorded Clifford sign.  The spectral scheme's eigenvalues are the
    negated ``spectra.circle_modes`` for k = -n/2 .. n/2 - 1, shifted by
    -c, to machine precision (``spectra.kernel_twists`` reads them without
    this build); the central-difference ones agree to O(h^2) away from the
    band edge.
    """
    _check_grid(n)
    theta = grid_angles(n)
    if scheme is Scheme.SPECTRAL:
        modes = np.array(circle_modes(spin, -n // 2, n // 2))
        f = np.exp(-1j * np.outer(modes, theta)) / math.sqrt(n)
        m = (f.conj().T * -modes) @ f
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
    return LaurentSymbol(dict(zip((-1, 0, 1), _period_blocks(matrix))))


def mass_doubled(matrix: np.ndarray, m: float) -> np.ndarray:
    """Synthetic massive model: double the components per site and couple
    them by an off-diagonal mass.  Eigenvalues become +-sqrt(mu^2 + m^2),
    so the twisted family (and its symbol) stays invertible uniformly in
    the twist, unlike a scalar shift which some twist always cancels."""
    a = np.asarray(matrix, dtype=complex)
    out = np.zeros((2 * a.shape[0], 2 * a.shape[0]), dtype=complex)
    out[0::2, 0::2] = a   # kron(a, sz) + m kron(1, sx), strided
    out[1::2, 1::2] = -a
    np.fill_diagonal(out[0::2, 1::2], m)
    np.fill_diagonal(out[1::2, 0::2], m)
    return out


def spectrum_sample(matrix: np.ndarray, band: Optional[int] = None) -> SpectrumSample:
    """Eigenvalues of a Hermitian matrix packaged as a SpectrumSample."""
    eig = hermitian_eigenvalues(matrix).eigenvalues
    if band is None:
        band = int(math.ceil(float(np.max(np.abs(eig))))) or 1
    return SpectrumSample.from_eigenvalues(eig, band=band)
