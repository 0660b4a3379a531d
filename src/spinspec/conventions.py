"""Sign and tolerance conventions used across the toolkit.

Every statement with convention-dependent content (which way a twisted
eigenvalue moves, which unit-circle point witnesses a kernel, the sign of
a half-line index) refers back to the constants below.  Mod-1 statements
about twist parameters and all mod-2 invariant values are independent of
these choices.
"""

from __future__ import annotations

import math
import sys

# Clifford multiplication by the circle's volume form acts as +i on the
# rank-1 spinor bundle, so the twist term `i c f*(dtheta)` acts as the real
# scalar  -c.  Twisted circle spectra are {k + 1/2 - c} (bounding spin
# structure) and {k - c} (non-bounding).
CLIFFORD_SIGN = -1

# Relation between the twist coefficient c and the Floquet variable of a
# block Laurent symbol extracted from a one-period circle discretization:
#     z(c) = exp(-2*pi*i * c * CLIFFORD_SIGN)
# so a kernel of the twisted operator at c shows up as a symbol kernel at
# that unit-circle point.
def twist_to_floquet(c: float) -> complex:
    return complex(math.cos(2.0 * math.pi * c * -CLIFFORD_SIGN),
                   math.sin(2.0 * math.pi * c * -CLIFFORD_SIGN))


# Its inverse on the unit circle: the twist c in [0, 1) with z(c) = z/|z|.
# An angle a rounding below 0 would give c a few ulps under 1; it is 0.
def floquet_to_twist(z: complex) -> float:
    c = (math.atan2(z.imag, z.real) / (2.0 * math.pi * -CLIFFORD_SIGN)) % 1.0
    return 0.0 if 1.0 - c <= 4 * sys.float_info.epsilon else c


# Index of the half-line (Toeplitz) compression of a Fredholm Laurent
# symbol:  index = -winding(det A(z)) as z runs counterclockwise over the
# unit circle.  The full-line operator with invertible symbol has index 0.
INDEX_SIGN = -1

# Logarithm branches: branch k means  ln z = log|z| + i*(Arg z + 2*pi*k)
# with Arg the principal argument in (-pi, pi].
DEFAULT_LN_BRANCH = 0

# Default relative tolerance for dense numerical linear algebra.
DEFAULT_TOL = 1e-9

# Relative tolerance of the one Hermiticity rule (``linalg.is_hermitian``):
# ||M - M^H||_F <= HERMITICITY_TOL * ||M||_F.
HERMITICITY_TOL = 1e-12

# Absolute tolerance separating symbol kernels from small positive minima
# of the singular value over the unit circle.
FREDHOLM_TOL = 1e-6

# Resolution of the certified unit-circle scan: its minimum is within
# L*pi/CIRCLE_GRID of the true one (L the symbol's Lipschitz bound), the
# guarantee of a uniform scan of CIRCLE_GRID points.  REFINE_TOL is the
# accuracy of the Brent polish that follows the scan: absolute for
# L >= 1, relative to L below.
CIRCLE_GRID = 512
REFINE_TOL = 1e-8

# Absolute tolerance for merging numerically equal eigenvalues into one
# (eigenvalue, multiplicity) pair.
GROUPING_TOL = 1e-7

# Spectrum comparisons drop this many outermost eigenvalues on each side;
# band-truncated spectra legitimately differ at the edges.
EDGE_EXCLUSION = 2


def convention_block() -> dict:
    """Machine-readable summary, emitted by the CLI so scripts can pin it."""
    return {
        "clifford_sign": CLIFFORD_SIGN,
        "twist_action": "i*c*f*(dtheta) acts as the real scalar -c",
        "circle_spectra": "bounding {k + 1/2 - c}, non-bounding {k - c}",
        "index_convention": "half-line index = -winding(det A(z))",
        "ln_branch": "branch k: ln z = log|z| + i*(Arg z + 2*pi*k)",
        "twist_to_floquet": "z(c) = exp(-2*pi*i*c*clifford_sign)",
        "fredholm_tol": FREDHOLM_TOL,
        "default_tol": DEFAULT_TOL,
        "grouping_tol": GROUPING_TOL,
        "edge_exclusion": EDGE_EXCLUSION,
    }
