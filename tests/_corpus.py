"""Deterministic symbol corpora and independent oracles shared by the
engine tests and the acceptance suite."""

import numpy as np

from spinspec.errors import ContractViolation
from spinspec.floquet import LaurentSymbol
from spinspec.linalg import as_matrix


def singular_values(m) -> np.ndarray:
    """Singular values sorted descending; count = min(rows, cols)."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


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


def _random_hermitian_symmetric(rng, block, bandwidth):
    coeffs = {0: None}
    a0 = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
    coeffs[0] = a0 + a0.conj().T
    for j in range(1, bandwidth + 1):
        aj = rng.normal(size=(block, block)) + 1j * rng.normal(size=(block, block))
        coeffs[j] = aj
        coeffs[-j] = aj.conj().T
    return coeffs


def _min_eig_on_circle(coeffs, grid=720):
    lows = []
    for theta in 2 * np.pi * np.arange(grid) / grid:
        z = np.exp(1j * theta)
        a = sum(c * z ** j for j, c in coeffs.items())
        lows.append(np.linalg.eigvalsh(a).min())
    return min(lows)


def _shift_positive(coeffs, margin=0.25):
    low = _min_eig_on_circle(coeffs)
    block = coeffs[0].shape[0]
    out = dict(coeffs)
    out[0] = coeffs[0] + (margin - low) * np.eye(block)
    return out


def _convolve(scalar_coeffs, coeffs):
    out = {}
    for i, s in scalar_coeffs.items():
        for j, c in coeffs.items():
            out[i + j] = out.get(i + j, 0) + s * c
    return out


def invertible_symbols():
    """Ten symbols with sigma_min > 0.1 everywhere on the unit circle."""
    rng = np.random.default_rng(2024)
    out = [
        LaurentSymbol.scalar({0: -2, 1: 1}),        # z - 2
        LaurentSymbol.scalar({-1: 1, 0: -3}),       # 1/z - 3
        LaurentSymbol.scalar({-1: 1, 0: 3, 1: 1}),  # 3 + 2 cos(theta)
        LaurentSymbol.scalar({-1: 0.5, 0: 2.0, 1: 0.5}),
    ]
    for block, bandwidth in ((1, 1), (2, 1), (2, 2), (1, 2), (2, 1), (2, 2)):
        coeffs = _shift_positive(_random_hermitian_symmetric(rng, block, bandwidth))
        out.append(LaurentSymbol(coeffs))
    return out


def circle_zero_symbols():
    """Ten symbols whose determinant vanishes somewhere on |z| = 1."""
    rng = np.random.default_rng(7)
    theta0 = 2.0
    pinch = {0: 2.0, 1: -np.exp(-1j * theta0), -1: -np.exp(1j * theta0)}
    out = [
        LaurentSymbol.scalar({0: -1, 1: 1}),              # z - 1
        LaurentSymbol.scalar({0: 1, 1: 1}),               # z + 1
        LaurentSymbol.scalar({0: -np.exp(1j * 0.8), 1: 1}),
        LaurentSymbol.scalar({-1: 1, 0: -2, 1: 1}),       # -(discrete Laplacian)
        LaurentSymbol.scalar(pinch),
    ]
    for block, bandwidth in ((2, 1), (1, 1), (2, 1), (2, 2), (1, 2)):
        coeffs = _shift_positive(_random_hermitian_symmetric(rng, block, bandwidth))
        out.append(LaurentSymbol(_convolve(
            {0: 2.0, 1: -np.exp(-1j * theta0), -1: -np.exp(1j * theta0)}, coeffs)))
    return out[:10]


def winding_test_symbols():
    """Twelve scalar symbols with winding -2..2 and roots at least 0.2
    away from the unit circle, as (symbol, expected winding) pairs."""
    cases = [
        ((0.5, -0.5), 0, 2),
        ((0.4, -0.6), 0, 2),
        ((0.5,), 0, 1),
        ((0.3, 2.0), 0, 1),
        ((0.7j,), 0, 1),
        ((2.0,), 0, 0),
        ((1.5, -1.8), 0, 0),
        ((1.0 / 3.0,), 1, 0),
        ((0.5, 3.0), 2, -1),
        ((1.3,), 1, -1),
        ((1.5, -2.0), 2, -2),
        ((1.25, 3.0), 2, -2),
    ]
    out = []
    for roots, s, winding in cases:
        poly = np.poly(list(roots)) if roots else np.array([1.0])
        deg = len(roots)
        coeffs = {deg - i - s: poly[i] for i in range(deg + 1)}
        out.append((LaurentSymbol.scalar(coeffs), winding))
    return out


def half_line_kernel_dims(symbol, periods=256, tol=1e-6):
    """Independent oracle: kernel and cokernel dimensions of the
    half-line compression, from tall rectangular truncations (the extra
    rows prevent artificial truncation kernels).  Block (i, j) carries
    the coefficient of index i - j, the classical compression layout."""
    nb = symbol.block_size
    d = symbol.bandwidth

    def tall_kernel(coeffs) -> int:
        rows, cols = periods + 2 * d, periods
        big = np.zeros((rows * nb, cols * nb), dtype=complex)
        for off, block in coeffs.items():
            for col in range(cols):
                row = col + off
                if 0 <= row < rows:
                    big[row * nb:(row + 1) * nb, col * nb:(col + 1) * nb] = block
        return numeric_kernel_dim(big, tol)

    adjoint = {-j: a.conj().T for j, a in symbol.coeffs.items()}
    return tall_kernel(symbol.coeffs), tall_kernel(adjoint)


def section_index_oracle(symbol, periods=256, tol=1e-6):
    ker, coker = half_line_kernel_dims(symbol, periods, tol)
    return ker - coker
