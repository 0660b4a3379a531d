"""Deterministic symbol corpora and independent oracles shared by the
engine tests and the acceptance suite, and the problem-file writers and
fixture-corpus reader the tests use."""

import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Callable, List

import numpy as np
from hypothesis import strategies as st

from spinspec.conventions import CLIFFORD_SIGN, DEFAULT_TOL, GROUPING_TOL
from spinspec.errors import ContractViolation, ParseError
from spinspec.floquet import LaurentSymbol
from spinspec.invariants import (IntersectionForm, KOElement, Mod2Rational, _as_fraction,
                                 beta, rohlin, w_cs, w_invariant)
from spinspec.linalg import as_matrix
from spinspec.problemfile import _build_record, _split_sections
from spinspec.spectra import SpectrumSample, SpinStructure


def singular_values(m) -> np.ndarray:
    """Singular values sorted descending; count = min(rows, cols)."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def golden_section(f: Callable[[float], float], a: float, b: float, xtol: float):
    """Reference golden-section minimiser over [a, b] with the polish's
    stop rule, b - a <= xtol or 200 steps; returns (x, f(x)) of the better
    interior point.  Kept here so that references stay independent of the
    library's own minimiser."""
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


def permuted_block_diagonal_symbols():
    """Twelve direct sums of two to five random pieces, of sizes 1-4 and
    bandwidth 1-2 each, under a random permutation of rows and columns.
    Every other one is Hermitian-symmetric; every third one has a 1 x 1
    piece with a zero on the unit circle, and the other pieces keep
    sigma_min >= 0.25."""
    rng = np.random.default_rng(31)
    out = []
    for case in range(12):
        hermitian = case % 2 == 0
        pieces = []
        for size in rng.integers(1, 5, size=rng.integers(2, 6)).tolist():
            bandwidth = int(rng.integers(1, 3))
            if hermitian:
                pieces.append(_shift_positive(_random_hermitian_symmetric(rng, size, bandwidth)))
            else:
                piece = {j: rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
                         for j in range(-bandwidth, bandwidth + 1)}
                # a dominant A_k keeps sigma_min >= 1 on the circle and
                # winds det A(z) k * size times
                k = int(rng.integers(-bandwidth, bandwidth + 1))
                others = sum(np.linalg.norm(a, 2) for j, a in piece.items() if j != k)
                piece[k] = (others + 1.0) * np.eye(size) + 0.1 * piece[k]
                pieces.append(piece)
        if case % 3 == 2:
            pieces.append({-1: np.ones((1, 1)), 0: -2 * np.ones((1, 1)), 1: np.ones((1, 1))}
                          if hermitian else {0: -np.ones((1, 1)), 1: np.ones((1, 1))})
        n = sum(next(iter(piece.values())).shape[0] for piece in pieces)
        coeffs, start = {}, 0
        for piece in pieces:
            size = next(iter(piece.values())).shape[0]
            for j, a in piece.items():
                coeffs.setdefault(j, np.zeros((n, n), complex))[start:start + size,
                                                               start:start + size] = a
            start += size
        perm = rng.permutation(n)
        out.append(LaurentSymbol({j: a[perm][:, perm] for j, a in coeffs.items()}))
    return out


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


def perfbench_module(name: str):
    """The module ``perfbench/<name>.py`` of this repository, loaded once."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[key]


@functools.lru_cache(maxsize=None)
def rescaling_symbols():
    """Fifty-two symbols for the rescaling tests, built once: the
    invertible, circle-zero, winding and permuted block-diagonal corpora;
    for blocks 2, 4 and 8 a conjugated diagonal symbol and a Hermitian
    family shaped as the floquet-batch benchmark builds them (seed 3, half
    the rows crossing); and the steep circle zeros c (z - e^i), c = 100
    and 1000, whose Lipschitz bounds exceed the others' by far."""
    workloads = perfbench_module("workloads")
    out = (invertible_symbols() + circle_zero_symbols()
           + [s for s, _ in winding_test_symbols()] + permuted_block_diagonal_symbols())
    for n in (2, 4, 8):
        out.append(LaurentSymbol(workloads._diagonal_symbol(
            np.random.default_rng(3), n, 1, 1.0, False)[0]))
        out.append(LaurentSymbol(workloads._hermitian_family(
            np.random.default_rng(3), n, 50, n // 2, 1.0)[0]))
    out += [LaurentSymbol.scalar({0: -c * np.exp(1j), 1: c}) for c in (100, 1000)]
    return tuple(out)


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


def spectrum_contains(sample, x: float, tol: float = GROUPING_TOL) -> bool:
    """Whether a ``SpectrumSample`` has an eigenvalue within ``tol`` of x."""
    return any(abs(lam - x) <= tol for lam, _ in sample.pairs)


def lichnerowicz_bound_check(spectrum_sq, kappa_min: float, tol: float = DEFAULT_TOL) -> bool:
    """Check a squared spectrum against the scalar-curvature bound
    min >= kappa_min / 4 - tol.  The twisting connection is flat, so the
    twist contributes no curvature term."""
    vals = np.array([lam for lam, _ in spectrum_sq.pairs])
    if np.any(vals < -tol):
        raise ContractViolation("squared spectrum has negative entries")
    return bool(vals.min() >= kappa_min / 4.0 - tol)


def numpy_circle_modes(spin: SpinStructure, k_from: int, k_to: int) -> np.ndarray:
    """The circle lattice k + 1/2 (bounding) or k, k_from <= k < k_to, as
    an np.arange: the array ``spectra.circle_modes`` lists."""
    offset = 0.5 if spin is SpinStructure.BOUNDING else 0.0
    return np.arange(k_from, k_to, dtype=float) + offset


def numpy_circle_spectrum(spin: SpinStructure, c: float, band: int) -> SpectrumSample:
    """Oracle of ``spectra.circle_spectrum``: the np.arange lattice,
    shifted and sorted in numpy and grouped by ``from_eigenvalues``."""
    vals = numpy_circle_modes(spin, -band, band + 1) + CLIFFORD_SIGN * float(c)
    return SpectrumSample.from_eigenvalues(vals, band=band)


def numpy_kernel_twists(spin: SpinStructure, c_from: float, c_to: float, grid: int,
                        mass: float, ktol: float) -> list:
    """Oracle of ``spectra.kernel_twists`` on valid input: every one of the
    ``grid`` lattice modes mu at once, its kernel twist clipped to the
    range, its |eigenvalue| there by np.hypot, and the same merge."""
    mu = -numpy_circle_modes(spin, -grid // 2, grid // 2)
    cs = np.clip(-CLIFFORD_SIGN * mu, c_from, c_to)
    gaps = np.hypot(mu + CLIFFORD_SIGN * cs, mass)
    kept = gaps < ktol
    merged = []  # (twist mod 1, |eigenvalue|)
    for c, gap in sorted(zip((cs[kept] % 1.0).tolist(), gaps[kept].tolist())):
        if merged and min(abs(c - merged[-1][0]), 1.0 - abs(c - merged[-1][0])) <= 1e-6:
            if gap < merged[-1][1]:
                merged[-1] = (c, gap)
        else:
            merged.append((c, gap))
    return [c for c, _ in merged]


def least_holding_grid(spin: SpinStructure, c_from: float, c_to: float, ktol: float) -> int:
    """The least even grid >= 8 whose lattice holds every kernel twist
    CLIFFORD_SIGN * (k + offset) within ktol + 1 of [c_from, c_to]."""
    offset = 0.5 if spin is SpinStructure.BOUNDING else 0.0
    ends = sorted(CLIFFORD_SIGN * c - offset for c in (c_from - ktol - 1, c_to + ktol + 1))
    k_min, k_max = math.ceil(ends[0]), math.floor(ends[1])
    return max(8, -2 * k_min, 2 * k_max + 2)


@dataclass(frozen=True)
class AlphaS1:
    """Index class of a manifold mapped to the circle: a component in
    dimension n plus a fiber component in dimension n - 1."""

    top: KOElement
    fiber: KOElement

    @property
    def is_zero(self) -> bool:
        return self.top.is_zero and self.fiber.is_zero


def alpha_s1(n: int, alpha_top: KOElement, alpha_fiber: KOElement) -> AlphaS1:
    if alpha_top.n % 8 != n % 8:
        raise ContractViolation("top component lives in the wrong dimension")
    if alpha_fiber.n % 8 != (n - 1) % 8:
        raise ContractViolation("fiber component lives in the wrong dimension")
    return AlphaS1(top=alpha_top, fiber=alpha_fiber)


def w_mod2_equals_rohlin(ind_plus: int, sig_w: int) -> bool:
    """The lift ind + sign(W)/8 reduces mod 2 to the Rohlin invariant.  The
    chiral index is even (quaternionic linearity); an odd one is rejected."""
    if ind_plus % 2 != 0:
        raise ContractViolation("chiral index must be even (quaternionic)")
    return (w_invariant(ind_plus, sig_w) - Fraction(sig_w, 8)) % 2 == 0


def w_cs_mod2_matches_beta(ind_plus: int, sig_w: int, sig_v: int) -> bool:
    """For even chiral index, w_cs reduces mod 2 to beta(rohlin(sig_w), sig_v)."""
    if ind_plus % 2 != 0:
        raise ContractViolation("chiral index must be even (quaternionic)")
    return Mod2Rational(w_cs(ind_plus, sig_w, sig_v)).same_mod2(beta(rohlin(sig_w), sig_v))


def parse_records(text: str) -> List[dict]:
    """Parse a fixture file: a list of [invariant] records."""
    out = []
    for sec in _split_sections(text):
        if sec.header != "invariant":
            raise ParseError(f"expected [invariant], found [{sec.header}]", sec.line)
        out.append(_build_record(sec))
    return out


def load_fixture_records() -> List[dict]:
    """The worked-example corpus shipped with the package."""
    text = resources.files("spinspec.data").joinpath("worked_invariants.txt").read_text()
    return parse_records(text)


def expected_matches(record: dict, value) -> bool:
    """Compare an evaluated record against its 'expect' field: the mod-2
    residue for Mod2Rational, the exact rational mod 2 for lifts, the
    group element value for KO classes."""
    if "expect" not in record:
        raise ContractViolation("record has no 'expect' field")
    want = _as_fraction(record["expect"])
    if isinstance(value, Mod2Rational):
        return value.residue == want
    if isinstance(value, Fraction):
        return Mod2Rational(value).residue == want
    if isinstance(value, KOElement):
        return value.value == want
    raise ContractViolation(f"cannot compare {value!r} against an expectation")


def _fmt_complex(v: complex) -> str:
    re_part, im_part = float(v.real), float(v.imag)
    if im_part == 0:
        return repr(re_part)
    return f"{re_part!r}{im_part:+}j"


def symbol_to_text(s: LaurentSymbol) -> str:
    """A [symbol] problem file that parses back to ``s``."""
    lines = ["[symbol]", f"block-size: {s.block_size}", f"bandwidth: {s.bandwidth}"]
    for j in sorted(s.coeffs):
        lines.append("")
        lines.append(f"[coeff {j}]")
        for row in s.coeffs[j]:
            lines.append(" ".join(_fmt_complex(v) for v in row))
    return "\n".join(lines) + "\n"


_RANKS = {"E8": 8, "H": 2, "K3": 22}


@st.composite
def signed_spec(draw, max_rank: int = 64):
    """A form spec of signed, repeated E8, H, K3 and Diag(...) terms."""
    terms, rank = [], 0
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["E8", "H", "K3", "Diag"]))
        if kind == "Diag":
            entries = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
            kind = "Diag(" + ",".join(map(str, entries)) + ")"
            size = len(entries)
        else:
            size = _RANKS[kind]
        count = draw(st.integers(1, 3))
        if rank + count * size > max_rank:
            break
        rank += count * size
        terms.append(("-" if draw(st.booleans()) else "") + (str(count) if count > 1 else "")
                     + kind)
    return "+".join(terms or ["H"])


def form_to_text(f: IntersectionForm) -> str:
    """A [form] problem file that parses back to ``f``."""
    lines = ["[form]", f"name: {f.name}"]
    for row in f.matrix:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
