"""Seeded problem generators and independent oracles for the three workloads.

Each workload is a fixed list of problem templates: which command, which
size, which kind of input.  The seed fills in the numbers (unitary
conjugations, magnitudes, phases, crossing locations, signs, term order,
twist ranges), so every seed costs about the same while no two seeds pose
the same problems.  Every problem carries an oracle computed here from the
generating data, never by the library:

* conjugated diagonal symbols U diag(p_i z^j_i + q_i z^k_i) U^*:
  sigma_min = min_i ||p_i| - |q_i||, index = -sum_i (j_i + (k_i - j_i) [|q_i| > |p_i|]);
* Hermitian families U diag(m_i + t_i z + conj(t_i) / z) U^*: the crossings
  of m_i + 2 |t_i| cos(2 pi c + arg t_i) through 0, in closed form;
* intersection forms: rank, inertia and signature by additivity;
* invariants and product spectra: exact ``Fraction`` formulas;
* twist scans and finite sections: closed-form circle spectra.

Known defects of the program stay in the mix (``Problem.defect`` names the
family); the harness counts them as failures.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from spinspec import discretize, floquet, spectra

WORKLOADS = ("floquet-batch", "exact-forms", "twist-sections")

FREDHOLM_TOL = 1e-6
CIRCLE_GRID = 512  # the CLI's default scan grid, used by the Lipschitz check


@dataclass
class Problem:
    """One problem: a CLI argv (run through ``spinspec.cli.main``) or a
    library ``call``; ``check`` maps the answer to None when it agrees with
    the oracle, else to a reason."""

    pid: str
    check: Callable[[object], Optional[str]]
    argv: Optional[List[str]] = None
    call: Optional[Callable[[], object]] = None
    defect: Optional[str] = None


# --------------------------------------------------------------------------
# helpers


def _num(v: complex) -> str:
    return f"{float(v.real)!r}{float(v.imag):+}j"


def _write_symbol(path: str, coeffs: dict) -> None:
    n = next(iter(coeffs.values())).shape[0]
    lines = ["[symbol]", f"block-size: {n}",
             f"bandwidth: {max(abs(j) for j in coeffs)}"]
    for j in sorted(coeffs):
        lines += ["", f"[coeff {j}]"]
        lines += [" ".join(_num(v) for v in row) for row in coeffs[j]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _conjugate(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    return (u * diag) @ u.conj().T


def _phase(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _circ_dist(a: float, b: float) -> float:
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


# --------------------------------------------------------------------------
# floquet-batch

# Offset pairs (j, k), j < k, of the two-term diagonal entries p z^j + q z^k.
_PAIRS = {1: [(0, 1), (-1, 0), (-1, 1)],
          2: [(0, 1), (-1, 0), (-1, 1), (0, 2), (-2, 0), (1, 2), (-2, -1)]}


def _diagonal_symbol(rng, n: int, bw: int, scale: float, degenerate: bool):
    """Conjugated diagonal symbol with every entry's gap ||p| - |q|| at
    least 0.1 * scale, except one exact zero gap when ``degenerate``."""
    coeffs = {}
    sigma, winding, lip = math.inf, 0, {}
    for i in range(n):
        j, k = _PAIRS[bw][rng.integers(len(_PAIRS[bw]))]
        big = rng.uniform(1.0, 2.0) * scale
        small = big * rng.uniform(0.1, 0.85)
        if degenerate and i == n - 1:
            small = big
        if rng.random() < 0.35:
            p, q = small, big
        else:
            p, q = big, small
        winding += j + (k - j) * (q > p)
        sigma = min(sigma, abs(p - q))
        coeffs.setdefault(j, np.zeros(n, complex))[i] = p * _phase(rng)
        coeffs.setdefault(k, np.zeros(n, complex))[i] = q * _phase(rng)
        lip[j] = max(lip.get(j, 0.0), p)
        lip[k] = max(lip.get(k, 0.0), q)
    u = _unitary(rng, n)
    blocks = {j: _conjugate(u, d) for j, d in coeffs.items()}
    lipschitz = sum(abs(j) * v for j, v in lip.items())
    return blocks, sigma, -winding, lipschitz


def _check_fredholm(sigma: float, index: Optional[int], lipschitz: float, scale: float):
    slack = lipschitz * math.pi / CIRCLE_GRID + 1e-8 * scale

    def check(res) -> Optional[str]:
        got = res["min_singular"]["value"]
        if not (sigma - 1e-8 * scale <= got <= sigma + slack):
            return f"min_singular {got!r}, oracle {sigma!r} (+{slack:.3g})"
        fred = sigma > FREDHOLM_TOL
        if res["is_fredholm"] is not fred:
            return f"is_fredholm {res['is_fredholm']}, oracle {fred}"
        if res["index"] is not None and (not fred or res["index"] != index):
            return f"index {res['index']}, oracle {index if fred else None}"
        return None
    return check


def _check_index(index: int):
    def check(res) -> Optional[str]:
        return None if res["index"] == index else f"index {res['index']}, oracle {index}"
    return check


def _place_crossings(rng, steps: int, branches: int):
    """Crossing pairs (c_down, c_up), every crossing in its own scan
    interval and at least 15% of a step away from the scan points, the two
    crossings of a branch 0.1 to 0.9 apart."""
    free = list(rng.permutation(steps))
    pairs = []
    while len(pairs) < branches:
        a = free.pop()
        for b in free:
            if 0.1 <= ((b - a) / steps) % 1.0 <= 0.9:
                free.remove(b)
                break
        else:
            continue
        c1, c2 = ((x + rng.uniform(0.15, 0.85)) / steps for x in (a, b))
        pairs.append((c1, c2))
    return pairs


def _hermitian_family(rng, n: int, steps: int, branches: int, scale: float):
    """U diag(m + t z + conj(t)/z) U^*: eigenvalues m + 2|t| cos(2 pi c + arg t)
    at z = exp(2 pi i c); ``branches`` of them cross zero twice."""
    m = np.zeros(n)
    t = np.zeros(n, complex)
    crossings = []
    for i, (c1, c2) in enumerate(_place_crossings(rng, steps, branches)):
        alpha = math.pi * ((c1 - c2) % 1.0)
        mag = rng.uniform(0.5, 2.0)
        m[i] = -2.0 * mag * math.cos(alpha)
        t[i] = mag * complex(np.exp(1j * (alpha - 2.0 * math.pi * c1)))
        crossings += [(c1, -1), (c2, 1)]
    for i in range(branches, n):
        mag = rng.uniform(0.5, 2.0)
        m[i] = rng.choice([-1.0, 1.0]) * 2.0 * mag * rng.uniform(1.15, 1.6)
        t[i] = mag * _phase(rng)
    u = _unitary(rng, n)
    a0 = _conjugate(u, m * scale)
    a0 = 0.5 * (a0 + a0.conj().T)
    a1 = _conjugate(u, t * scale)
    return {0: a0, 1: a1, -1: a1.conj().T.copy()}, sorted(crossings)


def _check_flow(crossings):
    def check(res) -> Optional[str]:
        got = [(x["parameter"]["value"], x["direction"]) for x in res["crossings"]]
        if len(got) != len(crossings):
            return f"{len(got)} crossings, oracle {len(crossings)}"
        for (c, d), (co, do) in zip(got, crossings):
            if d != do or not _close(c, co, 1e-6):
                return f"crossing ({c!r}, {d}), oracle ({co!r}, {do})"
        if res["flow"] != sum(d for _, d in crossings):
            return f"flow {res['flow']}, oracle {sum(d for _, d in crossings)}"
        return None
    return check


def _floquet_batch(rng, workdir: str) -> List[Problem]:
    problems = []

    def path(tag: str) -> str:
        return os.path.join(workdir, f"{len(problems):03d}-{tag}.txt")

    def scale(decade: int) -> float:
        return 10.0 ** (decade + rng.uniform(-0.5, 0.5))

    # (command, block size, bandwidth, scale decade); decades stay within
    # +-1 above block size 16 so det A(z) fits double range on these inputs.
    templates = ([("fredholm", 8, 1, 0)]
                 + [("fredholm", n, 1 + (n % 3 == 0), e) for n, e in
                    ((1, -3), (2, 3), (3, -2), (4, 2), (6, -1), (12, 1), (16, -3), (24, 1),
                     (32, -1), (64, 0))]
                 + [("index", n, 1 + (n % 2 == 0), e) for n, e in
                    ((1, 3), (2, -3), (3, 2), (4, -2), (6, 1), (8, -1), (12, 0), (16, 3), (32, 1))])
    for cmd, n, bw, decade in templates:
        sc = scale(decade)
        blocks, sigma, index, lip = _diagonal_symbol(rng, n, bw, sc, degenerate=False)
        f = path(f"{cmd}-n{n}")
        _write_symbol(f, blocks)
        if cmd == "fredholm":
            check = _check_fredholm(sigma, index, lip, sc)
        else:
            check = _check_index(index)
        problems.append(Problem(f"{cmd}-n{n}", check, [cmd, f, "--tol", repr(FREDHOLM_TOL)]))

    for n, decade in ((2, 2), (8, -2), (16, 0)):
        sc = scale(decade)
        blocks, sigma, index, lip = _diagonal_symbol(rng, n, 1, sc, degenerate=True)
        f = path(f"nonfredholm-n{n}")
        _write_symbol(f, blocks)
        problems.append(Problem(f"fredholm-nonfredholm-n{n}",
                                _check_fredholm(0.0, None, lip, sc),
                                ["fredholm", f, "--tol", repr(FREDHOLM_TOL)]))

    # Known defect: det A(z) overflows double range, winding refinement fails.
    n = 128
    f = path("overflow-n128")
    _write_symbol(f, {0: 300.0 * np.eye(n, dtype=complex), 1: 50.0 * np.eye(n, dtype=complex)})
    problems.append(Problem("fredholm-overflow-n128", _check_fredholm(250.0, 0, 50.0, 300.0),
                            ["fredholm", f, "--tol", repr(FREDHOLM_TOL)],
                            defect="det-overflow"))

    for n, branches, steps, decade in ((1, 0, 50, 1), (2, 1, 40, -2), (3, 1, 64, 2),
                                       (4, 2, 50, -1), (6, 2, 40, 0), (8, 3, 64, 2),
                                       (12, 3, 50, -2), (16, 4, 40, 1), (24, 4, 64, -1),
                                       (32, 5, 50, 0)):
        blocks, crossings = _hermitian_family(rng, n, steps, branches, scale(decade))
        f = path(f"flow-n{n}")
        _write_symbol(f, blocks)
        problems.append(Problem(f"spectral-flow-n{n}", _check_flow(crossings),
                                ["spectral-flow", f, "--steps", str(steps)]))

    # Known defect: a 1x1 Hermitian symbol that crosses zero fails the
    # Hermiticity check relative to ||A(z)||, which vanishes at the crossing.
    steps = 50
    blocks, crossings = _hermitian_family(rng, 1, steps, 1, scale(0))
    f = path("flow-1x1-crossing")
    _write_symbol(f, blocks)
    problems.append(Problem("spectral-flow-1x1-crossing", _check_flow(crossings),
                            ["spectral-flow", f, "--steps", str(steps)],
                            defect="hermitian-1x1-crossing"))
    return problems


# --------------------------------------------------------------------------
# exact-forms

_E8 = (8, 0, 0, 16)  # (n_plus, n_minus, n_zero, trace)
_H = (1, 1, 0, 0)
_K3 = (3, 19, 0, -32)


def _form_term(rng, kind: str, count: int, allow_negative: bool = True):
    """One spec term and its (n_plus, n_minus, n_zero, trace)."""
    if kind == "Diag":
        entries = [int(x) for x in rng.integers(-3, 4, size=count)]
        name = "Diag(" + ",".join(map(str, entries)) + ")"
        data = (sum(e > 0 for e in entries), sum(e < 0 for e in entries),
                sum(e == 0 for e in entries), sum(entries))
        count = 1
    else:
        name = kind
        data = {"E8": _E8, "H": _H, "K3": _K3}[kind]
    neg = allow_negative and rng.random() < 0.4
    if neg:
        data = (data[1], data[0], data[2], -data[3])
    text = ("-" if neg else "") + (str(count) if count > 1 else "") + name
    return text, tuple(count * x for x in data)


def _check_form(npos: int, nneg: int, nzero: int, trace: int):
    rank = npos + nneg + nzero

    def check(res) -> Optional[str]:
        want = {"rank": rank, "signature": npos - nneg, "inertia": [npos, nneg, nzero]}
        got = {key: res[key] for key in want}
        if got != want:
            return f"{got}, oracle {want}"
        m = res["matrix"]
        if len(m) != rank or any(len(row) != rank for row in m):
            return "matrix has the wrong shape"
        if sum(m[i][i] for i in range(rank)) != trace:
            return f"matrix trace {sum(m[i][i] for i in range(rank))}, oracle {trace}"
        return None
    return check


# Sum templates: (kind, count) terms; the seed picks signs, order and Diag
# entries, so the rank (and hence the cost) of each template is fixed.
_SUM_TEMPLATES = [
    [("E8", 1), ("E8", 1), ("H", 3)],
    [("K3", 1)],
    [("H", 2), ("Diag", 4)],
    [("E8", 2), ("H", 1)],
    [("Diag", 6), ("E8", 1)],
    [("K3", 1), ("H", 1)],
    [("E8", 1), ("Diag", 3), ("H", 2), ("E8", 1)],
    [("K3", 2), ("E8", 1)],
    [("E8", 6), ("H", 2)],
    [("K3", 3)],
    [("E8", 4), ("H", 5), ("Diag", 8)],
    [("K3", 2), ("E8", 3), ("H", 4)],
    [("K3", 8), ("E8", 2)],
]


def _mod2(value: Fraction) -> Fraction:
    return value - 2 * math.floor(value / 2)


def _check_mod2(value: Fraction):
    def check(res) -> Optional[str]:
        got = (Fraction(res["value"]), Fraction(res["residue_mod2"]))
        want = (value, _mod2(value))
        return None if got == want else f"{got}, oracle {want}"
    return check


def _check_alpha(n: int, group: str, value: int):
    def check(res) -> Optional[str]:
        got = (res["dimension"], res["group"], res["value"])
        want = (n, group, str(value))
        return None if got == want else f"{got}, oracle {want}"
    return check


def _rational(rng, negative: bool) -> Fraction:
    q = int(rng.choice([2, 3, 4, 5, 8, 16]))
    p = int(rng.integers(1, 8 * q))
    while Fraction(p, q).denominator == 1:
        p += 1
    return Fraction(-p if negative else p, q)


def _invariant_problems(rng) -> List[Problem]:
    out = []

    def sig(lo: int = -64, hi: int = 64) -> int:
        return int(rng.integers(lo, hi + 1))

    for _ in range(4):
        s = sig()
        out.append(Problem("invariant-rohlin", _check_mod2(Fraction(s, 8)),
                           ["invariant", "rohlin", "--sig-w", str(s)]))
    for style in ("positive", "integer", "equals", "negative", "negative"):
        v = sig(-48, 48)
        if style == "positive":
            rho = _rational(rng, False)
            flag = ["--rho", str(rho)]
        elif style == "integer":
            rho = Fraction(int(rng.integers(-9, 10)))
            flag = ["--rho", str(rho)]
        else:
            rho = _rational(rng, True)
            flag = [f"--rho={rho}"] if style == "equals" else ["--rho", str(rho)]
        defect = "negative-rational-flag" if style == "negative" else None
        out.append(Problem(f"invariant-beta-{style}", _check_mod2(rho - Fraction(v, 16)),
                           ["invariant", "beta"] + flag + ["--sig-v", str(v)], defect=defect))
    for _ in range(3):
        ind, s = int(rng.integers(-6, 7)), sig()
        out.append(Problem("invariant-w", _check_mod2(ind + Fraction(s, 8)),
                           ["invariant", "w", "--ind", str(ind), "--sig-w", str(s)]))
    for _ in range(4):
        ind, s, v = int(rng.integers(-6, 7)), sig(), sig(-48, 48)
        out.append(Problem("invariant-wcs", _check_mod2(ind + Fraction(s, 8) - Fraction(v, 16)),
                           ["invariant", "wcs", "--ind", str(ind), "--sig-w", str(s),
                            "--sig-v", str(v)]))
    for n in (4, 8, 12, 9, 10, 7):
        n = n + 8 * int(rng.integers(0, 2))
        argv = ["invariant", "alpha", "--n", str(n)]
        r = n % 8
        if r == 4:
            k = int(rng.integers(-4, 5))
            if rng.random() < 0.5:
                argv += ["--sign", str(16 * k)]
                value = -k
            else:
                argv += ["--ind", str(2 * k)]
                value = k
            group = "Z"
        elif r == 0:
            value = int(rng.integers(-5, 6))
            argv += ["--ind", str(value)]
            group = "Z"
        elif r in (1, 2):
            dim = int(rng.integers(0, 7))
            argv += ["--dim-ker" if r == 1 else "--dim-ker-plus", str(dim)]
            value, group = dim % 2, "Z2"
        else:
            value, group = 0, "0"
        out.append(Problem(f"invariant-alpha-n{r}", _check_alpha(n, group, value), argv))
    return out


def _exact_forms(rng, workdir: str) -> List[Problem]:
    problems = []
    for template in _SUM_TEMPLATES:
        terms = [_form_term(rng, kind, count) for kind, count in template]
        order = rng.permutation(len(terms))
        spec = "+".join(terms[i][0] for i in order)
        total = tuple(sum(t[1][k] for t in terms) for k in range(4))
        problems.append(Problem(f"forms-sum-rank{sum(total[:3])}", _check_form(*total),
                                ["forms", "sum", spec]))
    for kind, count in (("E8", 1), ("H", 1), ("K3", 1), ("Diag", 5)):
        name, data = _form_term(rng, kind, count, allow_negative=False)
        problems.append(Problem(f"forms-show-{kind}", _check_form(*data),
                                ["forms", "show", name]))
    return problems + _invariant_problems(rng)


# --------------------------------------------------------------------------
# twist-sections


def _check_twist(kernels: List[float]):
    def check(res) -> Optional[str]:
        got = [x["value"] for x in res["kernel_twists_mod1"]]
        if len(got) != len(kernels) or any(_circ_dist(a, b) > 1e-6 for a, b in zip(got, kernels)):
            return f"kernel twists {got}, oracle {kernels}"
        if res["cover_operator_fredholm"] is not (not kernels):
            return f"cover_operator_fredholm {res['cover_operator_fredholm']}"
        return None
    return check


def _twist_scan(rng, grid: int, steps: int, spin: str, massive: bool) -> Problem:
    c_from = rng.uniform(-0.45, -0.05)
    argv = ["twist-scan", "--spin", spin, "--grid", str(grid), "--steps", str(steps),
            "--c-from", f"{c_from:.6f}", "--c-to", f"{c_from + 1.0:.6f}"]
    if massive:
        argv += ["--massive", f"{rng.uniform(0.3, 1.0):.4f}"]
        kernels = []
    else:
        # spectral scheme eigenvalues: bounding {k + 1/2 - c}, non-bounding {k - c}
        kernels = [0.5 if spin == "bounding" else 0.0]
    tag = "massive" if massive else "massless"
    return Problem(f"twist-scan-g{grid}-{tag}", _check_twist(kernels), argv)


def _product_spectrum(spin: str, band: int, l: int, kmax: int, cutoff: int):
    if spin == "bounding":  # {k + 1/2}, the unpaired top value dropped
        base = [Fraction(2 * k + 1, 2) for k in range(-band, band)]
    else:
        base = [Fraction(k) for k in range(-band, band + 1)]
    sums = {}
    for mu in base:
        for k in range(kmax + 1):
            nu = Fraction(l, 2) + k
            mult = 2 ** (l // 2) * math.comb(k + l - 1, k)
            s2 = mu * mu + nu * nu
            if s2 <= cutoff:
                sums[s2] = sums.get(s2, 0) + 2 * mult  # +nu and -nu
    return sorted(sums.items())


def _check_pairs(pairs):
    def check(res) -> Optional[str]:
        got = res["pairs"]
        if len(got) != len(pairs):
            return f"{len(got)} eigenvalues, oracle {len(pairs)}"
        for (lam, m), (lo, mo) in zip(got, pairs):
            if m != mo or not _close(lam, float(lo), 1e-9):
                return f"pair ({lam!r}, {m}), oracle ({float(lo)!r}, {mo})"
        return None
    return check


def _product(rng) -> Problem:
    spin = str(rng.choice(["bounding", "nonbounding"]))
    band, l, kmax = int(rng.integers(4, 13)), int(rng.integers(2, 6)), int(rng.integers(2, 7))
    cutoff = int(rng.integers(20, 80))
    argv = ["spectrum", "product", "--spin", spin, "--c", "0", "--band", str(band),
            "--l", str(l), "--kmax", str(kmax), "--cutoff", str(cutoff)]
    return Problem("spectrum-product", _check_pairs(_product_spectrum(spin, band, l, kmax, cutoff)),
                   argv)


def _section_sigmas(n: int, mass: float, sizes) -> List[float]:
    """sigma_min of p-period sections of the mass-doubled central-difference
    operator: the open chain of L = p n sites has hopping eigenvalues
    cos(k pi / (L + 1)) / h, and the mass adds m^2 to every square."""
    h = 2.0 * math.pi / n
    out = []
    for p in sizes:
        length = p * n
        mu = np.cos(np.arange(1, length + 1) * np.pi / (length + 1)) / h
        out.append(math.sqrt(float(np.min(mu * mu)) + mass * mass))
    return out


def _sections_verdict(sigmas, tol: float) -> str:
    last, prev = sigmas[-1], sigmas[-2]
    if last > tol and abs(last - prev) < 0.2 * max(last, prev):
        return "stable"
    if all(b <= a * 1.05 for a, b in zip(sigmas, sigmas[1:])) and last < 0.5 * sigmas[0]:
        return "decaying"
    return "inconclusive"


def _sections(rng, n: int, sizes) -> Problem:
    spin = spectra.SpinStructure(str(rng.choice(["bounding", "nonbounding"])))
    mass = float(rng.uniform(0.3, 1.0))
    want = _section_sigmas(n, mass, sizes)
    verdict = _sections_verdict(want, FREDHOLM_TOL)

    def call():
        d = discretize.build_circle_dirac(n, discretize.Scheme.CENTRAL_DIFFERENCE, spin, 0.0)
        symbol = discretize.period_symbol(discretize.mass_doubled(d.matrix, mass))
        return floquet.fredholm_via_sections(symbol, sizes)

    def check(res) -> Optional[str]:
        if any(not _close(a, b, 1e-8 * b) for a, b in zip(res.sigma_min, want)):
            return f"sigma_min {res.sigma_min}, oracle {tuple(want)}"
        return None if res.verdict == verdict else f"verdict {res.verdict}, oracle {verdict}"
    return Problem(f"sections-block{2 * n}", check, call=call)


def _twist_sections(rng, workdir: str) -> List[Problem]:
    spins = ("bounding", "nonbounding")
    # one cost for the eight small scans: the median problem sits among them
    problems = [_twist_scan(rng, 32, 40, spins[i % 2], False) for i in range(8)]
    problems += [_twist_scan(rng, 32, steps, spin, True) for steps, spin in zip((32, 48), spins)]
    problems += [_twist_scan(rng, 64, steps, spin, False) for steps, spin in zip((32, 48), spins)]
    problems.append(_twist_scan(rng, 128, 32, str(rng.choice(spins)), False))
    problems += [_product(rng) for _ in range(6)]
    problems += [_sections(rng, 16, [3, 4, 6, 8]) for _ in range(3)]
    problems += [_sections(rng, 32, [3, 4, 6]) for _ in range(2)]
    problems.append(_sections(rng, 64, [3, 4]))
    return problems


_BUILDERS = {"floquet-batch": _floquet_batch, "exact-forms": _exact_forms,
             "twist-sections": _twist_sections}


def generate(workload: str, seed: int, workdir: str):
    """Write the workload's input files into ``workdir`` and return
    (setup problem, problems in run order).  The setup problem is the
    first template, a CLI problem of fixed size; it is also in the run."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    os.makedirs(workdir, exist_ok=True)
    problems = _BUILDERS[workload](rng, workdir)
    order = rng.permutation(len(problems))
    return problems[0], [problems[i] for i in order]
