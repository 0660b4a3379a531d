"""Exact arithmetic for intersection forms and spin 4-manifold invariants.

Everything here is integer/rational and exact, and no floating point ever
enters.  The E8 and hyperbolic base blocks and forms read from raw rows
(problem-file ``[form]`` sections) get their inertia from the pivoted LDL
over rationals; sums, negations and diagonal forms carry it by Sylvester's
law of inertia (it adds under direct sum, negation swaps n+ and n-, and a
diagonal matrix is its own LDL) without another elimination.  A form is
kept as the tuple of its diagonal blocks: a sum concatenates its parts'
blocks and shares their objects, so ``8K3`` holds two distinct blocks,
and the dense matrix is built only when asked for.  Mod-2
reductions are done on ``fractions.Fraction`` values, so the identities
tying the invariants together (well-definedness of the lifted Rohlin
invariant, of the Cappell-Shaneson invariant, and the mod-2 agreement
between them) hold exactly in rational arithmetic; the tests check them.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import ContractViolation
from .exact import Inertia, rational_ldl_inertia

__all__ = [
    "Mod2Rational",
    "IntersectionForm",
    "KOElement",
    "BUILTIN_FORM_NAMES",
    "builtin_form",
    "diag_form",
    "form_from_rows",
    "direct_sum",
    "negate",
    "parse_form_spec",
    "rohlin",
    "ko_group",
    "alpha_n",
    "w_invariant",
    "beta",
    "w_cs",
]

RationalLike = Union[int, str, Fraction, "Mod2Rational"]


def _as_fraction(x: RationalLike) -> Fraction:
    """The one reader of exact rationals: ints, ``Fraction``s, the value of
    a ``Mod2Rational``, and text such as ``3``, ``-33/4`` or ``1.5``."""
    if isinstance(x, Mod2Rational):
        return x.value
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise ContractViolation(f"{x!r} is not an exact rational")


@dataclass(frozen=True)
class Mod2Rational:
    """An exact rational remembered together with its residue mod 2Z."""

    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _as_fraction(self.value))

    @property
    def residue(self) -> Fraction:
        """Canonical representative of value mod 2Z in [0, 2)."""
        return self.value - 2 * math.floor(self.value / 2)

    def same_mod2(self, other: "Mod2Rational") -> bool:
        return self.residue == other.residue

    def __str__(self):
        return f"{self.value} = {self.residue} (mod 2)"


@dataclass(frozen=True)
class IntersectionForm:
    """Exact symmetric integer bilinear form with its inertia, kept as the
    direct sum of its diagonal ``blocks``, each a tuple of integer rows.

    E8, H and a form read from rows are one block each and ``Diag`` is one
    1x1 block per entry.  ``form_from_rows`` validates raw rows and computes
    the inertia by exact LDL; ``direct_sum``, ``negate`` and ``diag_form``
    derive it from their already-validated inputs by Sylvester's law, with
    no elimination.  ``matrix`` is the dense form, built on first use.
    """

    name: str
    blocks: tuple
    rank: int
    signature: int
    inertia: Inertia

    @functools.cached_property
    def matrix(self) -> tuple:
        """The dense rank x rank rows, the blocks down the diagonal."""
        rows = []
        offset = 0
        for block in self.blocks:
            left, right = (0,) * offset, (0,) * (self.rank - offset - len(block))
            rows.extend(left + row + right for row in block)
            offset += len(block)
        return tuple(rows)

    def __str__(self):
        return f"{self.name}: rank {self.rank}, signature {self.signature}"


def _form(name: str, blocks: tuple, inertia: Inertia) -> IntersectionForm:
    return IntersectionForm(name=name, blocks=blocks, rank=sum(len(b) for b in blocks),
                            signature=inertia.signature, inertia=inertia)


def form_from_rows(name: str, rows: Sequence[Sequence[int]]) -> IntersectionForm:
    matrix = tuple(tuple(int(x) for x in row) for row in rows)
    return _form(name, (matrix,), rational_ldl_inertia(matrix))


_E8_ROWS = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

_H_ROWS = ((0, 1), (1, 0))


def diag_form(entries: Sequence[int]) -> IntersectionForm:
    ents = tuple(int(e) for e in entries)
    if not ents:
        raise ContractViolation("diagonal form needs at least one entry")
    n_plus = sum(e > 0 for e in ents)
    n_minus = sum(e < 0 for e in ents)
    return _form("Diag(" + ",".join(str(e) for e in ents) + ")",
                 tuple(((e,),) for e in ents),
                 Inertia(n_plus=n_plus, n_minus=n_minus, n_zero=len(ents) - n_plus - n_minus))


def _block_sum(name: str, forms: Sequence[IntersectionForm]) -> IntersectionForm:
    inertia = Inertia(n_plus=sum(f.inertia.n_plus for f in forms),
                      n_minus=sum(f.inertia.n_minus for f in forms),
                      n_zero=sum(f.inertia.n_zero for f in forms))
    return _form(name, tuple(b for f in forms for b in f.blocks), inertia)


def direct_sum(*forms: IntersectionForm) -> IntersectionForm:
    if not forms:
        raise ContractViolation("direct sum of nothing")
    if len(forms) == 1:
        return forms[0]
    return _block_sum("+".join(f.name for f in forms), forms)


def negate(form: IntersectionForm) -> IntersectionForm:
    name = form.name[1:] if form.name.startswith("-") else "-" + form.name
    inertia = form.inertia
    return _form(name, tuple(tuple(tuple(-x for x in row) for row in b) for b in form.blocks),
                 Inertia(n_plus=inertia.n_minus, n_minus=inertia.n_plus,
                         n_zero=inertia.n_zero))


@functools.lru_cache(maxsize=None)
def _named_form(key: str) -> IntersectionForm:
    """E8 and H from their rows, K3 from them; built once per process."""
    if key == "E8":
        return form_from_rows("E8", _E8_ROWS)
    if key == "H":
        return form_from_rows("H", _H_ROWS)
    minus_e8, h = negate(_named_form("E8")), _named_form("H")
    return _block_sum("K3", (minus_e8, minus_e8, h, h, h))


_NAMED_FORMS = ("E8", "H", "K3")
# the names builtin_form takes; the last stands for every diagonal form
BUILTIN_FORM_NAMES = _NAMED_FORMS + ("Diag(d1,d2,...)",)
_DIAG_RE = re.compile(r"Diag\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)")


def builtin_form(name: str) -> IntersectionForm:
    """Named forms: E8 (even positive definite, signature +8), H (the
    hyperbolic plane), K3 = 2(-E8) + 3H (signature -16, rank 22), and
    Diag(d1,d2,...)."""
    key = name.strip()
    if key in _NAMED_FORMS:
        return _named_form(key)
    m = _DIAG_RE.fullmatch(key)
    if m:
        return diag_form([int(tok) for tok in m.group(1).split(",")])
    raise ContractViolation(f"unknown form name {name!r}")


# an optional '-' and count; builtin_form reads the name that follows
_TERM_RE = re.compile(r"(-)?(\d*)(.+)", re.DOTALL)


def parse_form_spec(spec: str) -> IntersectionForm:
    """Evaluate a sum like ``-E8+E8+3H``: names joined by '+', an optional
    '-' prefix negating a term, an optional integer count repeating it."""
    text = spec.replace(" ", "")
    if not text:
        raise ContractViolation("empty form spec")
    # split on each '+' outside parentheses (Diag(+1) stays one term); a
    # leading '-' stays attached to its term
    raws = []
    for piece in text.split("+"):
        if raws and raws[-1].count("(") > raws[-1].count(")"):
            raws[-1] += "+" + piece
        else:
            raws.append(piece)
    terms = []
    for raw in raws:
        if raw == "":
            raise ContractViolation(f"malformed form spec {spec!r}")
        neg, count, name = _TERM_RE.fullmatch(raw).groups()
        f = builtin_form(name)
        if neg:
            f = negate(f)
        terms.extend([f] * (int(count) if count else 1))
    return direct_sum(*terms)


def rohlin(sig_w: int, strict: bool = False) -> Mod2Rational:
    """Rohlin invariant sign(W)/8 mod 2 of the spin boundary of W.

    ``strict`` insists on 8 | sign(W), which holds for any closed-spin
    compatible bounding; a violation flags a non-spin or wrong-boundary
    input.
    """
    if strict and sig_w % 8 != 0:
        raise ContractViolation(f"signature {sig_w} is not divisible by 8")
    return Mod2Rational(Fraction(int(sig_w), 8))


def ko_group(k: int) -> str:
    r = k % 8
    if r in (0, 4):
        return "Z"
    if r in (1, 2):
        return "Z2"
    return "0"


@dataclass(frozen=True)
class KOElement:
    """Element of KO_n: an integer for n = 0, 4 (mod 8), a bit for
    n = 1, 2 (mod 8), trivial otherwise."""

    n: int
    group: str
    value: int

    def __post_init__(self):
        if self.group != ko_group(self.n):
            raise ContractViolation(f"KO_{self.n} is not {self.group}")
        if self.group == "Z2" and self.value not in (0, 1):
            raise ContractViolation("Z/2 element must be 0 or 1")
        if self.group == "0" and self.value != 0:
            raise ContractViolation("trivial group has only 0")

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self):
        if self.group == "0":
            return f"0 in KO_{self.n} = 0"
        tag = "Z" if self.group == "Z" else "Z/2"
        return f"{self.value} in KO_{self.n} = {tag}"


def alpha_n(n: int, *, ind_plus: int = None, dim_ker: int = None,
            dim_ker_plus: int = None, sign: int = None) -> KOElement:
    """KO-valued index of the untwisted operator in dimension n:
    ind D+ for n = 0 (8), (1/2) ind D+ for n = 4 (8), dim ker D mod 2 for
    n = 1 (8), dim ker D+ mod 2 for n = 2 (8), zero otherwise.  For n = 4
    the signature variant converts through -sign/16.  A negative n is a
    ContractViolation.
    """
    if n < 0:
        raise ContractViolation(f"dimension must be non-negative, got {n}")
    given = {k: v for k, v in (("ind_plus", ind_plus), ("dim_ker", dim_ker),
                               ("dim_ker_plus", dim_ker_plus), ("sign", sign))
             if v is not None}
    r = n % 8
    if r == 0:
        if set(given) != {"ind_plus"}:
            raise ContractViolation("dimension 0 mod 8 takes ind_plus")
        return KOElement(n, "Z", int(ind_plus))
    if r == 4:
        if set(given) == {"ind_plus"}:
            if ind_plus % 2 != 0:
                raise ContractViolation("chiral index must be even (quaternionic)")
            return KOElement(n, "Z", int(ind_plus) // 2)
        if set(given) == {"sign"}:
            if sign % 16 != 0:
                raise ContractViolation(f"signature {sign} is not divisible by 16")
            return KOElement(n, "Z", -int(sign) // 16)
        raise ContractViolation("dimension 4 mod 8 takes ind_plus or sign")
    if r == 1:
        if set(given) != {"dim_ker"}:
            raise ContractViolation("dimension 1 mod 8 takes dim_ker")
        return KOElement(n, "Z2", int(dim_ker) % 2)
    if r == 2:
        if set(given) != {"dim_ker_plus"}:
            raise ContractViolation("dimension 2 mod 8 takes dim_ker_plus")
        return KOElement(n, "Z2", int(dim_ker_plus) % 2)
    if given:
        raise ContractViolation(f"KO_{n} is trivial; no data expected")
    return KOElement(n, "0", 0)


def w_invariant(ind_plus: int, sig_w: int) -> Fraction:
    """Integral lift of the Rohlin invariant: ind + sign(W)/8 as an exact
    rational (an integer exactly when 8 | sign(W))."""
    return Fraction(int(ind_plus)) + Fraction(int(sig_w), 8)


def beta(rho_y: RationalLike, sig_v: int, strict: bool = False) -> Mod2Rational:
    """Cappell-Shaneson invariant rho(Y) - sign(V)/16 mod 2.

    ``strict`` insists on 16 | sign(V) (the classical Z/2-valued case);
    by default the value is kept as a rational mod 2Z.
    """
    if strict and sig_v % 16 != 0:
        raise ContractViolation(f"signature {sig_v} is not divisible by 16")
    return Mod2Rational(_as_fraction(rho_y) - Fraction(int(sig_v), 16))


def w_cs(ind_plus: int, sig_w: int, sig_v: int) -> Fraction:
    """Integral lift of the Cappell-Shaneson invariant:
    ind + sign(W)/8 - sign(V)/16, exactly."""
    return Fraction(int(ind_plus)) + Fraction(int(sig_w), 8) - Fraction(int(sig_v), 16)
