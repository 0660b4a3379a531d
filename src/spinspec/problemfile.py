"""Plain-text problem files: symbols, forms and invariant-input records.

The format is line-oriented and diffable: bracketed section headers over
tables of numbers or ``key: value`` lines.  ``#`` starts a comment.  A
problem file holds exactly one object; fixture files may hold a list of
invariant records.

    [symbol]
    block-size: 2
    bandwidth: 1

    [coeff 0]
    -2 0
    0 -2+0.5j

    [coeff 1]
    1 0
    0 1

Matrix entries are complex literals without internal spaces (``1.5``,
``-2+0.5j``, ``1j``).  Forms are integer matrices under ``[form]``;
invariant records are ``key: value`` lines under ``[invariant]``.
Parse failures report line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import List, Tuple, Union

import numpy as np

from .errors import ContractViolation, ParseError
from .floquet import LaurentSymbol
from .invariants import (IntersectionForm, KOElement, Mod2Rational, _as_fraction,
                         alpha_n, beta, form_from_rows, rohlin, w_cs, w_invariant)

__all__ = [
    "parse_problem_file",
    "parse_records",
    "symbol_to_text",
    "form_to_text",
    "evaluate_invariant_record",
    "INVARIANT_INPUTS",
    "expected_matches",
    "load_fixture_records",
]


@dataclass
class _Section:
    header: str
    line: int
    body: List[Tuple[int, str]]


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _split_sections(text: str) -> List[_Section]:
    sections: List[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno)
            sections.append(_Section(header=line[1:-1].strip(), line=lineno, body=[]))
        else:
            if not sections:
                raise ParseError("content before any section header", lineno)
            sections[-1].body.append((lineno, raw))
    if not sections:
        raise ParseError("empty problem file", 1)
    return sections


def _parse_complex(token: str, lineno: int, col: int) -> complex:
    try:
        return complex(token)
    except ValueError:
        raise ParseError(f"bad complex number {token!r}", lineno, col) from None


def _parse_int(token: str, lineno: int, col: int = 1) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer {token!r}", lineno, col) from None


def _matrix_rows(body, parse_entry):
    rows = []
    for lineno, raw in body:
        line = _strip_comment(raw)
        if not line.strip():
            continue
        row = []
        col = 0
        for token in line.split():
            col = line.index(token, col)
            row.append(parse_entry(token, lineno, col + 1))
            col += len(token)
        rows.append((lineno, row))
    return rows


def _key_values(body) -> dict:
    out = {}
    for lineno, raw in body:
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        out[key.strip()] = (lineno, value.strip())
    return out


def _build_symbol(sections: List[_Section]) -> LaurentSymbol:
    head = sections[0]
    meta = _key_values(head.body)
    if "block-size" not in meta:
        raise ParseError("missing 'block-size'", head.line)
    if "bandwidth" not in meta:
        raise ParseError("missing 'bandwidth'", head.line)
    n = _parse_int(meta["block-size"][1], meta["block-size"][0])
    d = _parse_int(meta["bandwidth"][1], meta["bandwidth"][0])
    if n < 1 or d < 0:
        raise ParseError("block-size must be >= 1 and bandwidth >= 0", head.line)
    coeffs = {}
    for sec in sections[1:]:
        parts = sec.header.split()
        if len(parts) != 2 or parts[0] != "coeff":
            raise ParseError(f"unexpected section [{sec.header}] in symbol file", sec.line)
        j = _parse_int(parts[1], sec.line)
        if abs(j) > d:
            raise ParseError(f"coefficient offset {j} exceeds bandwidth {d}", sec.line)
        if j in coeffs:
            raise ParseError(f"duplicate coefficient {j}", sec.line)
        rows = _matrix_rows(sec.body, _parse_complex)
        if len(rows) != n:
            raise ParseError(f"coefficient {j} needs {n} rows", sec.line)
        for lineno, row in rows:
            if len(row) != n:
                raise ParseError(f"row needs {n} entries", lineno)
        coeffs[j] = np.array([row for _, row in rows], dtype=complex)
    if not coeffs:
        raise ParseError("symbol file has no [coeff j] sections", head.line)
    try:
        return LaurentSymbol(coeffs)
    except ContractViolation as exc:
        raise ParseError(str(exc), head.line) from None


def _build_form(section: _Section) -> IntersectionForm:
    meta_lines = [(ln, raw) for ln, raw in section.body if ":" in _strip_comment(raw)]
    data_lines = [(ln, raw) for ln, raw in section.body if ":" not in _strip_comment(raw)]
    meta = _key_values(meta_lines)
    name = meta.get("name", (section.line, "form"))[1]
    rows = _matrix_rows(data_lines, _parse_int)
    if not rows:
        raise ParseError("form section has no matrix rows", section.line)
    try:
        return form_from_rows(name, [row for _, row in rows])
    except ContractViolation as exc:
        raise ParseError(str(exc), section.line) from None


def _build_record(section: _Section) -> dict:
    meta = _key_values(section.body)
    record = {key: value for key, (_, value) in meta.items()}
    if "kind" not in record:
        raise ParseError("invariant record needs a 'kind'", section.line)
    record["_line"] = section.line
    return record


ParsedProblem = Union[LaurentSymbol, IntersectionForm, dict]


def parse_problem_file(text: str) -> ParsedProblem:
    """Parse one problem file into exactly one of LaurentSymbol,
    IntersectionForm or an invariant-input record."""
    sections = _split_sections(text)
    kind = sections[0].header
    if kind == "symbol":
        return _build_symbol(sections)
    if kind == "form":
        if len(sections) > 1:
            raise ParseError("form file must contain a single [form] section",
                             sections[1].line)
        return _build_form(sections[0])
    if kind == "invariant":
        if len(sections) > 1:
            raise ParseError("invariant file must contain a single record",
                             sections[1].line)
        return _build_record(sections[0])
    raise ParseError(f"unknown section [{kind}]", sections[0].line)


def parse_records(text: str) -> List[dict]:
    """Parse a fixture file: a list of [invariant] records."""
    out = []
    for sec in _split_sections(text):
        if sec.header != "invariant":
            raise ParseError(f"expected [invariant], found [{sec.header}]", sec.line)
        out.append(_build_record(sec))
    return out


def _fmt_complex(v: complex) -> str:
    re_part, im_part = float(v.real), float(v.imag)
    if im_part == 0:
        return repr(re_part)
    return f"{re_part!r}{im_part:+}j"


def symbol_to_text(s: LaurentSymbol) -> str:
    lines = ["[symbol]", f"block-size: {s.block_size}", f"bandwidth: {s.bandwidth}"]
    for j in sorted(s.coeffs):
        lines.append("")
        lines.append(f"[coeff {j}]")
        for row in s.coeffs[j]:
            lines.append(" ".join(_fmt_complex(v) for v in row))
    return "\n".join(lines) + "\n"


def form_to_text(f: IntersectionForm) -> str:
    lines = ["[form]", f"name: {f.name}"]
    for row in f.matrix:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def _record_value(record: dict, key: str):
    if key not in record:
        raise ContractViolation(f"invariant record is missing {key!r}")
    return record[key]


def _record_int(record: dict, key: str) -> int:
    value = _record_value(record, key)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ContractViolation(f"{key}: {value!r} is not an integer") from None


def _record_strict(record: dict) -> bool:
    value = str(record.get("strict", "false")).lower()
    if value not in ("true", "false"):
        raise ContractViolation(f"strict: {record['strict']!r} is not true or false")
    return value == "true"


_ALPHA_KEYS = (("sign", "sign"), ("ind", "ind_plus"), ("dim-ker", "dim_ker"),
               ("dim-ker-plus", "dim_ker_plus"))

# the inputs each invariant kind reads
INVARIANT_INPUTS = {
    "rohlin": ("sig-w",),
    "beta": ("rho", "sig-v"),
    "w": ("ind", "sig-w"),
    "wcs": ("ind", "sig-w", "sig-v"),
    "alpha": ("n",) + tuple(key for key, _ in _ALPHA_KEYS),
}
# record keys that are not inputs; "_line" is the parser's
_RECORD_FIELDS = ("kind", "name", "expect", "strict", "_line")


def evaluate_invariant_record(record: dict):
    """Run the invariant named by ``kind`` on the record's arguments; this
    is also what ``spinspec invariant`` runs.  Returns Mod2Rational for the
    mod-2 invariants, Fraction for the integral lifts, KOElement for the
    KO-valued index.  A missing or malformed input, an input the kind
    does not read (``INVARIANT_INPUTS``), or ``strict`` on a kind that has
    no divisibility condition (w, wcs, alpha), is a ContractViolation."""
    kind = record["kind"]
    strict = _record_strict(record)
    if "strict" in record and kind in ("w", "wcs", "alpha"):
        raise ContractViolation(f"strict applies to rohlin and beta, not to {kind!r}")
    if kind not in INVARIANT_INPUTS:
        raise ContractViolation(f"unknown invariant kind {kind!r}")
    unread = [key for key in record if key not in INVARIANT_INPUTS[kind] + _RECORD_FIELDS]
    if unread:
        raise ContractViolation(f"{kind!r} does not read {', '.join(map(repr, unread))}")
    if kind == "rohlin":
        return rohlin(_record_int(record, "sig-w"), strict=strict)
    if kind == "beta":
        return beta(_as_fraction(_record_value(record, "rho")),
                    _record_int(record, "sig-v"), strict=strict)
    if kind == "w":
        return w_invariant(_record_int(record, "ind"), _record_int(record, "sig-w"))
    if kind == "wcs":
        return w_cs(_record_int(record, "ind"), _record_int(record, "sig-w"),
                    _record_int(record, "sig-v"))
    n = _record_int(record, "n")
    data = {arg: _record_int(record, key) for key, arg in _ALPHA_KEYS if key in record}
    return alpha_n(n, **data)


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


def load_fixture_records() -> List[dict]:
    """The worked-example corpus shipped with the package."""
    text = resources.files("spinspec.data").joinpath("worked_invariants.txt").read_text()
    return parse_records(text)
