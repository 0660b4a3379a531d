"""Command-line front end.

Every subcommand emits a versioned JSON report on one line of stdout (or
CSV for spectra).  Exit codes: 0 success, 2 input/parse error, 3 domain
or contract error.  The environment variable ``SPECTRAL_TOL`` overrides
the default tolerance used for Fredholm verdicts and kernel detection.

The numeric handlers import ``floquet``, ``spectra`` and ``discretize``,
and with them numpy, in their own bodies, so ``forms``, ``invariant``,
``--convention`` and ``--help`` start without loading numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import __version__
from .conventions import CIRCLE_GRID, FREDHOLM_TOL, GROUPING_TOL, convention_block
from .errors import ContractViolation, ParseError, check_tolerance
from .invariants import (BUILTIN_FORM_NAMES, KOElement, Mod2Rational, builtin_form,
                         parse_form_spec)
from .problemfile import INVARIANT_INPUTS, evaluate_invariant_record, parse_problem_file

if TYPE_CHECKING:
    from .floquet import LaurentSymbol
    from .spectra import SpinStructure

SCHEMA = "spinspec.report/2"

__all__ = ["main", "entry", "report_to_json"]


def _env_tol(default: float) -> float:
    raw = os.environ.get("SPECTRAL_TOL")
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ContractViolation(f"SPECTRAL_TOL={raw!r} is not a number") from None
    return check_tolerance(value)


def report_to_json(doc: dict) -> str:
    """One compact line with sorted keys; without ``indent``, ``json.dumps``
    runs its C encoder.  ``python -m json.tool`` indents it for reading."""
    return json.dumps(doc, sort_keys=True)


def _report(command: List[str], results: dict, tolerances: dict, t0: float) -> dict:
    return {
        "schema": SCHEMA,
        "version": __version__,
        "command": list(command),
        "convention": convention_block(),
        "results": results,
        "tolerances": tolerances,
        "timing_s": round(time.perf_counter() - t0, 6),
    }


# the form results' ``matrix`` before it is written; JSON escapes every '"'
# inside a string, so this text can only be that key and its value
_MATRIX_PLACEHOLDER = '"matrix": null'


def _matrix_json(form) -> str:
    """``form.matrix`` as ``json.dumps`` writes it, row by row from the
    blocks: each row is the block's row text between runs of zeros, and
    each distinct block's row text is made once."""
    row_texts = {}
    rows = []
    offset = 0
    for block in form.blocks:
        texts = row_texts.get(id(block))
        if texts is None:
            texts = row_texts[id(block)] = [", ".join(map(str, row)) for row in block]
        left, right = "0, " * offset, ", 0" * (form.rank - offset - len(block))
        rows.extend("[" + left + text + right + "]" for text in texts)
        offset += len(block)
    return '"matrix": [' + ", ".join(rows) + "]"


def _emit(doc: dict, form=None) -> None:
    """Write ``doc`` as one ``report_to_json`` line; with ``form``, its
    matrix goes in place of the results' null ``matrix``."""
    text = report_to_json(doc)
    if form is not None:
        head, tail = text.split(_MATRIX_PLACEHOLDER)
        text = head + _matrix_json(form) + tail
    sys.stdout.write(text + "\n")


def _spin(name: str) -> SpinStructure:
    from .spectra import SpinStructure

    try:
        return SpinStructure(name)
    except ValueError:
        raise ContractViolation(f"unknown spin structure {name!r}") from None


def _spectrum_results(sample) -> dict:
    return {
        "pairs": [[lam, int(m)] for lam, m in sample.pairs],
        "band": sample.band,
    }


def _emit_spectrum(args, sample, command, t0) -> int:
    if args.format == "csv":
        lines = ["eigenvalue,multiplicity"]
        lines += [f"{lam!r},{m}" for lam, m in sample.pairs]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _emit(_report(command, _spectrum_results(sample),
                      {"grouping_tol": GROUPING_TOL}, t0))
    return 0


def _cmd_spectrum(args, command, t0) -> int:
    from .spectra import circle_spectrum, product_square_spectrum, sphere_spectrum

    if args.kind == "circle":
        sample = circle_spectrum(_spin(args.spin), args.c, args.band)
    elif args.kind == "sphere":
        sample = sphere_spectrum(args.l, args.kmax)
    else:
        base = circle_spectrum(_spin(args.spin), args.c, args.band)
        sample = product_square_spectrum(base, sphere_spectrum(args.l, args.kmax),
                                         args.cutoff)
    return _emit_spectrum(args, sample, command, t0)


def _cmd_twist_scan(args, command, t0) -> int:
    from .discretize import kernel_twists

    ktol = _env_tol(1e-8)
    locations = kernel_twists(_spin(args.spin), args.c_from, args.c_to,
                              args.grid, args.massive, ktol)
    results = {
        "kernel_twists_mod1": [{"value": c, "tol": 1e-6} for c in locations],
        "cover_operator_fredholm": not locations,
    }
    _emit(_report(command, results, {"kernel_tol": ktol}, t0))
    return 0


def _load_symbol(path: str) -> LaurentSymbol:
    from .floquet import LaurentSymbol

    with open(path, "r", encoding="utf-8") as fh:
        obj = parse_problem_file(fh.read())
    if not isinstance(obj, LaurentSymbol):
        raise ContractViolation(f"{path} does not contain a [symbol] section")
    return obj


def _cmd_fredholm(args, command, t0) -> int:
    from .floquet import is_fredholm

    s = _load_symbol(args.file)
    tol = args.tol if args.tol is not None else _env_tol(FREDHOLM_TOL)
    rep = is_fredholm(s, tol=tol, grid=args.grid)
    results = {
        "is_fredholm": rep.is_fredholm,
        "min_singular": {"value": rep.min_singular, "tol": rep.tol},
        "witness": [rep.witness.real, rep.witness.imag],
        "index": rep.index,
        "grid_used": rep.grid_used,
        "lower_bound": rep.lower_bound,
        "verdict": rep.verdict,
        "evaluations": rep.evaluations,
    }
    _emit(_report(command, results, {"fredholm_tol": tol}, t0))
    return 0


def _cmd_index(args, command, t0) -> int:
    from .floquet import toeplitz_index

    s = _load_symbol(args.file)
    tol = args.tol if args.tol is not None else _env_tol(FREDHOLM_TOL)
    idx = toeplitz_index(s, tol=tol)
    _emit(_report(command, {"index": idx}, {"fredholm_tol": tol}, t0))
    return 0


def _cmd_spectral_flow(args, command, t0) -> int:
    from .floquet import twist_crossings

    result = twist_crossings(_load_symbol(args.file))
    results = {
        "flow": result.flow,
        "crossings": [{"parameter": {"value": c, "tol": 1e-6}, "direction": d}
                      for c, d in result.crossings],
    }
    _emit(_report(command, results, {"crossing_tol": 1e-6}, t0))
    return 0


# the [invariant] input keys, each also a flag (--sig-w is key sig-w)
_INVARIANT_FLAGS = tuple(dict.fromkeys(key for keys in INVARIANT_INPUTS.values()
                                       for key in keys))
# values of the flags that have one, used when the kind reads them
_INVARIANT_DEFAULTS = {"rho": "0", "sig-v": 0, "sig-w": 0, "n": 4}


def _invariant_record(args) -> dict:
    """The [invariant] record the flags describe: the kind, the flags given,
    and the defaults of the inputs the kind reads that were not given."""
    given = {key: getattr(args, key.replace("-", "_")) for key in _INVARIANT_FLAGS}
    record = {key: value for key, value in _INVARIANT_DEFAULTS.items()
              if key in INVARIANT_INPUTS[args.kind]}
    record["kind"] = args.kind
    record.update((key, value) for key, value in given.items() if value is not None)
    if args.strict:
        record["strict"] = "true"
    return record


def _invariant_results(value) -> dict:
    if isinstance(value, KOElement):
        return {"value": str(value.value), "group": value.group, "dimension": value.n}
    mod2 = Mod2Rational(value)
    return {"value": str(mod2.value), "residue_mod2": str(mod2.residue)}


def _cmd_invariant(args, command, t0) -> int:
    value = evaluate_invariant_record(_invariant_record(args))
    _emit(_report(command, _invariant_results(value), {}, t0))
    return 0


def _form_results(form) -> dict:
    return {
        "name": form.name,
        "rank": form.rank,
        "signature": form.signature,
        "inertia": [form.inertia.n_plus, form.inertia.n_minus, form.inertia.n_zero],
        "matrix": None,  # _emit writes it from the blocks
    }


def _cmd_forms(args, command, t0) -> int:
    if args.action == "list":
        _emit(_report(command, {"names": list(BUILTIN_FORM_NAMES)}, {}, t0))
        return 0
    form = builtin_form(args.name) if args.action == "show" else parse_form_spec(args.spec)
    _emit(_report(command, _form_results(form), {}, t0), form)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spinspec",
                                description="Model Dirac spectra, Floquet symbol "
                                            "analysis and exact invariant arithmetic.")
    p.add_argument("--convention", action="store_true",
                   help="print the convention block as JSON and exit")
    sub = p.add_subparsers(dest="cmd")

    sp = sub.add_parser("spectrum", help="closed-form model spectra")
    sp.add_argument("kind", choices=["circle", "sphere", "product"])
    sp.add_argument("--spin", default="bounding", choices=["bounding", "nonbounding"])
    sp.add_argument("--c", type=float, default=0.0, help="twist coefficient")
    sp.add_argument("--band", type=int, default=8)
    sp.add_argument("--l", type=int, default=2, help="sphere dimension")
    sp.add_argument("--kmax", type=int, default=8)
    sp.add_argument("--cutoff", type=float, default=25.0)
    sp.add_argument("--format", default="json", choices=["json", "csv"])

    ts = sub.add_parser("twist-scan", help="locate twists with a discrete kernel")
    ts.add_argument("--spin", default="bounding", choices=["bounding", "nonbounding"])
    ts.add_argument("--c-from", type=float, default=0.0)
    ts.add_argument("--c-to", type=float, default=1.0)
    ts.add_argument("--steps", type=int, default=200,
                    help="accepted for compatibility; has no effect, kernels "
                         "are located exactly")
    ts.add_argument("--grid", type=int, default=32)
    ts.add_argument("--massive", type=float, default=0.0,
                    help="add an off-diagonal mass of this size")

    fr = sub.add_parser("fredholm", help="symbol invertibility over the unit circle")
    fr.add_argument("file")
    fr.add_argument("--tol", type=float, default=None)
    fr.add_argument("--grid", type=int, default=CIRCLE_GRID)

    ix = sub.add_parser("index", help="half-line index of a Fredholm symbol")
    ix.add_argument("file")
    ix.add_argument("--tol", type=float, default=None)

    sf = sub.add_parser("spectral-flow", help="flow of the symbol's twist loop")
    sf.add_argument("file")
    sf.add_argument("--steps", type=int, default=50,
                    help="accepted for compatibility; has no effect, crossings "
                         "come from the zeros of det A(z)")

    iv = sub.add_parser("invariant", help="exact invariant arithmetic")
    iv.add_argument("kind", choices=list(INVARIANT_INPUTS))
    for key in _INVARIANT_FLAGS:
        if key == "rho":
            iv.add_argument("--rho", help="rational, e.g. 1 or 3/2")
        else:
            iv.add_argument("--" + key, type=int)
    iv.add_argument("--strict", action="store_true")

    fo = sub.add_parser("forms", help="built-in intersection forms")
    fosub = fo.add_subparsers(dest="action", required=True)
    fosub.add_parser("list")
    fshow = fosub.add_parser("show")
    fshow.add_argument("name")
    fsum = fosub.add_parser("sum")
    fsum.add_argument("spec")
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: built on first use, since building
    costs more than most commands; parsing leaves it unchanged."""
    return build_parser()


_EXIT3_COMMANDS = {"invariant", "index", "fredholm", "spectral-flow", "twist-scan"}
_NUMERIC_COMMANDS = {"spectrum", "twist-scan", "fredholm", "index", "spectral-flow"}


# -33/4, -0.5, -16, -inf, -nan: never a flag
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


def _shield_dash_values(argv: List[str]) -> Tuple[List[str], List[str]]:
    """Return (tokens a report echoes, tokens argparse reads).

    argparse takes a token that starts with '-' for a flag, but form specs
    like -E8+3H and rationals like -33/4 are values.  The ``forms sum`` spec
    goes behind '--', which the echo shows; a negative value after a flag is
    attached to it (--rho=-33/4) for argparse only.
    """
    if argv[:2] == ["forms", "sum"] and "--" not in argv:
        argv = argv[:2] + ["--"] + argv[2:]
    tokens = []
    for i, tok in enumerate(argv):
        if tok == "--":
            return argv, tokens + argv[i:]
        prev = tokens[-1] if tokens else ""
        if prev.startswith("--") and "=" not in prev and _NEGATIVE_VALUE.match(tok):
            tokens[-1] = prev + "=" + tok
        else:
            tokens.append(tok)
    return argv, tokens


def main(argv: Optional[List[str]] = None) -> int:
    argv, tokens = _shield_dash_values(list(sys.argv[1:]) if argv is None else list(argv))
    parser = _parser()
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.convention:
        _emit(convention_block())
        return 0
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.cmd in _NUMERIC_COMMANDS:
        from . import discretize  # loads the numeric layers and numpy untimed
    t0 = time.perf_counter()
    rest = list(argv)
    rest.remove(args.cmd)  # the subcommand token only: a file or value may equal it
    command = [args.cmd] + rest
    dispatch = {
        "spectrum": _cmd_spectrum,
        "twist-scan": _cmd_twist_scan,
        "fredholm": _cmd_fredholm,
        "index": _cmd_index,
        "spectral-flow": _cmd_spectral_flow,
        "invariant": _cmd_invariant,
        "forms": _cmd_forms,
    }
    try:
        return dispatch[args.cmd](args, command, t0)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args.cmd in _EXIT3_COMMANDS else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
