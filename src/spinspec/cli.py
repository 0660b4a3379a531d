"""Command-line front end.

Every subcommand emits a versioned JSON report on one line of stdout (or
CSV for spectra).  Exit codes: 0 success, 2 input/parse error, 3 domain
or contract error.  The environment variable ``SPECTRAL_TOL`` overrides
the default tolerance used for Fredholm verdicts and kernel detection.
The command table ``_COMMANDS`` declares each command's positionals and
flags; ``_read`` reads argv against it in one pass and ``_help`` prints it.

The handlers import the layer they run on in their own bodies, and
``main`` imports it before the timer starts: ``floquet``, and with it
numpy, for a command that reads a symbol file (``fredholm``, ``index``,
``spectral-flow``), and ``spectra``, which loads no numpy, for a command
that takes a spin structure (``spectrum``, ``twist-scan``).  So only the
symbol-file commands load numpy; ``forms``, ``invariant``,
``--convention`` and ``--help`` load neither layer.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Tuple

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


def _cmd_spectrum(args, command, t0) -> int:
    from .spectra import circle_spectrum, product_square_spectrum, sphere_spectrum

    if args["kind"] == "circle":
        sample = circle_spectrum(_spin(args["spin"]), args["c"], args["band"])
    elif args["kind"] == "sphere":
        sample = sphere_spectrum(args["l"], args["kmax"])
    else:
        base = circle_spectrum(_spin(args["spin"]), args["c"], args["band"])
        sample = product_square_spectrum(base, sphere_spectrum(args["l"], args["kmax"]),
                                         args["cutoff"])
    try:  # an int past Python's limit on the digits it writes as text raises
        if args["format"] == "csv":
            text = "\n".join(["eigenvalue,multiplicity"]
                             + [f"{lam!r},{m}" for lam, m in sample.pairs])
        else:
            results = {"pairs": [[lam, int(m)] for lam, m in sample.pairs], "band": sample.band}
            text = report_to_json(_report(command, results, {"grouping_tol": GROUPING_TOL}, t0))
    except ValueError:
        raise ContractViolation("a multiplicity has too many digits to write") from None
    sys.stdout.write(text + "\n")
    return 0


def _cmd_twist_scan(args, command, t0) -> int:
    from .spectra import kernel_twists

    ktol = _env_tol(1e-8)
    locations = kernel_twists(_spin(args["spin"]), args["c-from"], args["c-to"],
                              args["grid"], args["massive"], ktol)
    results = {
        "kernel_twists_mod1": [{"value": c, "tol": 1e-6} for c in locations],
        "cover_operator_fredholm": not locations,
    }
    _emit(_report(command, results, {"kernel_tol": ktol}, t0))
    return 0


class _InputError(Exception):
    """A usage error or an unreadable input file: exit 2, the text on stderr."""


def _load_symbol(path: str) -> LaurentSymbol:
    from .floquet import LaurentSymbol

    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"error: cannot read {path}: {exc}") from None
    obj = parse_problem_file(text)
    if not isinstance(obj, LaurentSymbol):
        raise ContractViolation(f"{path} does not contain a [symbol] section")
    return obj


def _cmd_fredholm(args, command, t0) -> int:
    from .floquet import is_fredholm

    s = _load_symbol(args["file"])
    tol = args["tol"] if args["tol"] is not None else _env_tol(FREDHOLM_TOL)
    rep = is_fredholm(s, tol=tol, grid=args["grid"])
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

    s = _load_symbol(args["file"])
    tol = args["tol"] if args["tol"] is not None else _env_tol(FREDHOLM_TOL)
    idx = toeplitz_index(s, tol=tol)
    _emit(_report(command, {"index": idx}, {"fredholm_tol": tol}, t0))
    return 0


def _cmd_spectral_flow(args, command, t0) -> int:
    from .floquet import twist_crossings

    result = twist_crossings(_load_symbol(args["file"]))
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
    record = {key: value for key, value in _INVARIANT_DEFAULTS.items()
              if key in INVARIANT_INPUTS[args["kind"]]}
    record["kind"] = args["kind"]
    record.update((key, args[key]) for key in _INVARIANT_FLAGS if args[key] is not None)
    if args["strict"]:
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
    if args["command"][1] == "list":
        _emit(_report(command, {"names": list(BUILTIN_FORM_NAMES)}, {}, t0))
        return 0
    form = builtin_form(args["name"]) if "name" in args else parse_form_spec(args["spec"])
    _emit(_report(command, _form_results(form), {}, t0), form)
    return 0


class _Arg(NamedTuple):
    """A flag or positional: the type its text is read as (``bool`` for a
    switch, which takes no text), its default, its choices (any when empty)."""
    type: Callable = str
    default: object = None
    choices: Tuple[str, ...] = ()
    help: str = ""


class _Command(NamedTuple):
    """A command: positionals in order, then one subcommand if it has any."""
    help: str
    run: Optional[Callable] = None
    positionals: Dict[str, _Arg] = {}
    flags: Dict[str, _Arg] = {}
    commands: Dict[str, "_Command"] = {}


_SPIN = _Arg(str, "bounding", ("bounding", "nonbounding"))
_FILE = {"file": _Arg()}
_NO_EFFECT = "accepted for compatibility; has no effect, "
_COMMANDS = {
    "spectrum": _Command(
        "closed-form model spectra", _cmd_spectrum,
        {"kind": _Arg(choices=("circle", "sphere", "product"))},
        {"spin": _SPIN, "c": _Arg(float, 0.0, help="twist"), "band": _Arg(int, 8),
         "l": _Arg(int, 2, help="sphere dimension"), "kmax": _Arg(int, 8),
         "cutoff": _Arg(float, 25.0), "format": _Arg(str, "json", ("json", "csv"))}),
    "twist-scan": _Command(
        "locate twists with a discrete kernel", _cmd_twist_scan, {},
        {"spin": _SPIN, "c-from": _Arg(float, 0.0), "c-to": _Arg(float, 1.0),
         "steps": _Arg(int, 200, help=_NO_EFFECT + "kernels are located exactly"),
         "grid": _Arg(int, 32), "massive": _Arg(float, 0.0, help="off-diagonal mass")}),
    "fredholm": _Command("symbol invertibility over the unit circle", _cmd_fredholm,
                         _FILE, {"tol": _Arg(float), "grid": _Arg(int, CIRCLE_GRID)}),
    "index": _Command("half-line index of a Fredholm symbol", _cmd_index, _FILE,
                      {"tol": _Arg(float)}),
    "spectral-flow": _Command(
        "flow of the symbol's twist loop", _cmd_spectral_flow, _FILE,
        {"steps": _Arg(int, 50, help=_NO_EFFECT + "crossings are the zeros of det A(z)")}),
    "invariant": _Command(
        "exact invariant arithmetic", _cmd_invariant,
        {"kind": _Arg(choices=tuple(INVARIANT_INPUTS))},
        {**{key: _Arg(int) for key in _INVARIANT_FLAGS}, "strict": _Arg(bool, False),
         "rho": _Arg(help="rational, e.g. 1 or 3/2")}),
    "forms": _Command("built-in intersection forms", _cmd_forms, commands={
        "list": _Command("names of the built-in forms"),
        "show": _Command("one built-in form", positionals={"name": _Arg()}),
        "sum": _Command("a signed sum of built-in forms", positionals={"spec": _Arg()})}),
}
_SPINSPEC = _Command(
    "Model Dirac spectra, Floquet symbol analysis and exact invariant arithmetic.",
    flags={"convention": _Arg(bool, False, help="print the convention block as JSON")},
    commands=_COMMANDS)


def _help(node: _Command, prog: str) -> str:
    """The --help text of a command: usage, then a row per subcommand,
    positional and flag with its help, choices and default."""
    rows = [(name, sub.help) for name, sub in node.commands.items()]
    rows += [(name, "/".join(arg.choices)) for name, arg in node.positionals.items()]
    rows.append(("-h, --help", "print this help"))
    for name, arg in node.flags.items():
        default = "" if arg.default is None or arg.type is bool else f"(default {arg.default})"
        label = "--" + name + ("" if arg.type is bool else " " + arg.type.__name__.upper())
        rows.append((label, " ".join(filter(None, (arg.help, "/".join(arg.choices), default)))))
    usage = [prog, "[options]", *node.positionals] + ["COMMAND ..."] * bool(node.commands)
    return "\n".join(["usage: " + " ".join(usage), "", node.help, ""]
                     + [f"  {label:<22}{text}".rstrip() for label, text in rows]) + "\n"


def _read(argv: List[str]) -> Optional[dict]:
    """Each flag (at its default if not given) and positional of ``argv``
    by name, and under "command" the commands chosen.  A value flag takes
    the next token as it is; after '--' every token is positional.  Returns
    None after printing -h/--help; raises _InputError on a usage error."""
    node, prog, rest = _SPINSPEC, "spinspec", iter(argv)
    args, positionals, dash_dash = {"command": [], "convention": False}, [], False

    def fail(message):
        raise _InputError(f"{prog}: error: {message}")

    def value(arg, name, text):
        if text is None:
            fail(f"argument {name}: expected one argument")
        try:
            got = arg.type(text)
        except ValueError:
            fail(f"argument {name}: invalid {arg.type.__name__} value: {text!r}")
        if arg.choices and got not in arg.choices:
            fail(f"argument {name}: invalid choice: {text!r} (choose from "
                 + ", ".join(map(repr, arg.choices)) + ")")
        return got

    for token in rest:
        if token == "--" and not dash_dash:
            dash_dash = True
        elif token.startswith("-") and token != "-" and not dash_dash:
            flag, eq, text = token.partition("=")
            flag = "--help" if flag == "-h" else flag
            names = [name for name in ("help", *node.flags)
                     if flag.startswith("--") and ("--" + name).startswith(flag)]
            if flag[2:] in names:  # a whole name wins over the longer names it begins
                names = [flag[2:]]
            if len(names) != 1:
                fail(f"ambiguous option: {flag} could match --" + ", --".join(names)
                     if names else f"unrecognized arguments: {token}")
            if names[0] == "help":
                sys.stdout.write(_help(node, prog))
                return None
            name, arg = names[0], node.flags[names[0]]
            if arg.type is bool and eq:
                fail(f"argument --{name}: ignored explicit argument {text!r}")
            text = text if eq or arg.type is bool else next(rest, None)
            args[name] = True if arg.type is bool else value(arg, "--" + name, text)
        elif positionals:
            name = positionals.pop(0)
            args[name] = value(node.positionals[name], name, token)
        elif node.commands:
            node = node.commands[value(_Arg(choices=(*node.commands,)), "command", token)]
            prog += " " + token
            args["command"].append(token)
            args.update((name, arg.default) for name, arg in node.flags.items())
            positionals = list(node.positionals)
        else:
            fail(f"unrecognized arguments: {token}")
    missing = positionals + ["command"] * (bool(node.commands) and not args["convention"])
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    return args


_EXIT3_COMMANDS = {"invariant", "index", "fredholm", "spectral-flow", "twist-scan"}


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:2] == ["forms", "sum"] and "--" not in argv:
        flag = argv[2].partition("=")[0] if argv[2:] else ""
        if not (flag == "-h" or len(flag) > 2 and "--help".startswith(flag)):  # as _read
            argv.insert(2, "--")  # a spec may start with '-'; the echo shows the '--'
    try:
        args = _read(argv)
        if args is None:
            return 0
        if args["convention"]:
            _emit(convention_block())
            return 0
        cmd = args["command"][0]
        # import the layer the command runs on before its timer starts
        if "file" in _COMMANDS[cmd].positionals:  # a symbol file: floquet, and numpy
            from . import floquet
        elif "spin" in _COMMANDS[cmd].flags:  # the circle model's closed forms
            from . import spectra
        t0 = time.perf_counter()
        rest = list(argv)
        rest.remove(cmd)  # the subcommand token only: a file or value may equal it
        return _COMMANDS[cmd].run(args, [cmd] + rest, t0)
    except (_InputError, ParseError) as exc:
        print(exc if isinstance(exc, _InputError) else f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if args["command"][0] in _EXIT3_COMMANDS else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
