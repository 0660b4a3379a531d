"""Exception types shared by all modules.

``ContractViolation`` distinguishes violated preconditions and broken
numerical contracts from the built-in ``ValueError`` so callers (and the
CLI exit-code mapping) can tell library contract failures from plain bad
input.  ``check_tolerance`` is the one check of a tolerance argument.
"""

from __future__ import annotations


class ContractViolation(ValueError):
    """An operation's precondition or postcondition does not hold."""


def check_tolerance(tol: float) -> float:
    """``tol`` if it is finite and positive; else ``ContractViolation``."""
    if not 0.0 < tol < float("inf"):
        raise ContractViolation(f"tolerance must be finite and positive, got {tol!r}")
    return tol


class DegenerateCrossing(ContractViolation):
    """An eigenvalue is pinned at zero across a parameter interval, so a
    signed crossing count is not well-defined."""


class ParseError(ValueError):
    """A problem file failed to parse; carries line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
