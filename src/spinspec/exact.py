"""Exact rational symmetric-form arithmetic.

Every routine here works over arbitrary-precision rationals and never
touches floating point or numpy, so the exact commands (``forms``,
``invariant``) start without loading numpy.  It backs every signature
computation in the invariant layer.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ContractViolation

__all__ = ["Inertia", "rational_ldl_inertia"]


@dataclass(frozen=True)
class Inertia:
    """Counts of positive, negative and zero pivots of a symmetric form."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def signature(self) -> int:
        return self.n_plus - self.n_minus


def _to_fraction(x) -> Fraction:
    """An exact rational entry: ``Fraction``, any ``numbers.Integral``
    (Python ``int`` and ``bool``, numpy's integer types), rational text
    such as ``"3/4"``, or a finite Python float's exact binary value.
    Text that is no rational (``"abc"``, ``"1/0"``) and a non-finite float
    are rejected like any other entry."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    if isinstance(x, (str, float)):  # a float's exact binary value
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise ContractViolation(f"entry {x!r} is not exactly representable as a rational")


def rational_ldl_inertia(s: Sequence[Sequence]) -> Inertia:
    """Inertia of an exact symmetric matrix by pivoted LDL over rationals.

    Pivoting: largest-magnitude diagonal entry; when every active diagonal
    vanishes, a 2x2 off-diagonal block pivot (needed for even forms such as
    the hyperbolic plane).  Sylvester's law makes the pivot signs an
    invariant, so ``signature`` is exact.  Singular forms are fine; the
    defect is reported in ``n_zero``.
    """
    a = [[_to_fraction(x) for x in row] for row in s]
    n = len(a)
    if n == 0 or any(len(r) != n for r in a):
        raise ContractViolation("expected a nonempty square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise ContractViolation("matrix is not exactly symmetric")

    # the active block lives in the upper triangle: a[i][j] with i <= j,
    # by original index; ``active`` stays ascending, so each unordered
    # pair is updated once
    active = list(range(n))
    n_plus = n_minus = 0
    while active:
        piv = max(active, key=lambda i: abs(a[i][i]))
        d = a[piv][piv]
        if d != 0:
            if d > 0:
                n_plus += 1
            else:
                n_minus += 1
            active.remove(piv)
            # rows and columns with a zero multiplier are left unchanged
            col = [(i, a[i][piv] if i < piv else a[piv][i]) for i in active]
            col = [(i, c) for i, c in col if c != 0]
            for p, (i, ci) in enumerate(col):
                m = ci / d
                row = a[i]
                for j, cj in col[p:]:
                    row[j] -= m * cj
            continue
        # all active diagonals vanish: look for a 2x2 block pivot
        best = None
        best_abs = Fraction(0)
        for ii, i in enumerate(active):
            row = a[i]
            for j in active[ii + 1:]:
                if abs(row[j]) > best_abs:
                    best, best_abs = (i, j), abs(row[j])
        if best is None:
            break  # active block is identically zero
        i, j = best
        b = a[i][j]
        # [[0, b], [b, 0]] has eigenvalues +-|b|
        n_plus += 1
        n_minus += 1
        active.remove(i)
        active.remove(j)
        cols = [(k, a[k][i] if k < i else a[i][k], a[k][j] if k < j else a[j][k])
                for k in active]
        cols = [(k, ki, kj) for k, ki, kj in cols if ki != 0 or kj != 0]
        for p, (k, ki, kj) in enumerate(cols):
            row = a[k]
            for l, li, lj in cols[p:]:
                row[l] -= (ki * lj + kj * li) / b
    return Inertia(n_plus=n_plus, n_minus=n_minus, n_zero=n - n_plus - n_minus)
