"""Rows of exact scalars in and out of the integer row kernel.

:mod:`relcalc._rowops` works on integer-scaled rows ``(den, re, im)``; these
two conversions are the only place where rows of :class:`GaussianRational`
values cross into that form and back.
"""

from __future__ import annotations

from fractions import Fraction

from . import _rowops
from .documents import _int_row
from .scalars import GaussianRational, as_scalar


def row_to_ints(entries) -> _rowops.Row:
    """Scale one row of scalars to the integer ``(den, re, im)`` form over
    one lcm of their denominators, as documents scale parsed entries."""
    return _int_row([
        (z.re.numerator, z.re.denominator, z.im.numerator, z.im.denominator)
        for z in map(as_scalar, entries)
    ])


def ints_to_row(row: _rowops.Row) -> tuple[GaussianRational, ...]:
    den, re, im = row
    # A zero part is passed as 0, which GaussianRational converts fastest.
    return tuple(
        GaussianRational(Fraction(x, den), y and Fraction(y, den))
        for x, y in zip(re, im)
    )
