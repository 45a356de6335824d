"""Rows of exact scalars in and out of the integer row kernel.

:mod:`relcalc._rowops` works on integer-scaled rows ``(den, re, im)``; these
two conversions are the only place where rows of :class:`GaussianRational`
values cross into that form and back.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _rowops
from .scalars import GaussianRational, as_scalar


def row_to_ints(entries) -> _rowops.Row:
    """Scale one row of scalars to the integer ``(den, re, im)`` form."""
    scalars = [as_scalar(e) for e in entries]
    den = 1
    for z in scalars:
        den = lcm(den, z.re.denominator, z.im.denominator)
    re = [int(z.re * den) for z in scalars]
    im = [int(z.im * den) for z in scalars]
    return (den, tuple(re), tuple(im))


def ints_to_row(row: _rowops.Row) -> tuple[GaussianRational, ...]:
    den, re, im = row
    # A zero part is passed as 0, which GaussianRational converts fastest.
    return tuple(
        GaussianRational(Fraction(x, den), y and Fraction(y, den))
        for x, y in zip(re, im)
    )
