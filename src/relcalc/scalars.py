"""Exact Gaussian-rational scalars: a + b*i with rational a, b.

The text form is "p/q" for real values and sign-aware "p/q+r/si" in general
("1/2-3/4i", "0+1i"); plain integers mean p/1.  Parsing never goes through
floats.  The grammar and the formatter are the integer-level ones of
:mod:`relcalc.documents`, which documents use without building scalars.
"""

from __future__ import annotations

from fractions import Fraction

from .documents import format_entry, parse_entry
from .errors import ParseError, PreconditionError


class GaussianRational:
    """Immutable element of Q(i) in canonical form.

    Canonicality (reduced fractions, positive denominators) is inherited
    from :class:`fractions.Fraction`, so equality is structural.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # A part that is already a Fraction is kept, not built again.
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __reduce__(self):
        # The default would restore the slots through __setattr__.
        return GaussianRational, (self.re, self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            raise PreconditionError("division by zero scalar")
        n = other.re * other.re + other.im * other.im
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self) -> str:
        return f"GaussianRational({self})"

    def __str__(self) -> str:
        return format_scalar(self)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


def as_scalar(value) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational; reject floats."""
    got = _coerce(value)
    if got is None:
        raise ParseError(f"not an exact scalar: {value!r}")
    return got


def format_scalar(z: GaussianRational) -> str:
    """Canonical text form; ``parse_scalar`` inverts it exactly."""
    re, im = z.re, z.im
    return format_entry(re.numerator, re.denominator, im.numerator, im.denominator)


def parse_scalar(text: str) -> GaussianRational:
    """Parse "p", "p/q", "p/q+r/si", or a pure imaginary "r/si".

    Raises :class:`ParseError` on floats, zero denominators, integers too
    long to convert, or anything else that is not an exact scalar literal.
    """
    p, q, r, s = parse_entry(text)
    return GaussianRational(Fraction(p, q), Fraction(r, s))
