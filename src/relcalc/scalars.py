"""Exact Gaussian-rational scalars: a + b*i with rational a, b.

The text form is "p/q" for real values and sign-aware "p/q+r/si" in general
("1/2-3/4i", "0+1i"); plain integers mean p/1.  Parsing never goes through
floats.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction

from .errors import ParseError, PreconditionError

_RAT = r"[+-]?\d+(?:/\d+)?"
_GENERAL_RE = _re.compile(rf"^(?P<re>{_RAT})(?:(?P<im>[+-]\d+(?:/\d+)?)i)?$")
_IMAGINARY_RE = _re.compile(rf"^(?P<im>{_RAT})i$")


class GaussianRational:
    """Immutable element of Q(i) in canonical form.

    Canonicality (reduced fractions, positive denominators) is inherited
    from :class:`fractions.Fraction`, so equality is structural.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

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


def _format_rational(q: Fraction) -> str:
    try:
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    except ValueError:
        # Past the interpreter's int->str digit limit.  Exact results of
        # small inputs can be that long, and they are printed in full.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return _format_rational(q)
        finally:
            sys.set_int_max_str_digits(limit)


def format_scalar(z: GaussianRational) -> str:
    """Canonical text form; ``parse_scalar`` inverts it exactly."""
    out = _format_rational(z.re)
    if z.im:
        out += ("+" if z.im > 0 else "-") + _format_rational(abs(z.im)) + "i"
    return out


def parse_scalar(text: str) -> GaussianRational:
    """Parse "p", "p/q", "p/q+r/si", or a pure imaginary "r/si".

    Raises :class:`ParseError` on floats, zero denominators, integers too
    long to convert, or anything else that is not an exact scalar literal.
    """
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    stripped = text.strip()
    try:
        m = _GENERAL_RE.match(stripped)
        if m:
            re_part = _parse_rational(m.group("re"))
            im_part = _parse_rational(m.group("im")) if m.group("im") else Fraction(0)
            return GaussianRational(re_part, im_part)
        m = _IMAGINARY_RE.match(stripped)
        if m:
            return GaussianRational(0, _parse_rational(m.group("im")))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError as exc:
        # int() refuses literals past the interpreter's digit limit.
        raise ParseError(f"scalar literal out of range: {exc}") from None
    raise ParseError(f"malformed scalar {text!r}")


def _parse_rational(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))
