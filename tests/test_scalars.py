"""Exact scalar arithmetic and the text form."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from relcalc import GaussianRational, ParseError, PreconditionError
from relcalc.scalars import format_scalar, parse_scalar

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(GaussianRational, rationals, rationals)


def test_addition_example():
    assert GaussianRational(Fraction(1, 2)) + GaussianRational(Fraction(1, 3)) == (
        GaussianRational(Fraction(5, 6))
    )


def test_i_squared():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)


def test_conjugation_example():
    z = GaussianRational(Fraction(2, 3), Fraction(1, 3))
    assert z.conjugate() == GaussianRational(Fraction(2, 3), Fraction(-1, 3))


def test_division_by_zero_is_an_error():
    with pytest.raises(PreconditionError):
        GaussianRational(1) / GaussianRational(0)


def test_division_inverts_multiplication():
    a = GaussianRational(Fraction(3, 4), Fraction(-2, 5))
    b = GaussianRational(Fraction(-1, 3), Fraction(7, 2))
    assert (a * b) / b == a


@given(scalars, scalars)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    assert norm.im == 0 and norm.re >= 0


@given(scalars)
def test_text_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize(
    "text, re_part, im_part",
    [
        ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
        ("5", Fraction(5), Fraction(0)),
        ("-7/3", Fraction(-7, 3), Fraction(0)),
        ("0+1i", Fraction(0), Fraction(1)),
        ("3i", Fraction(0), Fraction(3)),
        ("-1/2i", Fraction(0), Fraction(-1, 2)),
        ("+2", Fraction(2), Fraction(0)),
    ],
)
def test_parse_forms(text, re_part, im_part):
    assert parse_scalar(text) == GaussianRational(re_part, im_part)


@pytest.mark.parametrize(
    "bad",
    ["", "1.5", "1/0", "i", "1+i", "2+3", "1/2+3/4", "x", "1e3", "1/2 i"]
    # Decimal digits outside ASCII, which int() would read.
    + ["١", "1/٢", "٣i", "1+٤i", "１"],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_canonical_form_is_structural():
    assert GaussianRational(Fraction(2, 4)) == GaussianRational(Fraction(1, 2))
    assert hash(GaussianRational(Fraction(2, 4))) == hash(
        GaussianRational(Fraction(1, 2))
    )


def test_immutability():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)
