"""Differential test of the integer row engine against textbook Gauss-Jordan.

Every cross-check route in the package ends in ``_rowops.rref``, so this
reference shares none of its code: entries are ``(re, im)`` pairs of
``Fraction`` and each pivot row is divided through before elimination.
"""

from fractions import Fraction
from math import gcd

from hypothesis import example, given, settings, strategies as st

from relcalc import _rowops

ZERO = (Fraction(0), Fraction(0))


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _inv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def ref_rref(rows, width):
    """Pivot columns and the reduced rows, as lists of Fraction pairs."""
    work = [list(r) for r in rows]
    pivots = []
    for col in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(work)) if work[i][col] != ZERO), None)
        if p is None:
            continue
        work[r], work[p] = work[p], work[r]
        inv = _inv(work[r][col])
        work[r] = [_mul(inv, x) for x in work[r]]
        for i, row in enumerate(work):
            f = row[col]
            if i != r and f != ZERO:
                work[i] = [
                    (x[0] - g[0], x[1] - g[1])
                    for x, g in zip(row, (_mul(f, y) for y in work[r]))
                ]
        pivots.append(col)
    return pivots, work[: len(pivots)]


def as_pairs(row):
    den, re, im = row
    return [(Fraction(a, den), Fraction(b, den)) for a, b in zip(re, im)]


def as_int_row(pairs):
    """Fraction pairs as an engine row over their common denominator."""
    den = 1
    for a, b in pairs:
        den = den * a.denominator // gcd(den, a.denominator)
        den = den * b.denominator // gcd(den, b.denominator)
    re = tuple(int(a * den) for a, _ in pairs)
    im = tuple(int(b * den) for _, b in pairs)
    return (den, re, im)


def assert_canonical(pivots, rows):
    """The rows are in reduced echelon form over increasing pivots, each
    content-reduced, with tuple ``re`` and ``im`` of the full width (``im``
    all zeros for a real row).  The reduced echelon form of a subspace is
    unique."""
    assert len(pivots) == len(rows) and list(pivots) == sorted(set(pivots))
    for i, ((den, re, im), p) in enumerate(zip(rows, pivots)):
        assert isinstance(re, tuple) and isinstance(im, tuple) and den > 0
        assert len(re) == len(im)
        assert gcd(den, *re, *im) == 1
        assert re[p] == den and im[p] == 0
        assert not any(re[:p]) and not any(im[:p])
        for j, (_, ore, oim) in enumerate(rows):
            assert j == i or (ore[p] == 0 and oim[p] == 0)


# Small entries make zero and repeated pivots likely; 2**40..2**64 push the
# intermediate denominators (products of pivots) past _REDUCE_BOUND = 2**48.
magnitudes = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(2**40, 2**64) | st.integers(-(2**64), -(2**40)),
)


@st.composite
def engine_rows(draw, max_width=24, max_rows=8):
    """Width and input rows.

    Rows may be real (an all-zero ``im``), purely imaginary or complex, in
    an all-real or a mixed set; they may repeat an earlier row, be zero, or
    have a denominator above 1.
    """
    width = draw(st.integers(1, max_width))
    real = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        shape = draw(st.sampled_from(("row", "row", "zero", "repeat")))
        if shape == "repeat" and rows:
            rows.append(draw(st.sampled_from(rows)))
            continue
        den = draw(st.sampled_from((1, 1, 2, 6, 2**50 + 1)))
        if shape == "zero":
            rows.append((den, (0,) * width, (0,) * width))
            continue
        kind = "real" if real else draw(st.sampled_from(("imag", "complex", "real")))
        re = tuple(0 if kind == "imag" else draw(magnitudes) for _ in range(width))
        if kind == "real":
            im = (0,) * width
        else:
            im = tuple(draw(magnitudes) for _ in range(width))
        rows.append((den, re, im))
    return width, rows


FIXED = [
    # Pure-imaginary pivot, then a complex one, over a duplicate and a zero row.
    (3, [(1, (0, 0, 1), (2, 1, 0)), (1, (0, 0, 1), (2, 1, 0)),
         (1, (0, 0, 0), (0, 0, 0)), (2, (3, 4, 5), (4, -3, 1))]),
    # Real pivots whose products pass the lazy reduction bound.
    (3, [(1, (2**47 + 1, 3, 5), (0, 0, 0)), (1, (7, 2**47 - 1, 11), (0, 0, 0)),
         (1, (13, 17, 2**45 + 3), (0, 0, 0))]),
    # A real pivot 2 (den 2 once normalized) clears a complex row whose
    # pivot-column entry is real, so the row's imaginary part must be
    # scaled by 2; the complex pivot that follows clears a real row.
    (3, [(1, (2, 1, 0), (0, 0, 0)), (1, (1, 0, 0), (0, 1, 1))]),
    # An imaginary pivot i clears a real row over den 3, then a negative
    # real pivot of a complex row is negated with its imaginary part.
    (3, [(1, (0, 1, 0), (1, 0, 0)), (1, (0, -3, 1), (0, 0, 2)),
         (3, (-2, 1, 1), (0, 0, 0))]),
    # A real pivot clears a row whose pivot-column entry is complex, and a
    # complex pivot 1+i one whose entry is imaginary.
    (3, [(1, (2, 0, 1), (0, 0, 0)), (1, (1, 1, 0), (1, 0, 1))]),
    (3, [(1, (1, 0, 2), (1, 1, 0)), (1, (0, 1, 1), (1, 0, 0))]),
    # Unit pivots: den 2 with entry 2/2, and den 1, which clears a complex
    # row whose pivot-column entry is real.
    (3, [(2, (2, 1, 3), (0, 0, 0)), (1, (0, 1, 5), (0, 0, 0)),
         (1, (0, 2, 0), (0, 0, 1)), (2, (0, 0, 2), (0, 1, 0))]),
    # More rows than the rank: a negative real pivot, and multiples over
    # several denominators.
    (2, [(1, (-2, -4), (0, 0)), (1, (1, 2), (0, 0)), (3, (1, 2), (0, 0)),
         (1, (0, 0), (1, 2)), (1, (0, 0), (0, 0))]),
]


@settings(max_examples=120, deadline=None)
@given(engine_rows())
@example(FIXED[0])
@example(FIXED[1])
@example(FIXED[2])
@example(FIXED[3])
@example(FIXED[4])
@example(FIXED[5])
@example(FIXED[6])
@example(FIXED[7])
def test_rref_matches_reference(case):
    width, rows = case
    pairs = [as_pairs(r) for r in rows]
    pivots, out = _rowops.rref(rows, width)
    assert_canonical(pivots, out)
    assert (pivots, [as_pairs(r) for r in out]) == ref_rref(pairs, width)
    # Canonical rows, whose real ones share the kernel's zero im, are their
    # own reduced echelon form.
    assert _rowops.rref(out, width) == (pivots, out)


@settings(max_examples=60, deadline=None)
@given(engine_rows())
@example(FIXED[0])
def test_nullspace_matches_reference(case):
    """Canonical, of dimension width - rank, and annihilated by the
    reference rows: by uniqueness, the reference null space itself."""
    width, rows = case
    pairs = [as_pairs(r) for r in rows]
    pivots, out = _rowops.rref(rows, width)
    npiv, nrows = _rowops.nullspace(pivots, out, width)
    assert_canonical(npiv, nrows)
    ref_rows = ref_rref(pairs, width)[1]
    assert len(nrows) == width - len(ref_rows)
    for x in map(as_pairs, nrows):
        for row in ref_rows:
            products = [_mul(a, b) for a, b in zip(row, x)]
            assert sum(p[0] for p in products) == sum(p[1] for p in products) == 0


@settings(max_examples=60, deadline=None)
@given(engine_rows(), st.data())
def test_member_matches_reference(case, data):
    """A Gaussian-integer combination of the rows lies in their span; an
    arbitrary vector does exactly when it leaves the reference rank alone."""
    width, rows = case
    pairs = [as_pairs(r) for r in rows]
    pivots, out = _rowops.rref(rows, width)
    coeff = st.integers(-2, 2).map(Fraction)
    vec = [ZERO] * width
    for row in pairs:
        c = (data.draw(coeff), data.draw(coeff))
        vec = [(x[0] + y[0], x[1] + y[1]) for x, y in zip(vec, (_mul(c, e) for e in row))]
    assert _rowops.member(pivots, out, as_int_row(vec))
    other = [(Fraction(data.draw(magnitudes)), data.draw(coeff)) for _ in range(width)]
    expected = len(ref_rref(pairs + [other], width)[0]) == len(pivots)
    assert _rowops.member(pivots, out, as_int_row(other)) == expected
    # The residual is zero in every pivot column, and what it removed from
    # the vector lies in the span: adding it leaves the reference rank alone.
    for v in (vec, other):
        res = as_pairs(_rowops.residual(pivots, out, as_int_row(v)))
        assert all(res[p] == ZERO for p in pivots)
        removed = [(x[0] - r[0], x[1] - r[1]) for x, r in zip(v, res)]
        assert len(ref_rref(pairs + [removed], width)[0]) == len(pivots)
