"""Scalar rows in and out of the integer row kernel: hand-worked echelon
forms and null spaces through ``row_to_ints`` and ``ints_to_row``."""

from hypothesis import given, settings, strategies as st

from relcalc import GaussianRational, _rowops
from relcalc.matrices import ints_to_row, row_to_ints

entries = st.integers(min_value=-6, max_value=6)


def rref(rows, width):
    """Pivot columns and reduced nonzero rows of a list of scalar rows."""
    pivots, out = _rowops.rref([row_to_ints(r) for r in rows], width)
    return tuple(pivots), [ints_to_row(r) for r in out]


def nullspace(rows, width):
    """Canonical basis of {x : Mx = 0} for the matrix M with these rows."""
    pivots, out = _rowops.rref([row_to_ints(r) for r in rows], width)
    return [ints_to_row(r) for r in _rowops.nullspace(pivots, out, width)[1]]


@st.composite
def matrices(draw, max_dim=5):
    """Width and rows of a matrix with Gaussian-integer entries."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(1, max_dim))
    entry = st.builds(GaussianRational, entries, entries)
    return c, [[draw(entry) for _ in range(c)] for _ in range(r)]


def test_rref_rank_one():
    assert rref([[1, 1], [2, 2]], 2) == ((0,), [(1, 1)])


def test_rref_identity():
    ident = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rref(ident, 3) == ((0, 1, 2), ident)


def test_rref_swap():
    # hand Gaussian elimination: swap rows, already reduced
    assert rref([[0, 1], [1, 0]], 2) == ((0, 1), [(1, 0), (0, 1)])


def test_nullspace_line():
    # solve x1 + x2 = 0 by hand: x = t(-1, 1); canonical leading-1 form
    assert nullspace([[1, 1]], 2) == [(1, -1)]


def test_nullspace_injective():
    assert nullspace([[int(i == j) for j in range(4)] for i in range(4)], 4) == []


def test_nullspace_zero_matrix():
    assert len(nullspace([[0, 0, 0], [0, 0, 0]], 3)) == 3


@settings(max_examples=60)
@given(matrices())
def test_rref_is_idempotent(m):
    width, rows = m
    pivots, reduced = rref(rows, width)
    assert rref(reduced, width) == (pivots, reduced)


@settings(max_examples=60)
@given(matrices())
def test_rank_of_conj_transpose(m):
    width, rows = m
    adjoint = [[row[j].conjugate() for row in rows] for j in range(width)]
    assert len(rref(rows, width)[0]) == len(rref(adjoint, len(rows))[0])


@settings(max_examples=60)
@given(matrices())
def test_nullspace_vectors_annihilate(m):
    width, rows = m
    basis = nullspace(rows, width)
    assert len(basis) == width - len(rref(rows, width)[0])
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)


def test_ints_to_row_keeps_its_fractions(monkeypatch):
    """``ints_to_row`` gives the same scalars as ever, and each part that it
    builds as a ``Fraction`` is the part of the scalar, not a copy of it."""
    from fractions import Fraction

    from relcalc import matrices

    made = []

    def fraction(*args):
        made.append(Fraction(*args))
        return made[-1]

    monkeypatch.setattr(matrices, "Fraction", fraction)
    row = ints_to_row((6, (3, -4, 0), (0, 2, 5)))
    assert row == (
        GaussianRational(Fraction(1, 2)),
        GaussianRational(Fraction(-2, 3), Fraction(1, 3)),
        GaussianRational(0, Fraction(5, 6)),
    )
    assert [str(z) for z in row] == ["1/2", "-2/3+1/3i", "0+5/6i"]
    parts = [part for z in row for part in (z.re, z.im) if part]
    assert len(parts) == 4 and all(any(part is m for m in made) for part in parts)
    assert all(type(part) is Fraction for z in row for part in (z.re, z.im))
