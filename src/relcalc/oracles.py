"""Oracle routes: independent second constructions that the tests and the
named checks compare with the production operations on random inputs.

Each reaches its answer by a different computation than the route it checks.
:meth:`Subspace.intersect`, :meth:`LinearRelation.compose` and
:meth:`LinearRelation.plus` read their results off residual rows; their
oracles solve a stacked coefficient system, directly for the intersection
and inside a triple space for the other two.  Generator coordinates check
:meth:`LinearRelation.meet` (graph intersection), and the augmented form
checks :func:`relcalc.idempotents.maximal_idempotent` (restricted form).
"""

from __future__ import annotations

from . import _rowops
from .errors import DimensionError
from .idempotents import _require_same_ambient, super_form
from .matrices import ints_to_row, row_to_ints
from .relations import LinearRelation, _combine_rows
from .scalars import GaussianRational
from .subspaces import Subspace


def intersect_by_stacking(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection via the direct stacked-coefficient system.

    Independent of the residual read-off; solves for coefficient pairs (a, b)
    with a . B1 = b . B2 and returns the span of the common vectors.
    """
    s1._require_same_ambient(s2)
    n = s1.ambient_dim
    d1, d2 = s1.dim, s2.dim
    if d1 == 0 or d2 == 0:
        return Subspace.zero(n)
    # Unknowns (a_1..a_d1, b_1..b_d2); one equation per ambient coordinate.
    width = d1 + d2
    eq_rows = []
    b1 = s1.basis_vectors()
    b2 = s2.basis_vectors()
    for coord in range(n):
        row = [b1[i][coord] for i in range(d1)] + [-b2[j][coord] for j in range(d2)]
        eq_rows.append(row_to_ints(row))
    pivots, rows = _rowops.rref(eq_rows, width)
    _, coeffs = _rowops.nullspace(pivots, rows, width)
    vectors = []
    for row in coeffs:
        scal = ints_to_row(row)
        combo = []
        for coord in range(n):
            acc = GaussianRational(0)
            for i in range(d1):
                acc = acc + scal[i] * b1[i][coord]
            combo.append(acc)
        vectors.append(combo)
    return Subspace.span(vectors, n)


def meet_by_generator_coordinates(
    t: LinearRelation, s: LinearRelation
) -> LinearRelation:
    """Oracle route for meet: the combinations of t's generators that also
    lie in s's graph, solved in generator coordinates."""
    t._require_same_dims(s)
    width = t.dim_in + t.dim_out
    coeffs = _coefficient_nullspace(t.graph._rows, s.graph._rows, width)
    # Only t's coefficients meet a block; those of s's generators drop out.
    blocks = [(r[1], r[2]) for r in t.graph._rows]
    rows = _combine_rows(coeffs, blocks, width)
    return LinearRelation(
        t.dim_in, t.dim_out, Subspace.from_int_rows(rows, width)
    )


def _coefficient_nullspace(t_rows, s_rows, width):
    """Canonical basis of {(a, b) : a . G_t = b . G_s}: the coefficients of
    the combinations common to both spans, over the denominator-cleared
    integer generators (den * row)."""
    gens = [(re, im, 1) for _, re, im in t_rows]
    gens += [(re, im, -1) for _, re, im in s_rows]
    eq_rows = [
        _rowops.make_row(
            [sign * re[c] for re, _, sign in gens],
            [sign * im[c] for _, im, sign in gens],
        )
        for c in range(width)
    ]
    pivots, rows = _rowops.rref(eq_rows, len(gens))
    return _rowops.nullspace(pivots, rows, len(gens))[1]


def compose_by_slot_elimination(
    s: LinearRelation, t: LinearRelation
) -> LinearRelation:
    """Oracle route for the product ST: materialize the triple space
    {(x, z, y) : (x, z) in t, (z, y) in s} inside F^(n+e+m), intersect, and
    project out the middle slot."""
    if t.dim_out != s.dim_in:
        raise DimensionError("slot mismatch")
    n, e, m = t.dim_in, t.dim_out, s.dim_out
    total = n + e + m
    lift_t = _embed(t.graph, total, 0).sum_with(_coordinate_block(total, n + e, m))
    lift_s = _embed(s.graph, total, n).sum_with(_coordinate_block(total, 0, n))
    triple = intersect_by_stacking(lift_t, lift_s)
    rows = [
        (den, re[:n] + re[n + e :], im[:n] + im[n + e :])
        for den, re, im in triple._rows
    ]
    return LinearRelation(n, m, Subspace.from_int_rows(rows, n + m))


def plus_by_slot_elimination(t: LinearRelation, s: LinearRelation) -> LinearRelation:
    """Oracle route for T + S via the space {(x, y, z)} with both graph
    constraints, mapped through (x, y, z) -> (x, y + z)."""
    t._require_same_dims(s)
    n, m = t.dim_in, t.dim_out
    total = n + m + m
    lift_t = _embed(t.graph, total, 0).sum_with(_coordinate_block(total, n + m, m))
    lift_s = _lift_outer(s.graph, n, m).sum_with(_coordinate_block(total, n, m))
    pairs = intersect_by_stacking(lift_t, lift_s)
    rows = []
    for den, re, im in pairs._rows:
        nre = list(re[:n]) + [re[n + k] + re[n + m + k] for k in range(m)]
        nim = list(im[:n]) + [im[n + k] + im[n + m + k] for k in range(m)]
        rows.append((den, nre, nim))
    return LinearRelation(n, m, Subspace.from_int_rows(rows, n + m))


def _embed(space: Subspace, total: int, offset: int) -> Subspace:
    rows = []
    for den, re, im in space._rows:
        nre = [0] * total
        nre[offset : offset + len(re)] = re
        nim = [0] * total
        nim[offset : offset + len(im)] = im
        rows.append((den, nre, nim))
    return Subspace.from_int_rows(rows, total)


def _lift_outer(space: Subspace, n: int, m: int) -> Subspace:
    """Embed a graph subspace of F^(n+m) into F^(n+m+m) on slots (0, 2)."""
    total = n + 2 * m
    rows = []
    for den, re, im in space._rows:
        nre = list(re[:n]) + [0] * m + list(re[n:])
        nim = list(im[:n]) + [0] * m + list(im[n:])
        rows.append((den, nre, nim))
    return Subspace.from_int_rows(rows, total)


def _coordinate_block(total: int, offset: int, size: int) -> Subspace:
    rows = []
    for i in range(size):
        re = [0] * total
        re[offset + i] = 1
        rows.append((1, re, [0] * total))
    return Subspace.from_int_rows(rows, total)


def maximal_idempotent_hat_form(
    x: Subspace, y: Subspace, z: Subspace
) -> LinearRelation:
    """The same largest idempotent written additively:
    super_form(X meet Z, Y meet Z, X meet Y).  Kept as the second route for
    the equality check on the two constructions."""
    _require_same_ambient(x, y, z)
    return super_form(x.intersect(z), y.intersect(z), x.intersect(y))
