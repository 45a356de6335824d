"""Oracle routes: independent second constructions that the tests and the
named checks compare with the production operations on random inputs.

Each reaches its answer by a different computation than the route it checks.
:meth:`Subspace.intersect`, :meth:`LinearRelation.compose` and
:meth:`LinearRelation.plus` read their results off residual rows; their
oracles solve one stacked coefficient system on the integer rows,
:func:`intersect_by_stacking`, directly for the intersection and inside a
triple space for the other two.  :meth:`LinearRelation.meet` is by
definition the intersection of the graphs, so the intersection's oracle,
applied to the graphs, checks it.  The augmented form checks
:func:`relcalc.idempotents.maximal_idempotent` (restricted form).
"""

from __future__ import annotations

from . import _rowops
from .errors import DimensionError
from .idempotents import super_form
from .relations import LinearRelation
from .subspaces import Subspace


def intersect_by_stacking(s1: Subspace, s2: Subspace) -> Subspace:
    """Intersection via the direct stacked-coefficient system.

    Independent of the residual read-off; solves for coefficient pairs (a, b)
    with a . B1 = b . B2 and returns the span of the common vectors a . B1.
    """
    s1._require_same_ambient(s2)
    n = s1.ambient_dim
    if s1.is_zero() or s2.is_zero():
        return Subspace.zero(n)
    coeffs = _coefficient_nullspace(s1._rows, s2._rows, n)
    # Only s1's coefficients meet a block; those of s2's rows drop out.
    blocks = [(re, im) for _, re, im in s1._rows]
    return Subspace.from_int_rows(_combine_rows(coeffs, blocks, n), n)


def _coefficient_nullspace(rows1, rows2, width):
    """Canonical basis of {(a, b) : a . G1 = b . G2}: the coefficients of
    the combinations common to both spans, over the denominator-cleared
    integer generators (den * row)."""
    gens = [(re, im, 1) for _, re, im in rows1]
    gens += [(re, im, -1) for _, re, im in rows2]
    eq_rows = [
        (
            1,
            tuple(sign * re[c] for re, _, sign in gens),
            tuple(sign * im[c] for _, im, sign in gens),
        )
        for c in range(width)
    ]
    pivots, rows = _rowops.rref(eq_rows, len(gens))
    return _rowops.nullspace(pivots, rows, len(gens))[1]


def _combine_rows(coeff_rows, blocks_list, width):
    """Integer-linear combinations of integer vectors.

    ``coeff_rows``: canonical rows over the coefficient space; entry j
    multiplies ``blocks_list[j]`` (a pair of integer re/im tuples of length
    ``width``).  Denominators scale the whole row and are irrelevant for
    spans, so they are dropped.
    """
    out = []
    for _, cre, cim in coeff_rows:
        re = [0] * width
        im = [0] * width
        for a, b, (bre, bim) in zip(cre, cim, blocks_list):
            if not a and not b:
                continue
            for k in range(width):
                x, y = bre[k], bim[k]
                re[k] += a * x - b * y
                im[k] += a * y + b * x
        out.append((1, tuple(re), tuple(im)))
    return out


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
    lift_t = _cylinder(t.graph, total, range(n + e))
    lift_s = _cylinder(s.graph, total, range(n, total))
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
    lift_t = _cylinder(t.graph, total, range(n + m))
    lift_s = _cylinder(s.graph, total, [*range(n), *range(n + m, total)])
    pairs = intersect_by_stacking(lift_t, lift_s)
    rows = []
    for den, re, im in pairs._rows:
        nre = list(re[:n]) + [re[n + k] + re[n + m + k] for k in range(m)]
        nim = list(im[:n]) + [im[n + k] + im[n + m + k] for k in range(m)]
        rows.append((den, nre, nim))
    return LinearRelation(n, m, Subspace.from_int_rows(rows, n + m))


def _cylinder(space: Subspace, total: int, columns) -> Subspace:
    """space x F^rest inside F^total: the rows of ``space`` placed on
    ``columns``, a unit row on every other column, and one ``rref``."""
    rows = []
    for den, re, im in space._rows:
        nre, nim = [0] * total, [0] * total
        for c, x, y in zip(columns, re, im):
            nre[c], nim[c] = x, y
        rows.append((den, nre, nim))
    for c in set(range(total)).difference(columns):
        unit = [0] * total
        unit[c] = 1
        rows.append((1, unit, [0] * total))
    return Subspace.from_int_rows(rows, total)


def maximal_idempotent_hat_form(
    x: Subspace, y: Subspace, z: Subspace
) -> LinearRelation:
    """The same largest idempotent written additively:
    super_form(X meet Z, Y meet Z, X meet Y).  Kept as the second route for
    the equality check on the two constructions."""
    return super_form(x.intersect(z), y.intersect(z), x.intersect(y))
