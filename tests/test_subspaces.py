"""Subspace lattice: canonical form, sum, meet, complements."""

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import DimensionError, GaussianRational, LinearRelation, Subspace
from relcalc.oracles import intersect_by_stacking

I = GaussianRational(0, 1)


def e(k, n):
    v = [0] * n
    v[k] = 1
    return v


def span(vectors, n):
    return Subspace.span(vectors, n)


def leading_columns(space):
    return tuple(
        next(k for k, x in enumerate(re) if x or (im is not None and im[k]))
        for _, re, im in space._rows
    )


@st.composite
def subspaces(draw, ambient=4):
    k = draw(st.integers(0, ambient))
    vecs = []
    for _ in range(k):
        vecs.append(
            [
                GaussianRational(
                    draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
                )
                for _ in range(ambient)
            ]
        )
    return span(vecs, ambient)


def test_span_dependent_generators():
    s = span([[1, 1], [2, 2]], 2)
    assert s.dim == 1
    assert s.basis_vectors() == [(GaussianRational(1), GaussianRational(1))]


def test_span_empty_is_zero():
    assert span([], 3) == Subspace.zero(3)
    assert Subspace.zero(3).dim == 0


def test_span_full():
    assert span([e(1, 2), e(0, 2)], 2) == Subspace.full(2)


def test_span_length_mismatch():
    with pytest.raises(DimensionError):
        span([[1, 0, 0]], 2)


def test_sum_of_complementary_lines():
    assert span([e(0, 2)], 2).sum_with(span([e(1, 2)], 2)) == Subspace.full(2)


def test_sum_is_idempotent():
    s = span([[1, 2, 3]], 3)
    assert s.sum_with(s) == s


def test_sum_stacked_basis():
    # RREF of rows (1,0,0), (1,1,0) by hand: (1,0,0), (0,1,0)
    got = span([e(0, 3)], 3).sum_with(span([[1, 1, 0]], 3))
    assert got == span([e(0, 3), e(1, 3)], 3)


def test_intersection_of_planes():
    # membership system solved by hand: common vectors are multiples of e2
    got = span([e(0, 3), e(1, 3)], 3).intersect(span([e(1, 3), e(2, 3)], 3))
    assert got == span([e(1, 3)], 3)


def test_intersection_idempotent_and_transversal():
    s = span([[1, 2], [0, 1]], 2)
    assert s.intersect(s) == s
    assert span([e(0, 2)], 2).intersect(span([e(1, 2)], 2)).is_zero()


def test_ortho_complement_of_line():
    assert span([e(0, 3)], 3).perp() == span([e(1, 3), e(2, 3)], 3)


def test_ortho_complement_of_zero():
    assert Subspace.zero(3).perp() == Subspace.full(3)


def test_ortho_complement_complex_line():
    # <(1,i), (i,1)> = 1*conj(i) + i*conj(1) = -i + i = 0, checked here
    # independently of the library inner product.
    s = span([[1, I]], 2)
    perp = s.perp()
    assert perp.dim == 1
    (w,) = perp.basis_vectors()
    lhs = GaussianRational(1) * w[0].conjugate() + I * w[1].conjugate()
    assert not lhs
    assert perp == span([[I, 1]], 2)


def test_contains_and_equals():
    plane = span([e(0, 2), e(1, 2)], 2)
    line = span([e(0, 2)], 2)
    assert plane.contains(line)
    assert not line.contains(plane)
    assert span([[1, 1]], 2) == span([[2, 2]], 2)


def test_relative_complement_orthogonal_split():
    s = span([e(0, 3), e(1, 3)], 3)
    t = span([e(1, 3)], 3)
    assert s.relative_complement(t) == span([e(0, 3)], 3)


def test_relative_complement_of_self():
    s = span([[1, 2, 0]], 3)
    assert s.relative_complement(s).is_zero()


def test_relative_complement_oblique():
    # S = F^2, T = span{e1}: the part of S orthogonal to e1 is span{e2}
    s = span([e(0, 2), [1, 1]], 2)
    t = span([e(0, 2)], 2)
    assert s.relative_complement(t) == span([e(1, 2)], 2)


def test_direct_sum_detection():
    assert span([e(0, 2)], 2).is_direct_sum_with(span([e(1, 2)], 2))
    assert not span([e(0, 2)], 2).is_direct_sum_with(span([e(0, 2)], 2))
    assert span([[1, 1, 0]], 3).is_direct_sum_with(span([e(0, 3), e(2, 3)], 3))


@settings(max_examples=80)
@given(subspaces(), subspaces())
def test_de_morgan(s1, s2):
    assert s1.sum_with(s2).perp() == s1.perp().intersect(s2.perp())
    assert s1.intersect(s2).perp() == s1.perp().sum_with(s2.perp())


@settings(max_examples=80)
@given(subspaces())
def test_double_complement(s):
    assert s.perp().perp() == s
    assert s.dim + s.perp().dim == s.ambient_dim
    # contains/member eliminate on the stored pivots, so they must be the
    # leading nonzero columns of the rows the null space route returns.
    assert s.perp()._pivots == leading_columns(s.perp())
    adjoint = LinearRelation(1, 3, s).adjoint().graph
    assert adjoint._pivots == leading_columns(adjoint)


@settings(max_examples=80)
@given(subspaces(), subspaces())
def test_modular_dimension_law(s1, s2):
    lhs = s1.sum_with(s2).dim + s1.intersect(s2).dim
    assert lhs == s1.dim + s2.dim


@settings(max_examples=80)
@given(subspaces(), subspaces())
def test_relative_complement_splits(s, t):
    meet = s.intersect(t)
    rest = s.relative_complement(t)
    assert rest.intersect(meet).is_zero()
    assert rest.sum_with(meet) == s


@settings(max_examples=80)
@given(subspaces(), subspaces())
def test_intersection_two_routes_agree(s1, s2):
    assert s1.intersect(s2) == intersect_by_stacking(s1, s2)


@settings(max_examples=40)
@given(subspaces(), st.randoms(use_true_random=False))
def test_canonicality_under_regeneration(s, rnd):
    # span of shuffled random combinations of the basis is the same stored value
    vecs = s.basis_vectors()
    combos = []
    for _ in range(len(vecs) + 1):
        acc = [GaussianRational(0)] * s.ambient_dim
        for v in vecs:
            c = GaussianRational(rnd.randint(-3, 3), rnd.randint(-3, 3))
            acc = [a + c * x for a, x in zip(acc, v)]
        combos.append(acc)
    regenerated = span(combos, s.ambient_dim)
    assert s.contains(regenerated)
    if regenerated.dim == s.dim:
        assert regenerated == s and regenerated.key() == s.key()


def test_ambient_mismatch():
    with pytest.raises(DimensionError):
        span([e(0, 2)], 2).intersect(span([e(0, 3)], 3))
