"""Idempotent calculus: classification, triples, canonical constructions."""

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import (
    GaussianRational,
    ICViolationError,
    IdempotentTriple,
    LinearRelation,
    NotIdempotentError,
    RangeTriple,
    Subspace,
    adjoint_idempotent,
    build_from_range_triple,
    build_pmns,
    classify,
    ic_holds,
    kernel_triple,
    maximal_idempotent,
    minimal_idempotent,
    range_condition_holds,
    range_to_kernel,
    range_triple,
    semi_projection,
    square,
    sub_form,
    super_form,
    triple_convert,
)
from relcalc.errors import DimensionError
from relcalc.oracles import maximal_idempotent_hat_form


def e(k, n):
    v = [0] * n
    v[k] = 1
    return v


def span(vectors, n):
    return Subspace.span(vectors, n)


def line(k, n):
    return span([e(k, n)], n)


@st.composite
def subspaces(draw, ambient=3):
    k = draw(st.integers(0, ambient))
    vecs = [
        [
            GaussianRational(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            for _ in range(ambient)
        ]
        for _ in range(k)
    ]
    return span(vecs, ambient)


@st.composite
def ic_triples(draw, ambient=3):
    a = draw(subspaces(ambient))
    b = draw(subspaces(ambient))
    c = draw(subspaces(ambient))
    return IdempotentTriple(b.intersect(c), a.intersect(c), a.intersect(b))


# -- canonical builders ---------------------------------------------------------


def test_semi_projection_is_coordinate_projection():
    p = semi_projection(line(0, 2), line(1, 2))
    cls = classify(p)
    assert cls.is_projection and cls.is_operator
    assert p.dom == Subspace.full(2)


def test_semi_projection_shared_line():
    s = line(0, 2)
    p = semi_projection(s, s)
    parts = p.parts()
    assert parts.dom == parts.ran == parts.ker == parts.mul == s


def test_semi_projection_oblique():
    p = semi_projection(span([[1, 1]], 2), line(1, 2))
    # oblique projection onto the diagonal: (x1, x2) maps to (x1, x1)
    assert p.graph.contains(span([[1, 0, 1, 1]], 4))
    assert p.graph.contains(span([[0, 1, 0, 0]], 4))
    assert classify(p).is_projection


def test_sub_super_form_sidedness():
    m, n, s = line(0, 2), line(1, 2), span([[1, 1]], 2)
    r = sub_form(m, n, s)
    cls = classify(r)
    assert cls.is_sub and not cls.is_super
    t = super_form(m, s, n)
    cls = classify(t)
    assert cls.is_super and not cls.is_sub


def test_identity_is_projection():
    cls = classify(LinearRelation.identity(2))
    assert cls.is_projection and cls.is_idempotent


def test_full_relation_squares_to_itself():
    full = LinearRelation.full(2, 2)
    assert square(full) == full
    assert classify(full).is_idempotent


def test_classify_requires_square():
    with pytest.raises(DimensionError):
        classify(LinearRelation.zero(2, 3))


def test_classify_witnesses_present():
    # A strictly super-idempotent relation must carry a witness pair in E^2 \ E
    t = super_form(line(0, 2), span([[1, 1]], 2), line(1, 2))
    cls = classify(t)
    assert not cls.is_sub
    pair = cls.witnesses["square_not_below"]
    assert pair is not None
    vec = list(pair[0]) + list(pair[1])
    assert t.squared().graph.contains(span([vec], 4))
    assert not t.graph.contains(span([vec], 4))


def test_square_closed_form_for_sub():
    m, n, s = line(0, 2), line(1, 2), span([[1, 1]], 2)
    r = sub_form(m, n, s)
    got = square(r)
    expected = super_form(r.one_minus().ker, r.ker, r.mul)
    assert got == expected
    assert classify(got).is_idempotent


def test_square_of_idempotent_is_identity_map():
    p = build_pmns(line(0, 3), line(1, 3), line(2, 3))
    assert square(p) == p


# -- triples ------------------------------------------------------------------------


def test_ic_holds_transversal():
    assert ic_holds(line(0, 3), line(1, 3), line(2, 3))


def test_ic_fails_diagonal():
    assert not ic_holds(line(0, 2), line(1, 2), span([[1, 1]], 2))


def test_ic_with_meet_third():
    m = span([e(0, 3), e(1, 3)], 3)
    n = span([e(1, 3), e(2, 3)], 3)
    assert ic_holds(m, n, m.intersect(n))


def test_kernel_triple_of_transversal_idempotent():
    p = build_pmns(line(0, 3), line(1, 3), line(2, 3))
    t = kernel_triple(p)
    assert (t.m, t.n, t.s) == (line(0, 3), line(1, 3), line(2, 3))


def test_kernel_triple_of_identity():
    t = kernel_triple(LinearRelation.identity(3))
    assert t.m == Subspace.full(3)
    assert t.n.is_zero() and t.s.is_zero()


def test_kernel_triple_of_semi_projection():
    m, n = span([[1, 1]], 2), line(1, 2)
    t = kernel_triple(semi_projection(m, n))
    assert (t.m, t.n, t.s) == (m, n, m.intersect(n))


def test_build_pmns_graph_shape():
    # graph {((a, b, 0), (a, 0, c))} built from the transversal triple
    p = build_pmns(line(0, 3), line(1, 3), line(2, 3))
    assert p.graph == span(
        [[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]], 6
    )


def test_build_pmns_of_meet_triple_is_semi_projection():
    m = span([e(0, 3), e(1, 3)], 3)
    n = span([e(1, 3), e(2, 3)], 3)
    assert build_pmns(m, n, m.intersect(n)) == semi_projection(m, n)


def test_build_pmns_rejects_non_ic():
    with pytest.raises(ICViolationError) as err:
        build_pmns(line(0, 2), line(1, 2), span([[1, 1]], 2))
    assert err.value.context["lhs"] is not None
    assert err.value.exit_code == 4


def test_range_triple_example():
    p = build_pmns(line(0, 3), line(1, 3), line(2, 3))
    t = range_triple(p)
    assert t.x == span([e(0, 3), e(2, 3)], 3)
    assert t.y == span([e(1, 3), e(2, 3)], 3)
    assert t.z == span([e(0, 3), e(1, 3)], 3)


def test_range_triple_of_identity_and_zero():
    t = range_triple(LinearRelation.identity(3))
    assert t.x == Subspace.full(3) and t.y.is_zero() and t.z == Subspace.full(3)
    zero_op = LinearRelation.graph_of_matrix(
        __import__("relcalc").ExactMatrix.zeros(3, 3)
    )
    t = range_triple(zero_op)
    assert t.x.is_zero() and t.y == Subspace.full(3) and t.z == Subspace.full(3)


def test_triple_guards():
    with pytest.raises(ICViolationError):
        IdempotentTriple(line(0, 2), line(1, 2), span([[1, 1]], 2))
    with pytest.raises(ICViolationError):
        RangeTriple(line(0, 2), Subspace.zero(2), Subspace.full(2))


def test_kernel_triple_requires_idempotent():
    t = super_form(line(0, 2), span([[1, 1]], 2), line(1, 2))
    with pytest.raises(NotIdempotentError) as err:
        kernel_triple(t)
    assert "witnesses" in err.value.context


def test_triple_convert_example():
    t = IdempotentTriple(line(0, 3), line(1, 3), line(2, 3))
    rt = triple_convert(t)
    assert rt.x == span([e(0, 3), e(2, 3)], 3)
    assert rt.y == span([e(1, 3), e(2, 3)], 3)
    assert rt.z == span([e(0, 3), e(1, 3)], 3)
    assert range_to_kernel(rt) == t


def test_triple_convert_semi_projection_case():
    m, n = line(0, 2), line(1, 2)
    rt = triple_convert(IdempotentTriple(m, n, m.intersect(n)))
    assert (rt.x, rt.y, rt.z) == (m, n, m.sum_with(n))


@settings(max_examples=60)
@given(ic_triples())
def test_triple_round_trips(t):
    rt = triple_convert(t)
    assert range_to_kernel(rt) == t
    assert triple_convert(range_to_kernel(rt)) == rt
    e_rel = build_pmns(t.m, t.n, t.s)
    assert kernel_triple(e_rel) == t
    assert build_from_range_triple(rt.x, rt.y, rt.z) == e_rel


# -- extremal idempotents --------------------------------------------------------


def test_minimal_idempotent_of_ic_triple():
    m, n, s = line(0, 3), line(1, 3), line(2, 3)
    assert minimal_idempotent(m, n, s) == build_pmns(m, n, s)


def test_minimal_idempotent_blows_up_to_full():
    m, n, s = line(0, 2), line(1, 2), span([[1, 1]], 2)
    assert minimal_idempotent(m, n, s) == LinearRelation.full(2, 2)


def test_minimal_idempotent_of_zeros():
    z = Subspace.zero(2)
    assert minimal_idempotent(z, z, z) == LinearRelation.zero(2, 2)


def test_maximal_idempotent_unconstrained():
    f = Subspace.full(2)
    assert maximal_idempotent(f, f, f) == LinearRelation.full(2, 2)


def test_maximal_idempotent_coordinate_projection():
    got = maximal_idempotent(line(0, 2), line(1, 2), Subspace.full(2))
    assert got == semi_projection(line(0, 2), line(1, 2))


def test_maximal_idempotent_trivial_bounds():
    z = Subspace.zero(2)
    assert maximal_idempotent(z, z, Subspace.full(2)) == LinearRelation.zero(2, 2)


@settings(max_examples=40)
@given(subspaces(), subspaces(), subspaces())
def test_extremal_constructions_are_idempotent(x, y, z):
    e0 = minimal_idempotent(x, y, z)
    assert classify(e0).is_idempotent
    t = kernel_triple(e0)
    assert t.m.contains(x) and t.n.contains(y) and t.s.contains(z)
    f0 = maximal_idempotent(x, y, z)
    assert f0 == maximal_idempotent_hat_form(x, y, z)
    assert classify(f0).is_idempotent
    assert x.contains(f0.ran) and z.contains(f0.dom)
    assert y.contains(f0.one_minus().ran)


# -- adjoints ------------------------------------------------------------------------


def test_adjoint_idempotent_transversal_self():
    p = build_pmns(line(0, 3), line(1, 3), line(2, 3))
    adj, t = adjoint_idempotent(p)
    assert adj == p
    assert (t.m, t.n, t.s) == (line(0, 3), line(1, 3), line(2, 3))


def test_adjoint_idempotent_identity():
    ident = LinearRelation.identity(2)
    adj, t = adjoint_idempotent(ident)
    assert adj == ident


def test_adjoint_of_semi_projection_via_triple():
    m, n = span([[1, 1]], 2), line(1, 2)
    p = semi_projection(m, n)
    adj, _ = adjoint_idempotent(p)
    assert adj == semi_projection(n.perp(), m.perp())


def test_adjoint_idempotent_requires_idempotent():
    t = super_form(line(0, 2), span([[1, 1]], 2), line(1, 2))
    with pytest.raises(NotIdempotentError):
        adjoint_idempotent(t)


@settings(max_examples=40)
@given(ic_triples())
def test_adjoint_triple_formula(t):
    e_rel = build_pmns(t.m, t.n, t.s)
    adj, got = adjoint_idempotent(e_rel)
    assert classify(adj).is_idempotent
    mp, np_, sp = t.m.perp(), t.n.perp(), t.s.perp()
    assert got == IdempotentTriple(
        np_.intersect(sp), mp.intersect(sp), mp.intersect(np_)
    )
