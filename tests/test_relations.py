"""Linear relations: parts, algebra, composition, adjoints."""

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import (
    DimensionError,
    ExactMatrix,
    GaussianRational,
    LinearRelation,
    Subspace,
)
from relcalc.oracles import (
    compose_by_slot_elimination,
    meet_by_graph_intersection,
    plus_by_slot_elimination,
)

I = GaussianRational(0, 1)


def e(k, n):
    v = [0] * n
    v[k] = 1
    return v


def span(vectors, n):
    return Subspace.span(vectors, n)


@st.composite
def relations(draw, dim_in=None, dim_out=None, ambient=3):
    n = dim_in if dim_in is not None else draw(st.integers(1, ambient))
    m = dim_out if dim_out is not None else draw(st.integers(1, ambient))
    k = draw(st.integers(0, n + m))
    pairs = []
    for _ in range(k):
        x = [
            GaussianRational(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            for _ in range(n)
        ]
        y = [
            GaussianRational(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
            for _ in range(m)
        ]
        pairs.append((x, y))
    return LinearRelation.from_generators(pairs, n, m)


square_relations = relations(dim_in=3, dim_out=3)


# -- constructors and parts ------------------------------------------------------


def test_from_generators_single():
    t = LinearRelation.from_generators([(e(0, 2), e(1, 2))], 2, 2)
    assert t.graph.dim == 1


def test_zero_relation_parts():
    t = LinearRelation.from_generators([], 2, 3)
    p = t.parts()
    assert p.dom.is_zero() and p.ran.is_zero() and p.ker.is_zero() and p.mul.is_zero()


def test_projection_generators():
    t = LinearRelation.from_generators([(e(0, 2), e(0, 2)), (e(1, 2), [0, 0])], 2, 2)
    p = t.parts()
    assert p.dom == Subspace.full(2)
    assert p.ran == span([e(0, 2)], 2)
    assert p.ker == span([e(1, 2)], 2)
    assert p.mul.is_zero()


def test_graph_of_identity():
    assert LinearRelation.graph_of_matrix(
        ExactMatrix.identity(3)
    ) == LinearRelation.identity(3)


def test_graph_of_zero_matrix():
    t = LinearRelation.graph_of_matrix(ExactMatrix.zeros(2, 2))
    assert t == LinearRelation.product_space(Subspace.full(2), Subspace.zero(2))


def test_graph_of_nilpotent():
    # A maps e1 -> 0, e2 -> e1: kernel and range are both span{e1}
    t = LinearRelation.graph_of_matrix(ExactMatrix.from_rows([[0, 1], [0, 0]]))
    assert t.ker == span([e(0, 2)], 2)
    assert t.ran == span([e(0, 2)], 2)
    assert t.mul.is_zero() and t.dom == Subspace.full(2)


def test_identity_on_cases():
    assert LinearRelation.identity_on(Subspace.full(3)) == LinearRelation.identity(3)
    assert LinearRelation.identity_on(Subspace.zero(2)) == LinearRelation.zero(2, 2)
    diag = LinearRelation.identity_on(span([[1, 1]], 2))
    assert diag.graph == span([[1, 1, 1, 1]], 4)


def test_product_space_blocks():
    n_block = LinearRelation.product_space(span([e(1, 2)], 2), Subspace.zero(2))
    assert n_block.dom == span([e(1, 2)], 2) and n_block.ran.is_zero()
    s_block = LinearRelation.product_space(Subspace.zero(3), span([e(2, 3)], 3))
    assert s_block.mul == span([e(2, 3)], 3) and s_block.dom.is_zero()
    assert LinearRelation.product_space(
        Subspace.zero(2), Subspace.zero(2)
    ) == LinearRelation.zero(2, 2)


def test_full_relation_parts():
    t = LinearRelation.full(2, 2)
    p = t.parts()
    assert p.dom == p.ran == p.ker == p.mul == Subspace.full(2)


def test_shared_line_semi_projection_parts():
    # P_{M,N} with M = N = span{e1} in F^2: every part collapses to the line
    from relcalc import semi_projection

    line = span([e(0, 2)], 2)
    p = semi_projection(line, line).parts()
    assert p.dom == p.ran == p.ker == p.mul == line


# -- unary algebra ------------------------------------------------------------------


def test_inverse_of_identity():
    t = LinearRelation.identity(3)
    assert t.inverse() == t


def test_inverse_swaps_parts():
    t = LinearRelation.graph_of_matrix(ExactMatrix.from_rows([[0, 1], [0, 0]]))
    inv = t.inverse()
    assert inv.dom == t.ran and inv.ran == t.dom
    assert inv.ker == t.mul and inv.mul == t.ker
    assert inv.dom == span([e(0, 2)], 2) and inv.mul == span([e(0, 2)], 2)


@settings(max_examples=50)
@given(relations())
def test_inverse_involution(t):
    assert t.inverse().inverse() == t


def test_one_minus_of_identity():
    ident = LinearRelation.identity(3)
    assert ident.one_minus() == LinearRelation.graph_of_matrix(ExactMatrix.zeros(3, 3))


def test_one_minus_swaps_projection():
    from relcalc import semi_projection

    p = semi_projection(span([e(0, 2)], 2), span([e(1, 2)], 2))
    q = semi_projection(span([e(1, 2)], 2), span([e(0, 2)], 2))
    assert p.one_minus() == q


@settings(max_examples=50)
@given(square_relations)
def test_one_minus_involution(t):
    assert t.one_minus().one_minus() == t


def test_one_minus_requires_square():
    with pytest.raises(DimensionError):
        LinearRelation.from_generators([], 2, 3).one_minus()


@settings(max_examples=50)
@given(square_relations)
def test_one_minus_matches_pointwise_route(t):
    ident = LinearRelation.identity(t.dim_in)
    assert t.one_minus() == ident.plus(t.negate())


# -- binary algebra -----------------------------------------------------------------


def test_hat_sum_gives_semi_projection():
    from relcalc import semi_projection

    m = span([[1, 1]], 2)
    n = span([e(1, 2)], 2)
    built = LinearRelation.identity_on(m).hat_sum(
        LinearRelation.product_space(n, Subspace.zero(2))
    )
    assert built == semi_projection(m, n)
    assert built.ran == m and built.ker == n


@settings(max_examples=50)
@given(relations())
def test_hat_sum_idempotent_and_parts(t):
    assert t.hat_sum(t) == t
    s = LinearRelation.zero(t.dim_in, t.dim_out)
    assert t.hat_sum(s) == t


@settings(max_examples=40)
@given(relations(dim_in=2, dim_out=2), relations(dim_in=2, dim_out=2))
def test_hat_sum_parts_formulas(t, s):
    u = t.hat_sum(s)
    assert u.dom == t.dom.sum_with(s.dom)
    assert u.ran == t.ran.sum_with(s.ran)


def test_meet_restricts_domain():
    # P_{M,N} meet (S x H) for M=e1, N=e2, S=e1+e2: one generator ((1,1),(1,0))
    from relcalc import semi_projection

    p = semi_projection(span([e(0, 2)], 2), span([e(1, 2)], 2))
    restricted = p.meet(
        LinearRelation.product_space(span([[1, 1]], 2), Subspace.full(2))
    )
    assert restricted.graph == span([[1, 1, 1, 0]], 4)


@settings(max_examples=40)
@given(relations(dim_in=2, dim_out=2), relations(dim_in=2, dim_out=2))
def test_meet_two_routes_and_part_identities(t, s):
    u = t.meet(s)
    assert u == meet_by_graph_intersection(t, s)
    assert u.mul == t.mul.intersect(s.mul)
    assert u.ker == t.ker.intersect(s.ker)
    assert t.meet(t) == t


@settings(max_examples=40)
@given(relations(dim_in=2, dim_out=2), relations(dim_in=2, dim_out=2))
def test_plus_two_routes_and_domain(t, s):
    u = t.plus(s)
    assert u == plus_by_slot_elimination(t, s)
    assert u.dom == t.dom.intersect(s.dom)


def test_plus_with_zero_operator():
    t = LinearRelation.graph_of_matrix(ExactMatrix.from_rows([[1, 2], [3, 4]]))
    zero_op = LinearRelation.graph_of_matrix(ExactMatrix.zeros(2, 2))
    assert t.plus(zero_op) == t


def test_plus_identity_minus_identity():
    ident = LinearRelation.identity(2)
    minus = LinearRelation.graph_of_matrix(
        ExactMatrix.from_rows([[-1, 0], [0, -1]])
    )
    assert ident.plus(minus) == LinearRelation.graph_of_matrix(ExactMatrix.zeros(2, 2))


# -- composition ----------------------------------------------------------------------


def test_compose_with_identity():
    t = LinearRelation.from_generators([(e(0, 2), [1, I])], 2, 2)
    ident = LinearRelation.identity(2)
    assert ident.compose(t) == t
    assert t.compose(ident) == t


@settings(max_examples=50)
@given(relations())
def test_compose_matches_slot_elimination(t):
    s = t.inverse()
    assert s.compose(t) == compose_by_slot_elimination(s, t)
    assert t.compose(s) == compose_by_slot_elimination(t, s)


@settings(max_examples=50)
@given(relations())
def test_inverse_composition_closed_forms(t):
    lhs = t.inverse().compose(t)
    rhs = LinearRelation.identity_on(t.dom).hat_sum(
        LinearRelation.product_space(Subspace.zero(t.dim_in), t.ker)
    )
    assert lhs == rhs
    lhs = t.compose(t.inverse())
    rhs = LinearRelation.identity_on(t.ran).hat_sum(
        LinearRelation.product_space(Subspace.zero(t.dim_out), t.mul)
    )
    assert lhs == rhs


def test_compose_dimension_check():
    with pytest.raises(DimensionError):
        LinearRelation.zero(3, 2).compose(LinearRelation.zero(2, 2))


# -- adjoints -------------------------------------------------------------------------


def adjoint_by_j_of_perp(t):
    """Oracle: J applied to the graph complement, J(x, y) = (-iy, ix)."""
    n, m = t.dim_in, t.dim_out
    pairs = []
    for v in t.graph.perp().basis_vectors():
        x, y = v[:n], v[n:]
        pairs.append(([-I * c for c in y], [I * c for c in x]))
    return LinearRelation.from_generators(pairs, m, n)


def adjoint_by_perp_of_j(t):
    """Oracle: complement of the J image of the graph."""
    n, m = t.dim_in, t.dim_out
    images = []
    for v in t.graph.basis_vectors():
        x, y = v[:n], v[n:]
        images.append([-I * c for c in y] + [I * c for c in x])
    jt = Subspace.span(images, m + n)
    return LinearRelation(m, n, jt.perp())


def test_adjoint_hand_example():
    # T sends e1 to e2 on span{e1}; the defining equations force
    # T* = {((x1, x2), (x2, t))}
    t = LinearRelation.from_generators([(e(0, 2), e(1, 2))], 2, 2)
    adj = t.adjoint()
    assert adj.graph.dim == 3
    assert adj.ker == span([e(0, 2)], 2)
    assert adj.mul == span([e(1, 2)], 2)
    member = Subspace.span([[1, 2, 2, 7]], 4)
    assert adj.graph.contains(member)


def test_adjoint_of_semi_projection_instance():
    from relcalc import semi_projection

    p = semi_projection(span([[1, 1]], 2), span([e(1, 2)], 2))
    expected = semi_projection(span([e(0, 2)], 2), span([[1, -1]], 2))
    assert p.adjoint() == expected


@settings(max_examples=50)
@given(relations())
def test_double_adjoint(t):
    assert t.adjoint().adjoint() == t
    assert t.closure() == t
    assert t.closure().adjoint() == t.adjoint()


@settings(max_examples=50)
@given(relations())
def test_adjoint_part_complements(t):
    adj = t.adjoint()
    assert adj.mul == t.dom.perp()
    assert adj.ker == t.ran.perp()
    assert adj.ran == t.ker.perp()
    assert adj.dom == t.mul.perp()


@settings(max_examples=50)
@given(relations())
def test_adjoint_matches_j_map_routes(t):
    adj = t.adjoint()
    assert adj == adjoint_by_j_of_perp(t)
    assert adj == adjoint_by_perp_of_j(t)


# -- ordering and invariants -------------------------------------------------------


def test_leq_reflexive_and_zero():
    t = LinearRelation.from_generators([(e(0, 2), e(0, 2))], 2, 2)
    assert t.leq(t)
    assert LinearRelation.zero(2, 2).leq(t)
    assert not t.leq(LinearRelation.zero(2, 2))


@settings(max_examples=60)
@given(relations())
def test_rank_nullity_for_relations(t):
    assert t.graph.dim == t.dom.dim + t.mul.dim
    assert t.graph.dim == t.ran.dim + t.ker.dim
    assert t.dom.contains(t.ker)
    assert t.ran.contains(t.mul)


def test_equality_requires_matching_dims():
    a = LinearRelation.zero(2, 2)
    b = LinearRelation.zero(2, 3)
    assert a != b
