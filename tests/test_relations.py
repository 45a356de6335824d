"""Linear relations: parts, algebra, composition, adjoints."""

import pytest
from hypothesis import example, given, settings, strategies as st

from relcalc import DimensionError, GaussianRational, LinearRelation, Subspace
from relcalc import _rowops
from relcalc.oracles import (
    compose_by_slot_elimination,
    intersect_by_stacking,
    plus_by_slot_elimination,
)

from vectors import I, e, span


def operator(matrix):
    """The graph {(x, Ax)} of the matrix A, given as a list of rows."""
    n = len(matrix[0])
    pairs = [(e(i, n), [row[i] for row in matrix]) for i in range(n)]
    return LinearRelation.from_generators(pairs, n, len(matrix))


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


@st.composite
def read_off_relations(draw):
    """Real or complex entries; with no_input, every generator has a zero
    input part, so every pivot of the graph lies in the output block."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    real = draw(st.booleans())
    no_input = draw(st.booleans())

    def entry():
        im = 0 if real else draw(st.integers(-3, 3))
        return GaussianRational(draw(st.integers(-3, 3)), im)

    pairs = []
    for _ in range(draw(st.integers(0, n + m))):
        x = [0 if no_input else entry() for _ in range(n)]
        pairs.append((x, [entry() for _ in range(m)]))
    return LinearRelation.from_generators(pairs, n, m)


@st.composite
def operands(draw, n, m):
    """Operands of every shape the read-offs of compose, plus and meet
    handle: the zero and the full relation, and spans of real, complex or
    mixed generators, some with entries past the kernel's content-reduction
    bound and some with extra generators (0, y) that give a multivalued
    part."""
    shape = draw(st.sampled_from(("spanned", "zero", "full")))
    if shape == "zero":
        return LinearRelation.zero(n, m)
    if shape == "full":
        return LinearRelation.full(n, m)
    kind = draw(st.sampled_from(("real", "complex", "mixed")))
    ints = st.integers(-3, 3)
    if draw(st.booleans()):
        ints = st.one_of(ints, st.integers(-(1 << 60), 1 << 60))

    def vector(k, real):
        return [
            GaussianRational(draw(ints), 0 if real else draw(ints))
            for _ in range(k)
        ]

    def real():
        return kind == "real" or (kind == "mixed" and draw(st.booleans()))

    pairs = []
    for _ in range(draw(st.integers(0, n + m))):
        r = real()
        pairs.append((vector(n, r), vector(m, r)))
    pairs += [([0] * n, vector(m, real())) for _ in range(draw(st.integers(0, 2)))]
    return LinearRelation.from_generators(pairs, n, m)


def one_minus_by_int_rows(t):
    """Reference: map every graph row (u, v) to (u, u - v) and echelonize
    the images afresh."""
    n = t.dim_in
    rows = []
    for den, re, im in t.graph._rows:
        nre = list(re[:n]) + [re[k] - re[n + k] for k in range(n)]
        nim = list(im[:n]) + [im[k] - im[n + k] for k in range(n)]
        rows.append((den, nre, nim))
    return LinearRelation(n, n, Subspace.from_int_rows(rows, 2 * n))


def leading_columns(space):
    return tuple(
        next(k for k, x in enumerate(re) if x or im[k])
        for _, re, im in space._rows
    )


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


def projection_parts(t):
    """Reference route for dom and ran: slice every graph row to one block
    and echelonize the slices afresh."""
    n = t.dim_in
    dom_rows, ran_rows = [], []
    for den, re, im in t.graph._rows:
        dom_rows.append((den, re[:n], im[:n]))
        ran_rows.append((den, re[n:], im[n:]))
    return (
        Subspace.from_int_rows(dom_rows, n),
        Subspace.from_int_rows(ran_rows, t.dim_out),
    )


@settings(max_examples=80)
@given(read_off_relations())
def test_parts_read_off_matches_projection(t):
    p = t.parts()
    assert (p.dom, p.ran) == projection_parts(t)
    for part in p:
        assert part._pivots == leading_columns(part)


def test_graph_of_identity():
    assert operator([e(0, 3), e(1, 3), e(2, 3)]) == LinearRelation.identity(3)


def test_graph_of_zero_matrix():
    t = operator([[0, 0], [0, 0]])
    assert t == LinearRelation.product_space(Subspace.full(2), Subspace.zero(2))


def test_graph_of_nilpotent():
    # A maps e1 -> 0, e2 -> e1: kernel and range are both span{e1}
    t = operator([[0, 1], [0, 0]])
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
    t = operator([[0, 1], [0, 0]])
    inv = t.inverse()
    assert inv.dom == t.ran and inv.ran == t.dom
    assert inv.ker == t.mul and inv.mul == t.ker
    assert inv.dom == span([e(0, 2)], 2) and inv.mul == span([e(0, 2)], 2)


@settings(max_examples=50)
@given(relations())
def test_inverse_involution(t):
    # Computed through the undecorated function, so that no memo entry
    # from an earlier example answers it.
    assert LinearRelation.inverse.__wrapped__(t.inverse()) == t


def test_one_minus_of_identity():
    ident = LinearRelation.identity(3)
    assert ident.one_minus() == operator([[0] * 3] * 3)


def test_one_minus_swaps_projection():
    from relcalc import semi_projection

    p = semi_projection(span([e(0, 2)], 2), span([e(1, 2)], 2))
    q = semi_projection(span([e(1, 2)], 2), span([e(0, 2)], 2))
    assert p.one_minus() == q


@settings(max_examples=50)
@given(square_relations)
def test_one_minus_involution(t):
    assert LinearRelation.one_minus.__wrapped__(t.one_minus()) == t


def test_one_minus_requires_square():
    with pytest.raises(DimensionError):
        LinearRelation.from_generators([], 2, 3).one_minus()


@settings(max_examples=50)
@given(square_relations)
def test_one_minus_matches_pointwise_route(t):
    # I - T = I + (-T), with -T written as (-I) o T.
    n = t.dim_in
    minus = operator([[-x for x in e(k, n)] for k in range(n)])
    assert t.one_minus() == LinearRelation.identity(n).plus(minus.compose(t))


@settings(max_examples=80)
@given(st.integers(1, 4).flatmap(lambda n: operands(n, n)))
def test_one_minus_read_off_matches_int_rows(t):
    # Computed through the undecorated function, so that no memo entry
    # from an earlier example answers it.
    u = LinearRelation.one_minus.__wrapped__(t)
    assert u == one_minus_by_int_rows(t)
    assert u.graph._pivots == t.graph._pivots == leading_columns(u.graph)


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
    assert u.graph == intersect_by_stacking(t.graph, s.graph)
    assert u.mul == t.mul.intersect(s.mul)
    assert u.ker == t.ker.intersect(s.ker)
    assert t.meet(t) == t


# Operands whose residual blocks are independent: T's outputs against S's
# graph, and T's inputs against the graph of a relation defined only at 0.
# No combination vanishes, so the product and the sum are S's rows (0, v).
INDEPENDENT_COMPOSE = (
    LinearRelation.from_generators([(e(2, 3), [1, I]), ([0, 0, 0], [1, 1])], 3, 2),
    operator([[1, 2], [I, 1], [0, 0]]),
)
INDEPENDENT_PLUS = (
    operator([[1, 2], [3, I]]),
    LinearRelation.from_generators([([0, 0], [1, I])], 2, 2),
)


@settings(max_examples=40)
@given(relations(dim_in=2, dim_out=2), relations(dim_in=2, dim_out=2))
@example(*INDEPENDENT_PLUS)
def test_plus_two_routes_and_domain(t, s):
    u = t.plus(s)
    assert u == plus_by_slot_elimination(t, s)
    assert u.dom == t.dom.intersect(s.dom)


def test_independent_residuals_make_no_stacked_rref(monkeypatch):
    widths = []

    def spy(rows, width, _rref=_rowops.rref):
        widths.append(width)
        return _rref(rows, width)

    monkeypatch.setattr(_rowops, "rref", spy)
    product = INDEPENDENT_COMPOSE[0].compose(INDEPENDENT_COMPOSE[1])
    # The stacked width is e + n + m = 3 + 2 + 2.
    assert max(widths, default=0) < 7
    widths.clear()
    total = INDEPENDENT_PLUS[0].plus(INDEPENDENT_PLUS[1])
    # n + n + m = 6.
    assert max(widths, default=0) < 6
    monkeypatch.undo()
    assert product.graph == span([[0, 0, 1, 1]], 4)
    assert product == compose_by_slot_elimination(*INDEPENDENT_COMPOSE)
    assert total.graph == span([[0, 0, 1, I]], 4)
    assert total == plus_by_slot_elimination(*INDEPENDENT_PLUS)


def test_plus_with_zero_operator():
    t = operator([[1, 2], [3, 4]])
    assert t.plus(operator([[0, 0], [0, 0]])) == t


def test_plus_identity_minus_identity():
    ident = LinearRelation.identity(2)
    minus = operator([[-1, 0], [0, -1]])
    assert ident.plus(minus) == operator([[0, 0], [0, 0]])


@settings(max_examples=80)
@given(st.data())
def test_plus_and_meet_read_off_match_oracles(data):
    n, m = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    t, s = data.draw(operands(n, m)), data.draw(operands(n, m))
    assert t.plus(s) == plus_by_slot_elimination(t, s)
    assert t.meet(s).graph == intersect_by_stacking(t.graph, s.graph)


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


@settings(max_examples=80)
@given(st.data())
def test_compose_read_off_matches_slot_elimination(data):
    # Rectangular shapes (n, e and m drawn apart) and a left operand that may
    # carry a multivalued part, whose rows the read-off stacks as (0, v).
    n, e, m = (data.draw(st.integers(1, 3)) for _ in range(3))
    t, s = data.draw(operands(n, e)), data.draw(operands(e, m))
    assert s.compose(t) == compose_by_slot_elimination(s, t)


def test_compose_through_multivalued_part():
    # S has mul span{e1}; T maps onto S's domain.  The product keeps S's
    # multivalued part and sends e0 to (1, 1) + mul.
    t = LinearRelation.from_generators([(e(0, 2), [1, 2, 0])], 2, 3)
    s = LinearRelation.from_generators(
        [([1, 2, 0], [1, 1]), ([0, 0, 0], e(1, 2))], 3, 2
    )
    u = s.compose(t)
    assert u == compose_by_slot_elimination(s, t)
    assert u.mul == span([e(1, 2)], 2)
    assert u.dom == span([e(0, 2)], 2)
    assert u.graph.contains(span([[1, 0, 1, 0]], 4))


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


def adjoint_by_condition_rows(t):
    """Reference: one conjugated condition row (conj(g), -conj(f)) per
    graph generator (f, g), echelonized afresh; T* is their null space."""
    n, m = t.dim_in, t.dim_out
    cond_rows = []
    for _, re, im in t.graph._rows:
        cre = list(re[n:]) + [-x for x in re[:n]]
        cim = [-x for x in im[n:]] + list(im[:n])
        cond_rows.append((1, tuple(cre), tuple(cim)))
    pivots, rows = _rowops.rref(cond_rows, m + n)
    null_pivots, null_rows = _rowops.nullspace(pivots, rows, m + n)
    return LinearRelation(m, n, Subspace._from_rref(m + n, null_pivots, null_rows))


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


@settings(max_examples=80)
@given(read_off_relations())
def test_adjoint_matches_condition_rows(t):
    adj = t.adjoint()
    assert adj == adjoint_by_condition_rows(t)
    assert adj.graph._pivots == leading_columns(adj.graph)


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
