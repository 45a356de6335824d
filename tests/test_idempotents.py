"""Idempotent calculus: classification, triples, canonical constructions."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import (
    Classification,
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

from vectors import e, span


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
    assert square(t).graph.contains(span([vec], 4))
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
    zero_op = LinearRelation.product_space(Subspace.full(3), Subspace.zero(3))
    t = range_triple(zero_op)
    assert t.x.is_zero() and t.y == Subspace.full(3) and t.z == Subspace.full(3)


def test_triple_guards():
    with pytest.raises(ICViolationError):
        IdempotentTriple(line(0, 2), line(1, 2), span([[1, 1]], 2))
    with pytest.raises(ICViolationError):
        RangeTriple(line(0, 2), Subspace.zero(2), Subspace.full(2))


def test_conditions_decide_without_raising(monkeypatch):
    # ic_holds and range_condition_holds compare the two sides and build no
    # error; the constructors and the builders raise the one record.
    built = []
    init = ICViolationError.__init__

    def counting(self, *args, **context):
        built.append(args)
        init(self, *args, **context)

    monkeypatch.setattr(ICViolationError, "__init__", counting)
    kernel = (line(0, 2), line(1, 2), span([[1, 1]], 2))
    ranges = (line(0, 2), Subspace.zero(2), Subspace.full(2))
    assert not ic_holds(*kernel) and not range_condition_holds(*ranges)
    assert built == []
    plane = {"ambient": 2, "basis": [["1", "0"], ["0", "1"]]}
    records = {
        (IdempotentTriple, build_pmns): (
            "idempotency condition violated: (M+N) meet S != M meet N",
            {"ambient": 2, "basis": [["1", "1"]]},
            {"ambient": 2, "basis": []},
        ),
        (RangeTriple, build_from_range_triple): (
            "range condition violated: X meet Y + Z != X + Y",
            plane,
            {"ambient": 2, "basis": [["1", "0"]]},
        ),
    }
    for (triple, build), (message, lhs, rhs) in records.items():
        spaces = kernel if triple is IdempotentTriple else ranges
        for route in (triple, build):
            with pytest.raises(ICViolationError) as err:
                route(*spaces)
            assert err.value.record() == {
                "code": 4,
                "message": message,
                "context": {"lhs": lhs, "rhs": rhs},
            }
    assert len(built) == 4


def test_triples_compare_only_within_their_class():
    full = Subspace.full(3)
    kt = IdempotentTriple(full, full, full)
    rt = RangeTriple(full, full, full)
    assert tuple(kt) == tuple(rt)
    assert not kt == rt and not rt == kt
    assert kt != rt and rt != kt
    for t in (kt, rt):
        copy = type(t)(*t)
        assert copy == t and not copy != t and hash(copy) == hash(t)
    assert len({kt, rt}) == 2
    assert (kt.m, kt.n, kt.s) == (rt.x, rt.y, rt.z) == (full, full, full)


def count_sides(monkeypatch):
    """The class name of each triple whose two sides are evaluated, in order."""
    calls = []
    for triple in (IdempotentTriple, RangeTriple):

        def counting(a, b, c, sides=triple._sides, name=triple.__name__):
            calls.append(name)
            return sides(a, b, c)

        monkeypatch.setattr(triple, "_sides", staticmethod(counting))
    return calls


def test_derived_triples_are_not_rechecked(monkeypatch):
    # The triples of E and E* and both conversions hold by theorem, which the
    # checks state; only a triple built from given subspaces is checked.
    e_rel = build_pmns(span([[1, 1, 0]], 3), line(1, 3), line(2, 3))
    calls = count_sides(monkeypatch)
    kt, rt = kernel_triple(e_rel), range_triple(e_rel)
    adj, adj_triple = adjoint_idempotent(e_rel)
    assert triple_convert(kt) == rt and range_to_kernel(rt) == kt
    assert calls == []
    assert build_pmns(*adj_triple) == adj
    assert calls == ["IdempotentTriple"]


def test_replace_checks_the_condition():
    full, zero, x_axis = Subspace.full(2), Subspace.zero(2), line(0, 2)
    cases = [
        (IdempotentTriple(full, zero, zero), {"n": full}, (full, full, zero), {"m": zero}),
        (RangeTriple(full, zero, full), {"x": x_axis}, (x_axis, zero, full), {"y": full}),
    ]
    for t, bad, bad_spaces, good in cases:
        with pytest.raises(ICViolationError) as want:
            type(t)(*bad_spaces)
        with pytest.raises(ICViolationError) as got:
            t._replace(**bad)
        assert got.value.record() == want.value.record()
        back = t._replace(**good)
        assert type(back) is type(t)
        assert back == type(t)(*{**t._asdict(), **good}.values())


def test_copies_and_pickles_check_once(monkeypatch):
    # Every protocol rebuilds through the constructor; without __reduce__,
    # protocols 0 and 1 would rebuild a namedtuple without it.
    e_rel = build_pmns(span([[1, 1, 0]], 3), line(1, 3), line(2, 3))
    triples = [kernel_triple(e_rel), range_triple(e_rel)]
    calls = count_sides(monkeypatch)
    copiers = [copy.copy, copy.deepcopy] + [
        lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for t in triples:
        for copier in copiers:
            calls.clear()
            back = copier(t)
            assert calls == [type(t).__name__]
            assert type(back) is type(t)
            assert back == t and hash(back) == hash(t)


def test_values_survive_copy_and_pickle(monkeypatch):
    # A fresh memo, so no flush can separate a value from its copies.
    monkeypatch.setattr("relcalc.subspaces._memo", {})
    m = span([[1, GaussianRational(0, 1), 2]], 3)
    e = build_pmns(m, line(1, 3), Subspace.zero(3))
    values = [
        GaussianRational(1, -2),
        m,
        e,
        kernel_triple(e),
        range_triple(e),
        classify(e),
    ]
    for value in values:
        for back in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(back) is type(value)
            assert back == value and not back != value
            assert hash(back) == hash(value)
            if isinstance(value, Subspace):
                assert back is value  # interned
            if isinstance(value, LinearRelation):
                assert back.graph is value.graph  # a plain value


def test_classification_hashes_by_value():
    # Equal records whose witness dicts list their keys in other orders.
    cls = classify(super_form(line(0, 2), span([[1, 1]], 2), line(1, 2)))
    pair = cls.witnesses["square_not_below"]
    a = cls._replace(witnesses={"square_not_below": pair, "other": None})
    b = cls._replace(witnesses={"other": None, "square_not_below": pair})
    assert isinstance(a, Classification) and list(a.witnesses) != list(b.witnesses)
    assert a == b and hash(a) == hash(b)
    assert len({cls, a, b, cls._replace(is_sub=not cls.is_sub)}) == 3


def test_kernel_triple_requires_idempotent():
    # Strictly super- and strictly sub-idempotent: the error carries
    # classify's witnesses, whichever triple was asked for.
    sup = super_form(line(0, 2), span([[1, 1]], 2), line(1, 2))
    sub = LinearRelation.from_generators([([1, 0], [0, 1])], 2, 2)
    for e in (sup, sub):
        want = {k: v for k, v in classify(e).witnesses.items() if v is not None}
        assert want
        for triple in (kernel_triple, range_triple):
            with pytest.raises(NotIdempotentError) as err:
                triple(e)
            assert err.value.context == {"witnesses": want}


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


def test_adjoint_idempotent_squares_only_e(monkeypatch):
    # E o E = E is tested for E; the adjoint's triple is read off its parts.
    from relcalc import idempotents

    calls = []
    square = idempotents.square

    def counting(rel):
        calls.append(rel)
        return square(rel)

    monkeypatch.setattr(idempotents, "square", counting)
    e_rel = build_pmns(span([[1, 1, 0]], 3), line(1, 3), line(2, 3))
    adj, t = adjoint_idempotent(e_rel)
    assert calls == [e_rel]
    assert t == kernel_triple(adj)


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
