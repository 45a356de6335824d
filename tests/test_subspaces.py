"""Subspace lattice: canonical form, sum, meet, complements."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from relcalc import DimensionError, GaussianRational, LinearRelation, Subspace
from relcalc import _rowops, idempotents
from relcalc.angles import angles_record, dixmier_cos, friedrichs_cos
from relcalc.oracles import intersect_by_stacking, maximal_idempotent_hat_form

from vectors import I, e, span


def leading_columns(space):
    return tuple(
        next(k for k, x in enumerate(re) if x or im[k])
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


@settings(max_examples=80)
@given(subspaces(), subspaces())
def test_de_morgan(s1, s2):
    assert s1.sum_with(s2).perp() == s1.perp().intersect(s2.perp())
    assert s1.intersect(s2).perp() == s1.perp().sum_with(s2.perp())


@settings(max_examples=80)
@given(subspaces())
def test_double_complement(s):
    # The undecorated function computes the second complement, so that no
    # memo entry from an earlier example answers it.
    assert Subspace.perp.__wrapped__(s.perp()) == s
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


# Pairs that meet in 0: the residuals of the smaller operand's rows are
# independent, so the read-off decides the meet by an ``rref`` of width n.
TRANSVERSAL = [
    (span([[1, 2, 0, I], [0, 1, 3, 1]], 4), span([e(0, 4), [0, 0, 1, 1 + I]], 4)),
    (span([[1, I, 2]], 3), span([[0, 1, 1]], 3)),
]


@settings(max_examples=80)
@given(subspaces(), subspaces())
@example(*TRANSVERSAL[0])
def test_intersection_two_routes_agree(s1, s2):
    assert s1.intersect(s2) == intersect_by_stacking(s1, s2)


@st.composite
def wide_subspaces(draw, ambient=4):
    """Real, complex or mixed basis rows, some with entries past the
    kernel's content-reduction bound."""
    kind = draw(st.sampled_from(("real", "complex", "mixed")))
    ints = st.integers(-3, 3)
    if draw(st.booleans()):
        ints = st.one_of(ints, st.integers(-(1 << 60), 1 << 60))
    vecs = []
    for _ in range(draw(st.integers(0, ambient))):
        real = kind == "real" or (kind == "mixed" and draw(st.booleans()))
        vecs.append(
            [
                GaussianRational(draw(ints), 0 if real else draw(ints))
                for _ in range(ambient)
            ]
        )
    return span(vecs, ambient)


@settings(max_examples=80)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(wide_subspaces(n), wide_subspaces(n))
    )
)
@example(TRANSVERSAL[0])
@example(TRANSVERSAL[1])
def test_intersection_read_off_matches_stacking(pair):
    s1, s2 = pair
    meet = s1.intersect(s2)
    assert meet == intersect_by_stacking(s1, s2)
    assert meet._pivots == leading_columns(meet)
    small, big = (s1, s2) if s1.dim <= s2.dim else (s2, s1)
    if big.contains(small):
        assert meet is small


@pytest.mark.parametrize("s, t", TRANSVERSAL)
def test_a_transversal_meet_makes_no_wide_rref(monkeypatch, s, t):
    widths = []

    def spy(rows, width, _rref=_rowops.rref):
        widths.append(width)
        return _rref(rows, width)

    monkeypatch.setattr(_rowops, "rref", spy)
    assert (s & t).is_zero() and (t & s).is_zero()
    assert max(widths, default=0) <= s.ambient_dim


@settings(max_examples=80)
@given(subspaces(), subspaces(), st.sampled_from(("nested", "zero", "equal", "full")))
def test_nested_sum_and_meet(s, extra, shape):
    # t = s + extra contains s; the sum and the meet then return an operand
    # without a fresh echelon form, and must match the plain routes.
    n = s.ambient_dim
    if shape == "zero":
        s = Subspace.zero(n)
    elif shape == "equal":
        extra = s
    elif shape == "full":
        extra = Subspace.full(n)
    t = s + extra
    stacked = Subspace.from_int_rows(list(s._rows) + list(t._rows), n)
    assert s + t == t + s == stacked
    assert s & t == t & s == intersect_by_stacking(s, t)


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


def _count_kernel_calls(monkeypatch):
    calls = Counter()
    for name in ("residual", "member", "rref"):

        def counted(*args, _fn=getattr(_rowops, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(_rowops, name, counted)
    return calls


def test_zero_full_and_equal_operands_make_no_kernel_call(monkeypatch):
    n = 3
    zero, full = Subspace.zero(n), Subspace.full(n)
    line = span([[1, I, 2]], n)
    plane = span([e(0, n), [0, 1, 1 - I]], n)
    other_line = span([e(1, n)], n)
    calls = _count_kernel_calls(monkeypatch)
    for s in (zero, line, plane, full):
        # An equal value that is another object, as after a memo flush.
        twin = Subspace(n, s._pivots, s._rows, _internal=True)
        assert twin is not s and twin == s
        for a, b in ((s, zero), (zero, s)):
            assert a + b is s and a & b is zero
        for a, b in ((s, full), (full, s)):
            assert a + b is full and a & b is s
        assert s + twin is s and s & twin is s
        assert s.contains(zero) and full.contains(s)
        assert s.contains(twin) and twin.contains(s)
    assert not line.contains(other_line) and not other_line.contains(line)
    assert not any(calls.values())
    # The counters do count: a proper containment asks the kernel.
    assert plane.contains(span([e(0, n)], n)) and calls["member"] == 1


# Every public entry point that takes two or more subspaces, with their number.
MIXED_AMBIENT_ENTRY_POINTS = {
    "sum_with": (Subspace.sum_with, 2),
    "intersect": (Subspace.intersect, 2),
    "contains": (Subspace.contains, 2),
    "relative_complement": (Subspace.relative_complement, 2),
    "semi_projection": (idempotents.semi_projection, 2),
    "sub_form": (idempotents.sub_form, 3),
    "super_form": (idempotents.super_form, 3),
    "build_pmns": (idempotents.build_pmns, 3),
    "build_from_range_triple": (idempotents.build_from_range_triple, 3),
    "IdempotentTriple": (idempotents.IdempotentTriple, 3),
    "RangeTriple": (idempotents.RangeTriple, 3),
    "ic_holds": (idempotents.ic_holds, 3),
    "range_condition_holds": (idempotents.range_condition_holds, 3),
    "minimal_idempotent": (idempotents.minimal_idempotent, 3),
    "maximal_idempotent": (idempotents.maximal_idempotent, 3),
    "dixmier_cos": (dixmier_cos, 2),
    "friedrichs_cos": (friedrichs_cos, 2),
    "angles_record": (angles_record, 2),
    "intersect_by_stacking": (intersect_by_stacking, 2),
    "maximal_idempotent_hat_form": (maximal_idempotent_hat_form, 3),
}


@pytest.mark.parametrize("name", list(MIXED_AMBIENT_ENTRY_POINTS))
def test_mixed_ambients_raise_one_record(name):
    """One rule, stated once: an operand of another ambient, in any
    position, raises the same DimensionError, also beside zero operands,
    whose shortcuts come after the check."""
    fn, arity = MIXED_AMBIENT_ENTRY_POINTS[name]
    big = span([e(1, 3)], 3)
    for small in (span([e(0, 2)], 2), Subspace.zero(2)):
        for odd in range(arity):
            args = [small] * arity
            args[odd] = big
            with pytest.raises(DimensionError) as err:
                fn(*args)
            assert err.value.message == "mixed ambient dimensions [2, 3]"


@pytest.mark.parametrize(
    "op", [Subspace.sum_with, Subspace.intersect, Subspace.contains]
)
def test_ambient_mismatch_comes_before_the_shortcuts(op):
    shapes = [
        (Subspace.zero(2), Subspace.zero(3)),
        (Subspace.full(2), Subspace.full(3)),
        (Subspace.zero(2), Subspace.full(3)),
        (Subspace.full(2), span([e(0, 3)], 3)),
        (Subspace.zero(2), span([e(0, 3)], 3)),
    ]
    for a, b in shapes:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DimensionError):
                op(x, y)
