"""Idempotent relation calculus: classification, canonical forms, triples.

Vocabulary used throughout:

* ``semi_projection(M, N)``: the unique idempotent with range M and kernel N,
  built as I_M hat-plus (N x {0}).
* ``sub_form(M, N, S)``: the semi-projection restricted to inputs in S,
  P_{M,N} meet (S x H) -- always satisfies E o E <= E.
* ``super_form(M, N, S)``: the semi-projection with the extra multivalued
  block {0} x S -- always satisfies E <= E o E.

A square relation is idempotent exactly when it is both sub- and
super-idempotent, and is then pinned down by either of two subspace triples:
the kernel triple (ker(I-E), ker E, mul E), valid iff the idempotency
condition (M+N) meet S = M meet N holds, or the range triple
(ran E, ran(I-E), dom E), valid iff X meet Y + Z = X + Y.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .errors import (
    DimensionError,
    ICViolationError,
    InternalCheckError,
    NotIdempotentError,
)
from .relations import LinearRelation
from .subspaces import Subspace


def _require_same_ambient(*spaces: Subspace):
    ambients = {s.ambient_dim for s in spaces}
    if len(ambients) > 1:
        raise DimensionError(f"mixed ambient dimensions {sorted(ambients)}")


# -- canonical builders -------------------------------------------------------


@lru_cache(maxsize=4096)
def semi_projection(m: Subspace, n: Subspace) -> LinearRelation:
    """P_{M,N} = I_M hat-plus (N x {0}): ran = M, ker = N, dom = M + N,
    mul = M meet N.

    Memoized: the same (range, kernel) pair recurs constantly inside the
    canonical-form builders, and relations are immutable.
    """
    _require_same_ambient(m, n)
    return LinearRelation.identity_on(m).hat_sum(
        LinearRelation.product_space(n, Subspace.zero(m.ambient_dim))
    )


def sub_form(m: Subspace, n: Subspace, s: Subspace) -> LinearRelation:
    """P_{M,N} restricted to inputs in S; sub-idempotent by construction."""
    _require_same_ambient(m, n, s)
    ambient = m.ambient_dim
    return semi_projection(m, n).meet(
        LinearRelation.product_space(s, Subspace.full(ambient))
    )


def super_form(m: Subspace, n: Subspace, s: Subspace) -> LinearRelation:
    """P_{M,N} with the multivalued block {0} x S; super-idempotent by
    construction."""
    _require_same_ambient(m, n, s)
    ambient = m.ambient_dim
    return semi_projection(m, n).hat_sum(
        LinearRelation.product_space(Subspace.zero(ambient), s)
    )


# -- triples -----------------------------------------------------------------


def require_ic(m: Subspace, n: Subspace, s: Subspace) -> None:
    """Raise :class:`ICViolationError`, carrying both sides, unless the
    idempotency condition (M+N) meet S = M meet N holds."""
    _require_same_ambient(m, n, s)
    lhs = m.sum_with(n).intersect(s)
    rhs = m.intersect(n)
    if lhs != rhs:
        raise ICViolationError(
            "idempotency condition violated: (M+N) meet S != M meet N",
            lhs=lhs,
            rhs=rhs,
        )


def require_range_condition(x: Subspace, y: Subspace, z: Subspace) -> None:
    """Raise :class:`ICViolationError`, carrying both sides, unless the
    range-triple condition X meet Y + Z = X + Y holds."""
    _require_same_ambient(x, y, z)
    lhs = x.intersect(y).sum_with(z)
    rhs = x.sum_with(y)
    if lhs != rhs:
        raise ICViolationError(
            "range condition violated: X meet Y + Z != X + Y",
            lhs=lhs,
            rhs=rhs,
        )


def ic_holds(m: Subspace, n: Subspace, s: Subspace) -> bool:
    """The idempotency condition (M+N) meet S = M meet N."""
    try:
        require_ic(m, n, s)
    except ICViolationError:
        return False
    return True


def range_condition_holds(x: Subspace, y: Subspace, z: Subspace) -> bool:
    """The range-triple condition X meet Y + Z = X + Y."""
    try:
        require_range_condition(x, y, z)
    except ICViolationError:
        return False
    return True


@dataclass(frozen=True)
class IdempotentTriple:
    """(ker(I-E), ker E, mul E) of an idempotent; carries the IC."""

    m: Subspace
    n: Subspace
    s: Subspace

    def __post_init__(self):
        require_ic(self.m, self.n, self.s)

    @property
    def ambient_dim(self) -> int:
        return self.m.ambient_dim


@dataclass(frozen=True)
class RangeTriple:
    """(ran E, ran(I-E), dom E) of an idempotent."""

    x: Subspace
    y: Subspace
    z: Subspace

    def __post_init__(self):
        require_range_condition(self.x, self.y, self.z)

    @property
    def ambient_dim(self) -> int:
        return self.x.ambient_dim


def build_pmns(m: Subspace, n: Subspace, s: Subspace) -> LinearRelation:
    """The unique idempotent with ker(I-E) = M, ker E = N, mul E = S.

    Requires the idempotency condition; the offending subspaces ride along
    on the error when it fails.
    """
    require_ic(m, n, s)
    return super_form(m, n, s)


def build_from_range_triple(
    x: Subspace, y: Subspace, z: Subspace
) -> LinearRelation:
    """The unique idempotent with ran F = X, ran(I-F) = Y, dom F = Z."""
    require_range_condition(x, y, z)
    return sub_form(x, y, z)


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    is_operator: bool
    is_sub: bool
    is_super: bool
    is_idempotent: bool
    is_semi_projection: bool
    is_projection: bool
    witnesses: dict = field(default_factory=dict, compare=False)


def _graph_witness(bigger: LinearRelation, smaller: LinearRelation):
    """A generator pair present in ``bigger`` but not in ``smaller``."""
    from .matrices import ints_to_row

    n = bigger.dim_in
    for row in bigger.graph._rows:
        if not smaller.graph.contains_vector(row):
            vec = ints_to_row(row)
            return (vec[:n], vec[n:])
    return None


def classify(e: LinearRelation) -> Classification:
    """Flags for sub/super/idempotent/semi-projection/projection.

    Every flag is decided twice: definitionally (through the composition
    E o E) and through the part criterion.  Disagreement means the kernel
    itself is broken and raises immediately rather than returning a flag.
    """
    if e._classification is not None:
        return e._classification
    e._require_square()
    parts = e.parts()
    e2 = e.squared()
    complement = e.one_minus()
    ker_one_minus = complement.ker

    sub_def = e2.leq(e)
    sub_crit = ker_one_minus == parts.ran.intersect(parts.dom)
    if sub_def != sub_crit:
        raise InternalCheckError(
            "sub-idempotent criteria disagree",
            definitional=sub_def,
            criterion=sub_crit,
        )
    super_def = e.leq(e2)
    super_crit = complement.ran == parts.ker.sum_with(parts.mul)
    if super_def != super_crit:
        raise InternalCheckError(
            "super-idempotent criteria disagree",
            definitional=super_def,
            criterion=super_crit,
        )

    witnesses = {}
    if not sub_def:
        witnesses["square_not_below"] = _graph_witness(e2, e)
    if not super_def:
        witnesses["not_below_square"] = _graph_witness(e, e2)

    is_idempotent = sub_def and super_def
    is_semi = e == semi_projection(parts.ran, parts.ker)
    if not is_semi and is_idempotent:
        witness = _graph_witness(e, semi_projection(parts.ran, parts.ker))
        if witness is None:
            witness = _graph_witness(semi_projection(parts.ran, parts.ker), e)
        witnesses["not_semi_projection"] = witness
    is_operator = parts.mul.is_zero()
    e._classification = Classification(
        is_operator=is_operator,
        is_sub=sub_def,
        is_super=super_def,
        is_idempotent=is_idempotent,
        is_semi_projection=is_semi,
        is_projection=is_semi and is_operator,
        witnesses=witnesses,
    )
    return e._classification


def square(e: LinearRelation) -> LinearRelation:
    """E o E, with the closed forms cross-asserted.

    For a sub-idempotent the square must equal
    super_form(ker(I-E), ker E, mul E); for a super-idempotent it must equal
    sub_form(ran E, ran(I-E), dom E); in either case the square must be
    idempotent.  Violations raise InternalCheckError.
    """
    e._require_square()
    e2 = e.squared()
    cls = classify(e)
    if cls.is_sub:
        closed = super_form(e.one_minus().ker, e.ker, e.mul)
        if e2 != closed:
            raise InternalCheckError(
                "square of sub-idempotent does not match its closed form"
            )
    if cls.is_super:
        closed = sub_form(e.ran, e.one_minus().ran, e.dom)
        if e2 != closed:
            raise InternalCheckError(
                "square of super-idempotent does not match its closed form"
            )
    if (cls.is_sub or cls.is_super) and not classify(e2).is_idempotent:
        raise InternalCheckError("square of a one-sided idempotent must be idempotent")
    return e2


def _require_idempotent(e: LinearRelation) -> Classification:
    cls = classify(e)
    if not cls.is_idempotent:
        raise NotIdempotentError(
            "relation is not idempotent",
            witnesses={
                k: [[str(c) for c in half] for half in v]
                for k, v in cls.witnesses.items()
                if v is not None
            },
        )
    return cls


def kernel_triple(e: LinearRelation) -> IdempotentTriple:
    """(ker(I-E), ker E, mul E); raises when E is not idempotent."""
    _require_idempotent(e)
    return IdempotentTriple(e.one_minus().ker, e.ker, e.mul)


def range_triple(e: LinearRelation) -> RangeTriple:
    """(ran E, ran(I-E), dom E); raises when E is not idempotent."""
    _require_idempotent(e)
    return RangeTriple(e.ran, e.one_minus().ran, e.dom)


def triple_convert(t: IdempotentTriple) -> RangeTriple:
    """Kernel triple to range triple: (M+S, N+S, M+N)."""
    return RangeTriple(
        t.m.sum_with(t.s), t.n.sum_with(t.s), t.m.sum_with(t.n)
    )


def range_to_kernel(t: RangeTriple) -> IdempotentTriple:
    """Range triple to kernel triple: (X meet Z, Y meet Z, X meet Y)."""
    return IdempotentTriple(
        t.x.intersect(t.z), t.y.intersect(t.z), t.x.intersect(t.y)
    )


# -- extremal idempotents ------------------------------------------------------


def minimal_idempotent(
    m: Subspace, n: Subspace, s: Subspace
) -> LinearRelation:
    """Smallest idempotent E with M <= ker(I-E), N <= ker E, S <= mul E."""
    _require_same_ambient(m, n, s)
    return sub_form(m.sum_with(s), n.sum_with(s), m.sum_with(n))


def maximal_idempotent(
    x: Subspace, y: Subspace, z: Subspace
) -> LinearRelation:
    """Largest idempotent F with ran F <= X, ran(I-F) <= Y, dom F <= Z."""
    _require_same_ambient(x, y, z)
    restricted_dom = z.intersect(x).sum_with(z.intersect(y))
    return sub_form(x, y, restricted_dom)


# -- adjoints of idempotents -----------------------------------------------------


def adjoint_idempotent(
    e: LinearRelation,
) -> tuple[LinearRelation, IdempotentTriple]:
    """Adjoint of an idempotent with its kernel triple.

    In finite dimension the adjoint of an idempotent is again idempotent and
    its kernel triple is the component-wise construction
    (N-perp meet S-perp, M-perp meet S-perp, M-perp meet N-perp).
    Both facts are asserted, not assumed.
    """
    _require_idempotent(e)
    t = kernel_triple(e)
    adj = e.adjoint()
    adj_cls = classify(adj)
    if not adj_cls.is_idempotent:
        raise InternalCheckError(
            "adjoint of an idempotent must be idempotent in finite dimension"
        )
    mp, np_, sp = t.m.perp(), t.n.perp(), t.s.perp()
    expected = IdempotentTriple(
        np_.intersect(sp), mp.intersect(sp), mp.intersect(np_)
    )
    got = kernel_triple(adj)
    if got != expected:
        raise InternalCheckError(
            "adjoint kernel triple does not match the orthocomplement form"
        )
    return adj, got
