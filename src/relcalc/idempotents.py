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

from collections import namedtuple
from typing import NamedTuple

from .errors import ICViolationError, NotIdempotentError
from .relations import LinearRelation
from .subspaces import Subspace, memoized


# -- canonical builders -------------------------------------------------------


def semi_projection(m: Subspace, n: Subspace) -> LinearRelation:
    """P_{M,N} = I_M hat-plus (N x {0}): ran = M, ker = N, dom = M + N,
    mul = M meet N."""
    m._require_same_ambient(n)
    return LinearRelation.identity_on(m).hat_sum(
        LinearRelation.product_space(n, Subspace.zero(m.ambient_dim))
    )


def sub_form(m: Subspace, n: Subspace, s: Subspace) -> LinearRelation:
    """P_{M,N} restricted to inputs in S; sub-idempotent by construction."""
    m._require_same_ambient(n, s)
    ambient = m.ambient_dim
    return semi_projection(m, n).meet(
        LinearRelation.product_space(s, Subspace.full(ambient))
    )


def super_form(m: Subspace, n: Subspace, s: Subspace) -> LinearRelation:
    """P_{M,N} with the multivalued block {0} x S; super-idempotent by
    construction."""
    m._require_same_ambient(n, s)
    ambient = m.ambient_dim
    return semi_projection(m, n).hat_sum(
        LinearRelation.product_space(Subspace.zero(ambient), s)
    )


# -- triples -----------------------------------------------------------------


class _Triple:
    """Three subspaces whose two sides, ``_sides``, agree; the constructor
    raises with ``_violation`` when they differ.  Only the triples that hold
    by theorem, read off an idempotent or converted, skip it through the
    namedtuple's ``_make``.  A triple equals and hashes alike only triples of
    its own class: a kernel triple is never a range triple."""

    __slots__ = ()
    _violation: str

    def __new__(cls, a: Subspace, b: Subspace, c: Subspace):
        lhs, rhs = cls._sides(a, b, c)
        if lhs != rhs:
            raise ICViolationError(cls._violation, lhs=lhs, rhs=rhs)
        return super().__new__(cls, a, b, c)

    @classmethod
    def holds(cls, a: Subspace, b: Subspace, c: Subspace) -> bool:
        """Whether (a, b, c) is a triple of this class."""
        lhs, rhs = cls._sides(a, b, c)
        return lhs == rhs

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple's own __ne__ would win over object's
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))

    def __reduce__(self):
        # Copies and pickles, at every protocol, check again in __new__.
        return type(self), tuple(self)

    def _replace(self, **changes):
        return type(self)(*super()._replace(**changes))


class IdempotentTriple(_Triple, namedtuple("IdempotentTriple", "m n s")):
    """(ker(I-E), ker E, mul E) of an idempotent; carries the idempotency
    condition (M+N) meet S = M meet N."""

    __slots__ = ()
    _violation = "idempotency condition violated: (M+N) meet S != M meet N"

    @staticmethod
    def _sides(m: Subspace, n: Subspace, s: Subspace):
        return m.sum_with(n).intersect(s), m.intersect(n)


class RangeTriple(_Triple, namedtuple("RangeTriple", "x y z")):
    """(ran E, ran(I-E), dom E) of an idempotent; carries the range-triple
    condition X meet Y + Z = X + Y."""

    __slots__ = ()
    _violation = "range condition violated: X meet Y + Z != X + Y"

    @staticmethod
    def _sides(x: Subspace, y: Subspace, z: Subspace):
        return x.intersect(y).sum_with(z), x.sum_with(y)


ic_holds = IdempotentTriple.holds
range_condition_holds = RangeTriple.holds


def build_pmns(m: Subspace, n: Subspace, s: Subspace) -> LinearRelation:
    """The unique idempotent with ker(I-E) = M, ker E = N, mul E = S.

    Requires the idempotency condition; the offending subspaces ride along
    on the error when it fails.
    """
    return super_form(*IdempotentTriple(m, n, s))


def build_from_range_triple(
    x: Subspace, y: Subspace, z: Subspace
) -> LinearRelation:
    """The unique idempotent with ran F = X, ran(I-F) = Y, dom F = Z."""
    return sub_form(*RangeTriple(x, y, z))


# -- classification ------------------------------------------------------------


class Classification(NamedTuple):
    """The flags of :func:`classify`; ``witnesses`` maps each failed
    inclusion to a generator pair that shows it (or ``None``)."""

    is_operator: bool
    is_sub: bool
    is_super: bool
    is_idempotent: bool
    is_semi_projection: bool
    is_projection: bool
    witnesses: dict

    def __hash__(self):
        # Equal dicts may list their items in different orders.
        return hash((self[:-1], frozenset(self.witnesses.items())))


def _graph_witness(bigger: LinearRelation, smaller: LinearRelation):
    """A generator pair present in ``bigger`` but not in ``smaller``."""
    from .matrices import ints_to_row

    n = bigger.dim_in
    for row in bigger.graph._rows:
        if not smaller.graph.contains_vector(row):
            vec = ints_to_row(row)
            return (vec[:n], vec[n:])
    return None


@memoized
def classify(e: LinearRelation) -> Classification:
    """Flags for sub/super/idempotent/semi-projection/projection.

    Each flag is decided once, by definition: E is sub-idempotent iff
    E o E <= E and super-idempotent iff E <= E o E.  The part criteria,
    ker(I-E) = ran E meet dom E and ran(I-E) = ker E + mul E, are stated by
    the ``sub_characterizations`` and ``super_characterizations`` checks.
    """
    parts = e.parts()
    e2 = square(e)
    sub_def = e2.leq(e)
    super_def = e.leq(e2)

    witnesses = {}
    if not sub_def:
        witnesses["square_not_below"] = _graph_witness(e2, e)
    if not super_def:
        witnesses["not_below_square"] = _graph_witness(e, e2)

    is_idempotent = sub_def and super_def
    # A semi-projection is idempotent, so only an idempotent E can be one.
    is_semi = is_idempotent and e == (semi := semi_projection(parts.ran, parts.ker))
    if is_idempotent and not is_semi:
        witness = _graph_witness(e, semi) or _graph_witness(semi, e)
        witnesses["not_semi_projection"] = witness
    is_operator = parts.mul.is_zero()
    return Classification(
        is_operator=is_operator,
        is_sub=sub_def,
        is_super=super_def,
        is_idempotent=is_idempotent,
        is_semi_projection=is_semi,
        is_projection=is_semi and is_operator,
        witnesses=witnesses,
    )


@memoized
def square(e: LinearRelation) -> LinearRelation:
    """E o E, memoized; classify, the triples' idempotency test and the
    square-law checks share it.

    The closed forms of the square of a one-sided idempotent are stated by
    the ``square_closed_forms`` and ``square_preserves_sidedness`` checks.
    """
    e._require_square()
    return e.compose(e)


def _require_idempotent(e: LinearRelation) -> None:
    """Raise :class:`NotIdempotentError` unless E o E = E; only then is E
    classified, for the witnesses the error carries."""
    if square(e) != e:
        raise NotIdempotentError(
            "relation is not idempotent",
            witnesses={k: v for k, v in classify(e).witnesses.items() if v is not None},
        )


def kernel_triple(e: LinearRelation) -> IdempotentTriple:
    """(ker(I-E), ker E, mul E); raises when E is not idempotent."""
    _require_idempotent(e)
    return IdempotentTriple._make((e.one_minus().ker, e.ker, e.mul))


def range_triple(e: LinearRelation) -> RangeTriple:
    """(ran E, ran(I-E), dom E); raises when E is not idempotent."""
    _require_idempotent(e)
    return RangeTriple._make((e.ran, e.one_minus().ran, e.dom))


def triple_convert(t: IdempotentTriple) -> RangeTriple:
    """Kernel triple to range triple: (M+S, N+S, M+N), valid for any M, N, S
    since S <= X meet Y makes X meet Y + Z = M+N+S = X+Y."""
    return RangeTriple._make(
        (t.m.sum_with(t.s), t.n.sum_with(t.s), t.m.sum_with(t.n))
    )


def range_to_kernel(t: RangeTriple) -> IdempotentTriple:
    """Range triple to kernel triple: (X meet Z, Y meet Z, X meet Y), valid
    for any X, Y, Z since M+N <= Z makes (M+N) meet S = X meet Y meet Z."""
    return IdempotentTriple._make(
        (t.x.intersect(t.z), t.y.intersect(t.z), t.x.intersect(t.y))
    )


# -- extremal idempotents ------------------------------------------------------


def minimal_idempotent(
    m: Subspace, n: Subspace, s: Subspace
) -> LinearRelation:
    """Smallest idempotent E with M <= ker(I-E), N <= ker E, S <= mul E."""
    return sub_form(m.sum_with(s), n.sum_with(s), m.sum_with(n))


def maximal_idempotent(
    x: Subspace, y: Subspace, z: Subspace
) -> LinearRelation:
    """Largest idempotent F with ran F <= X, ran(I-F) <= Y, dom F <= Z."""
    restricted_dom = z.intersect(x).sum_with(z.intersect(y))
    return sub_form(x, y, restricted_dom)


# -- adjoints of idempotents -----------------------------------------------------


def adjoint_idempotent(
    e: LinearRelation,
) -> tuple[LinearRelation, IdempotentTriple]:
    """Adjoint of an idempotent with its kernel triple.

    In finite dimension the adjoint of an idempotent is again idempotent and
    its kernel triple is the component-wise construction
    (N-perp meet S-perp, M-perp meet S-perp, M-perp meet N-perp); the
    ``idempotent_adjoint_triple`` check states both facts.  So only E is
    tested for E o E = E, and the triple is read off the parts of E*
    without checking its condition again.
    """
    _require_idempotent(e)
    adj = e.adjoint()
    return adj, IdempotentTriple._make((adj.one_minus().ker, adj.ker, adj.mul))
