"""Linear relations: subspaces of F^n x F^m acting as multivalued maps.

A relation T from F^n to F^m is stored purely as the canonical graph
subspace; domain, range, kernel and multivalued part are derived on demand
and held in the memo of :mod:`relcalc.subspaces`: one source of truth.
They are read off the canonical rows of the graph and of the inverse's
graph without a new echelon form, as are I - T and the rows of -T^-1, whose
orthogonal complement (``Subspace.perp``) is the adjoint.  The meet is the
intersection of the graphs.  Composition and the pointwise sum reduce one
operand's generators against the other's graph and read the result off one
echelon form of the residual rows, as the intersection does.
"""

from __future__ import annotations

from operator import neg, sub
from typing import NamedTuple

from . import _rowops
from .errors import DimensionError
from .subspaces import Subspace, _read_off, memoized


class RelationParts(NamedTuple):
    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace


class LinearRelation:
    """A linear relation from F^dim_in to F^dim_out."""

    __slots__ = ("dim_in", "dim_out", "graph", "_hash")

    def __init__(self, dim_in: int, dim_out: int, graph: Subspace):
        if graph.ambient_dim != dim_in + dim_out:
            raise DimensionError(
                f"graph ambient {graph.ambient_dim} != {dim_in} + {dim_out}"
            )
        self.dim_in, self.dim_out, self.graph = dim_in, dim_out, graph
        self._hash = hash((dim_in, dim_out, graph))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, pairs, dim_in: int, dim_out: int) -> "LinearRelation":
        """Relation spanned by (input, output) vector pairs."""
        from .matrices import row_to_ints

        rows = []
        for x, y in pairs:
            x, y = tuple(x), tuple(y)
            if len(x) != dim_in or len(y) != dim_out:
                raise DimensionError(
                    f"generator ({len(x)}, {len(y)}) does not match "
                    f"({dim_in}, {dim_out})"
                )
            rows.append(row_to_ints(x + y))
        return cls(dim_in, dim_out, Subspace.from_int_rows(rows, dim_in + dim_out))

    @classmethod
    def identity_on(cls, space: Subspace) -> "LinearRelation":
        """I_M = {(u, u) : u in M}; the diagonal rows stay canonical."""
        n = space.ambient_dim
        rows = [(den, re + re, im + im) for den, re, im in space._rows]
        graph = Subspace._from_rref(2 * n, space._pivots, rows)
        return cls(n, n, graph)

    @classmethod
    def identity(cls, n: int) -> "LinearRelation":
        return cls.identity_on(Subspace.full(n))

    @classmethod
    def product_space(cls, left: Subspace, right: Subspace) -> "LinearRelation":
        """The relation with graph N x S (dom = ker = N, ran = mul = S)."""
        n, m = left.ambient_dim, right.ambient_dim
        zero_n, zero_m = (0,) * n, (0,) * m
        rows = [(den, re + zero_m, im + zero_m) for den, re, im in left._rows]
        rows += [(den, zero_n + re, zero_n + im) for den, re, im in right._rows]
        pivots = list(left._pivots) + [n + p for p in right._pivots]
        graph = Subspace._from_rref(n + m, pivots, rows)
        return cls(n, m, graph)

    @classmethod
    def zero(cls, dim_in: int, dim_out: int) -> "LinearRelation":
        return cls(dim_in, dim_out, Subspace.zero(dim_in + dim_out))

    @classmethod
    def full(cls, dim_in: int, dim_out: int) -> "LinearRelation":
        return cls(dim_in, dim_out, Subspace.full(dim_in + dim_out))

    # -- identity and comparison -------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LinearRelation):
            return NotImplemented
        return (
            self.dim_in == other.dim_in
            and self.dim_out == other.dim_out
            and self.graph == other.graph
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Copies and pickles go through the constructor and its dimension
        # check; the graph's own reduce interns it.
        return type(self), (self.dim_in, self.dim_out, self.graph)

    def __repr__(self) -> str:
        return (
            f"LinearRelation({self.dim_in}->{self.dim_out}, "
            f"graph dim {self.graph.dim})"
        )

    def _require_same_dims(self, other: "LinearRelation"):
        if self.dim_in != other.dim_in or self.dim_out != other.dim_out:
            raise DimensionError(
                f"relation shape ({self.dim_in}->{self.dim_out}) != "
                f"({other.dim_in}->{other.dim_out})"
            )

    def _require_square(self):
        if self.dim_in != self.dim_out:
            raise DimensionError(
                f"operation needs a square relation, got "
                f"{self.dim_in}->{self.dim_out}"
            )

    def leq(self, other: "LinearRelation") -> bool:
        """Graph containment: self is a subrelation of other."""
        self._require_same_dims(other)
        return other.graph.contains(self.graph)

    # -- parts ---------------------------------------------------------------

    @memoized
    def parts(self) -> RelationParts:
        dom, mul = _split_at(self.graph, self.dim_in)
        ran, ker = _split_at(self.inverse().graph, self.dim_out)
        return RelationParts(dom, ran, ker, mul)

    @property
    def dom(self) -> Subspace:
        return self.parts().dom

    @property
    def ran(self) -> Subspace:
        return self.parts().ran

    @property
    def ker(self) -> Subspace:
        return self.parts().ker

    @property
    def mul(self) -> Subspace:
        return self.parts().mul

    # -- unary operations ----------------------------------------------------

    @memoized
    def inverse(self) -> "LinearRelation":
        """Slot swap: {(y, x) : (x, y) in T}."""
        n, m = self.dim_in, self.dim_out
        swapped = [
            (den, re[n:] + re[:n], im[n:] + im[:n])
            for den, re, im in self.graph._rows
        ]
        return LinearRelation(m, n, Subspace.from_int_rows(swapped, n + m))

    @memoized
    def one_minus(self) -> "LinearRelation":
        """I - T = {(u, u - v) : (u, v) in T}; square relations only.

        Read off the canonical rows of the graph with the same pivots: a
        row (0, v) of the multivalued part stays as it is, and a row (u, v)
        pivoting in the first block becomes (u, u - v), reduced against
        those rows.
        """
        self._require_square()
        n = self.dim_in
        graph = self.graph
        split = sum(p < n for p in graph._pivots)
        mul_pivots, mul_rows = graph._pivots[split:], graph._rows[split:]
        rows = []
        for den, re, im in graph._rows[:split]:
            re = re[:n] + tuple(map(sub, re, re[n:]))
            im = im[:n] + tuple(map(sub, im, im[n:]))
            rows.append(
                _rowops.reduced_row(
                    *_rowops.residual(mul_pivots, mul_rows, (den, re, im))
                )
            )
        graph = Subspace._from_rref(2 * n, graph._pivots, rows + list(mul_rows))
        return LinearRelation(n, n, graph)

    def closure(self) -> "LinearRelation":
        """Topological closure; the identity map in finite dimension."""
        return self

    def adjoint(self) -> "LinearRelation":
        """T* = {(x, y) : <g, x> = <f, y> for all (f, g) in T} = (-T^-1)^perp.

        (x, y) meets the condition of (f, g) exactly when it is orthogonal
        to (g, -f), a vector of the graph of -T^-1.  Those rows are read off
        the canonical rows (g, f) of the inverse's graph: the second block
        is negated in the rows pivoting in the first m columns, and a row
        pivoting later, zero in the first block, spans the same line as it
        is.  The rows stay in RREF on the same pivots, so no ``rref`` runs.
        """
        m = self.dim_out
        inverse = self.inverse().graph
        rows = []
        for (den, re, im), p in zip(inverse._rows, inverse._pivots):
            if p < m:
                re = re[:m] + tuple(map(neg, re[m:]))
                im = im[:m] + tuple(map(neg, im[m:]))
            rows.append((den, re, im))
        flipped = Subspace._from_rref(inverse.ambient_dim, inverse._pivots, rows)
        return LinearRelation(m, self.dim_in, flipped.perp())

    # -- binary operations -----------------------------------------------------

    def hat_sum(self, other: "LinearRelation") -> "LinearRelation":
        """Sum of the graphs as subspaces of F^(n+m)."""
        self._require_same_dims(other)
        return LinearRelation(
            self.dim_in, self.dim_out, self.graph.sum_with(other.graph)
        )

    def meet(self, other: "LinearRelation") -> "LinearRelation":
        """Intersection of the graphs, by definition; the tests check it
        against :func:`relcalc.oracles.intersect_by_stacking` of the graphs.
        """
        self._require_same_dims(other)
        graph = self.graph.intersect(other.graph)
        return LinearRelation(self.dim_in, self.dim_out, graph)

    def plus(self, other: "LinearRelation") -> "LinearRelation":
        """Pointwise sum {(x, y + z) : (x, y) in T, (x, z) in S}.

        A generator (x, y) of T reduces (x, 0) against S's graph to
        (x - a, -b), (a, b) in S; the combinations with x = a give
        (x, y + b), which span T + S with the rows (0, v) of S's mul.
        """
        self._require_same_dims(other)
        n, m = self.dim_in, self.dim_out
        zero_m = (0,) * m
        pairs = [
            ((re[:n] + zero_m, im[:n] + zero_m), (re, im))
            for _, re, im in self.graph._rows
        ]
        return LinearRelation(n, m, _read_off(other.graph, n, pairs, n + m))

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """Relation product self(other(.)): pairs (x, y) such that
        (x, z) in other and (z, y) in self for some z.

        A generator (x, z) of other reduces (z, 0) against self's graph to
        (z - a, -b), (a, b) in self; the combinations with z = a give
        (x, b), which span the product with the rows (0, v) of self's mul.
        """
        if other.dim_out != self.dim_in:
            raise DimensionError(
                f"cannot compose {self.dim_in}->{self.dim_out} after "
                f"{other.dim_in}->{other.dim_out}"
            )
        n = other.dim_in
        e = other.dim_out
        m = self.dim_out
        zero_m = (0,) * m
        pairs = [
            ((re[n:] + zero_m, im[n:] + zero_m), (re[:n] + zero_m, im[:n] + zero_m))
            for _, re, im in other.graph._rows
        ]
        return LinearRelation(n, m, _read_off(self.graph, e, pairs, n + m))


def _split_at(graph: Subspace, n: int) -> list:
    """The projection of ``graph`` on its first n coordinates and the space
    {y : (0, y) in graph}, read off the canonical rows.  The rows pivoting in
    the first n columns, cut to them, are in RREF up to content; the other
    rows, cut to the remaining columns, are in RREF."""
    halves = ([], []), ([], [])
    for (den, re, im), p in zip(graph._rows, graph._pivots):
        cut = slice(0, n) if p < n else slice(n, None)
        pivots, rows = halves[p >= n]
        pivots.append(p - cut.start)
        rows.append(_rowops.reduced_row(den, re[cut], im[cut]))
    widths = (n, graph.ambient_dim - n)
    return [Subspace._from_rref(w, *half) for w, half in zip(widths, halves)]

