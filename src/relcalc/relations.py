"""Linear relations: subspaces of F^n x F^m acting as multivalued maps.

A relation T from F^n to F^m is stored purely as the canonical graph
subspace; domain, range, kernel and multivalued part are derived (and
cached) on demand, so there is a single source of truth.

Composition and the pointwise sum are computed by existential elimination:
the constrained coefficient space of generator pairs is solved exactly and
the matched combinations are projected onto the result slots.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _rowops
from .errors import DimensionError
from .matrices import ExactMatrix, row_to_ints
from .subspaces import Subspace


class RelationParts(NamedTuple):
    dom: Subspace
    ran: Subspace
    ker: Subspace
    mul: Subspace


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
        for j, (bre, bim) in enumerate(blocks_list):
            a = cre[j]
            b = cim[j] if cim is not None else 0
            if not a and not b:
                continue
            if bim is None:
                if a:
                    for k in range(width):
                        x = bre[k]
                        if x:
                            re[k] += a * x
                if b:
                    for k in range(width):
                        x = bre[k]
                        if x:
                            im[k] += b * x
            else:
                for k in range(width):
                    x, y = bre[k], bim[k]
                    re[k] += a * x - b * y
                    im[k] += a * y + b * x
        out.append(_rowops.make_row(re, im))
    return out


import weakref

# Interning mirrors the subspace layer: one object per mathematical value,
# so every derived cache (parts, adjoint, classification) is shared.
_interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class LinearRelation:
    """A linear relation from F^dim_in to F^dim_out."""

    __slots__ = (
        "dim_in",
        "dim_out",
        "graph",
        "_parts",
        "_inverse",
        "_adjoint",
        "_one_minus",
        "_classification",
        "_square",
        "__weakref__",
    )

    def __new__(cls, dim_in: int, dim_out: int, graph: Subspace):
        if graph.ambient_dim != dim_in + dim_out:
            raise DimensionError(
                f"graph ambient {graph.ambient_dim} != {dim_in} + {dim_out}"
            )
        key = (dim_in, dim_out, graph)
        got = _interned.get(key)
        if got is not None:
            return got
        obj = super().__new__(cls)
        obj.dim_in = dim_in
        obj.dim_out = dim_out
        obj.graph = graph
        obj._parts = None
        obj._inverse = None
        obj._adjoint = None
        obj._one_minus = None
        obj._classification = None
        obj._square = None
        _interned[key] = obj
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_generators(cls, pairs, dim_in: int, dim_out: int) -> "LinearRelation":
        """Relation spanned by (input, output) vector pairs."""
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
    def graph_of_matrix(cls, matrix: ExactMatrix) -> "LinearRelation":
        """The (everywhere-defined, single-valued) relation {(x, Ax)}."""
        n, m = matrix.cols, matrix.rows
        pairs = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            pairs.append((e, [matrix[r, i] for r in range(m)]))
        return cls.from_generators(pairs, n, m)

    @classmethod
    def identity_on(cls, space: Subspace) -> "LinearRelation":
        """I_M = {(u, u) : u in M}; the diagonal rows stay canonical."""
        n = space.ambient_dim
        rows = [
            (den, re + re, None if im is None else im + im)
            for den, re, im in space._rows
        ]
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
        rows = [
            (den, re + zero_m, None if im is None else im + zero_m)
            for den, re, im in left._rows
        ]
        rows += [
            (den, zero_n + re, None if im is None else zero_n + im)
            for den, re, im in right._rows
        ]
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
        return hash((self.dim_in, self.dim_out, self.graph))

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

    def __le__(self, other):
        return self.leq(other)

    def __ge__(self, other):
        return other.leq(self)

    # -- parts ---------------------------------------------------------------

    def parts(self) -> RelationParts:
        if self._parts is None:
            n, m = self.dim_in, self.dim_out
            dom_rows = []
            ran_rows = []
            for den, re, im in self.graph._rows:
                dom_rows.append((den, re[:n], None if im is None else im[:n]))
                ran_rows.append((den, re[n:], None if im is None else im[n:]))
            dom = Subspace.from_int_rows(dom_rows, n)
            ran = Subspace.from_int_rows(ran_rows, m)
            ker = self.inverse().mul
            self._parts = RelationParts(dom, ran, ker, self.mul)
        return self._parts

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
        if self._parts is not None:
            return self._parts.mul
        n, m = self.dim_in, self.dim_out
        rows = []
        pivots = []
        for (den, re, im), p in zip(self.graph._rows, self.graph._pivots):
            # A pivot in the output block means a zero input part, so the
            # output slice is already canonical for mul.
            if p >= n:
                rows.append(
                    (den, re[n:], None if im is None or not any(im[n:]) else im[n:])
                )
                pivots.append(p - n)
        return Subspace._from_rref(m, pivots, rows)

    def is_operator(self) -> bool:
        return self.mul.is_zero()

    # -- unary operations ----------------------------------------------------

    def inverse(self) -> "LinearRelation":
        """Slot swap: {(y, x) : (x, y) in T}."""
        if self._inverse is None:
            n, m = self.dim_in, self.dim_out
            swapped = [
                (den, re[n:] + re[:n], None if im is None else im[n:] + im[:n])
                for den, re, im in self.graph._rows
            ]
            inv = LinearRelation(
                m, n, Subspace.from_int_rows(swapped, n + m)
            )
            inv._inverse = self
            self._inverse = inv
        return self._inverse

    def one_minus(self) -> "LinearRelation":
        """I - T = {(u, u - v) : (u, v) in T}; square relations only."""
        if self._one_minus is None:
            self._require_square()
            n = self.dim_in
            rows = []
            for den, re, im in self.graph._rows:
                nre = list(re[:n]) + [re[k] - re[n + k] for k in range(n)]
                if im is None:
                    nim = None
                else:
                    nim = list(im[:n]) + [im[k] - im[n + k] for k in range(n)]
                rows.append((den, nre, nim))
            out = LinearRelation(n, n, Subspace.from_int_rows(rows, 2 * n))
            out._one_minus = self
            self._one_minus = out
        return self._one_minus

    def negate(self) -> "LinearRelation":
        """{(x, -y) : (x, y) in T}; helper behind the pointwise-sum cross
        checks."""
        n = self.dim_in
        rows = []
        for den, re, im in self.graph._rows:
            nre = list(re[:n]) + [-x for x in re[n:]]
            nim = None if im is None else list(im[:n]) + [-x for x in im[n:]]
            rows.append((den, nre, nim))
        return LinearRelation(
            n, self.dim_out, Subspace.from_int_rows(rows, n + self.dim_out)
        )

    def closure(self) -> "LinearRelation":
        """Topological closure; the identity map in finite dimension."""
        return self

    def adjoint(self) -> "LinearRelation":
        """T* = {(x, y) : <g, x> = <f, y> for all (f, g) in T}.

        Each graph generator (f, g) imposes one linear condition on
        (x, y) in F^m x F^n; conjugating it gives the row
        (conj(g), -conj(f)), and T* is the exact null space of those rows.
        """
        if self._adjoint is None:
            n, m = self.dim_in, self.dim_out
            width = m + n
            cond_rows = []
            for _, re, im in self.graph._rows:
                cre = list(re[n:]) + [-x for x in re[:n]]
                if im is None:
                    cim = None
                else:
                    cim = [-x for x in im[n:]] + list(im[:n])
                cond_rows.append(_rowops.make_row(cre, cim))
            pivots, rows = _rowops.rref(cond_rows, width)
            null_pivots, null_rows = _rowops.nullspace(pivots, rows, width)
            graph = Subspace._from_rref(width, null_pivots, null_rows)
            self._adjoint = LinearRelation(m, n, graph)
        return self._adjoint

    # -- binary operations -----------------------------------------------------

    def hat_sum(self, other: "LinearRelation") -> "LinearRelation":
        """Sum of the graphs as subspaces of F^(n+m)."""
        self._require_same_dims(other)
        return LinearRelation(
            self.dim_in, self.dim_out, self.graph.sum_with(other.graph)
        )

    def meet(self, other: "LinearRelation") -> "LinearRelation":
        """Intersection of the graphs.

        Solved in generator coordinates: combinations of self's generators
        that also lie in other's graph.  The duality route on the doubled
        ambient space is kept in
        :func:`relcalc.oracles.meet_by_graph_intersection` as the
        independent cross-check.
        """
        self._require_same_dims(other)
        width = self.dim_in + self.dim_out
        coeffs = _coefficient_nullspace(
            self.graph._rows, other.graph._rows, range(width), range(width)
        )
        d1 = self.graph.dim
        blocks = [(r[1], r[2]) for r in self.graph._rows]
        trimmed = [
            (den, re[:d1], None if im is None else im[:d1])
            for den, re, im in coeffs
        ]
        rows = _combine_rows(trimmed, blocks, width)
        return LinearRelation(
            self.dim_in, self.dim_out, Subspace.from_int_rows(rows, width)
        )

    def plus(self, other: "LinearRelation") -> "LinearRelation":
        """Pointwise sum {(x, y + z) : (x, y) in T, (x, z) in S}.

        Solved by eliminating the coefficient pairs whose generator
        combinations share the same input vector.
        """
        self._require_same_dims(other)
        n, m = self.dim_in, self.dim_out
        coeffs = _coefficient_nullspace(
            self.graph._rows, other.graph._rows, range(n), range(n)
        )
        blocks = [
            ((0,) * n + r[1][n:], None if r[2] is None else (0,) * n + r[2][n:])
            for r in self.graph._rows
        ]
        blocks += [
            (r[1], r[2])
            for r in other.graph._rows
        ]
        # Input slot comes from the second operand's combination (equal to
        # the first's); output slots add because the first block was zeroed
        # on input.
        rows = _combine_rows(coeffs, blocks, n + m)
        return LinearRelation(n, m, Subspace.from_int_rows(rows, n + m))

    def compose(self, other: "LinearRelation") -> "LinearRelation":
        """Relation product self(other(.)): pairs (x, y) such that
        (x, z) in other and (z, y) in self for some z."""
        if other.dim_out != self.dim_in:
            raise DimensionError(
                f"cannot compose {self.dim_in}->{self.dim_out} after "
                f"{other.dim_in}->{other.dim_out}"
            )
        n = other.dim_in
        e = other.dim_out
        m = self.dim_out
        # Match other's output slot with self's input slot.
        coeffs = _coefficient_nullspace(
            other.graph._rows, self.graph._rows, range(n, n + e), range(e)
        )
        zero_m, zero_n = (0,) * m, (0,) * n
        blocks = [
            (r[1][:n] + zero_m, None if r[2] is None else r[2][:n] + zero_m)
            for r in other.graph._rows
        ]
        blocks += [
            (zero_n + r[1][e:], None if r[2] is None else zero_n + r[2][e:])
            for r in self.graph._rows
        ]
        rows = _combine_rows(coeffs, blocks, n + m)
        return LinearRelation(n, m, Subspace.from_int_rows(rows, n + m))

    def __matmul__(self, other):
        return self.compose(other)

    def squared(self) -> "LinearRelation":
        """E o E, cached; classification and the square-law checks share it."""
        if self._square is None:
            self._square = self.compose(self)
        return self._square


def _coefficient_nullspace(t_rows, s_rows, t_cols, s_cols):
    """Canonical basis of {(a, b) : a . G_t and b . G_s agree on the given
    columns}: generator coefficients making two slot combinations agree.

    Works on the denominator-cleared integer generators (den * row), so the
    same scaled generators must be used when assembling the matched
    combinations from the returned coefficients.
    """
    d1, d2 = len(t_rows), len(s_rows)
    width = d1 + d2
    eq_rows = []
    for ct, cs in zip(t_cols, s_cols):
        re = [t_rows[i][1][ct] for i in range(d1)] + [
            -s_rows[j][1][cs] for j in range(d2)
        ]
        im = [
            t_rows[i][2][ct] if t_rows[i][2] is not None else 0 for i in range(d1)
        ] + [
            -s_rows[j][2][cs] if s_rows[j][2] is not None else 0 for j in range(d2)
        ]
        eq_rows.append(_rowops.make_row(re, im))
    pivots, rows = _rowops.rref(eq_rows, width)
    return _rowops.nullspace(pivots, rows, width)[1]
