"""Canonical subspaces of F^n (F = Q(i)) and their lattice operations.

A subspace is stored as the unique RREF basis of its row space, encoded in
integer rows; two values are equal as sets exactly when the stored bases are
identical.  The inner product is conjugate-linear in the second argument:
<x, y> = sum_k x_k * conj(y_k).
"""

from __future__ import annotations

import weakref

from . import _rowops
from .errors import DimensionError
from .matrices import ints_to_row, row_to_ints

# Canonical interning: equal subspaces are the same object, so derived
# caches (orthogonal complements, relation parts) are shared globally.
_interned: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()


class Subspace:
    """A linear subspace of F^ambient_dim in canonical form."""

    __slots__ = ("ambient_dim", "_pivots", "_rows", "_perp", "__weakref__")

    def __init__(self, ambient_dim: int, pivots, rows, _internal=False):
        if not _internal:
            raise TypeError("use Subspace.span / Subspace.zero / Subspace.full")
        self.ambient_dim = ambient_dim
        self._pivots = tuple(pivots)
        self._rows = tuple(rows)
        self._perp = None

    # -- construction ----------------------------------------------------

    @classmethod
    def _from_rref(cls, ambient_dim, pivots, rows) -> "Subspace":
        rows = tuple(rows)
        key = (ambient_dim, rows)
        got = _interned.get(key)
        if got is not None:
            return got
        obj = cls(ambient_dim, pivots, rows, _internal=True)
        _interned[key] = obj
        return obj

    @classmethod
    def from_int_rows(cls, int_rows, ambient_dim: int) -> "Subspace":
        pivots, rows = _rowops.rref(int_rows, ambient_dim)
        return cls._from_rref(ambient_dim, pivots, rows)

    @classmethod
    def span(cls, vectors, ambient_dim: int) -> "Subspace":
        """Span of exact vectors; the empty list gives the zero subspace."""
        int_rows = []
        for v in vectors:
            v = tuple(v)
            if len(v) != ambient_dim:
                raise DimensionError(
                    f"vector length {len(v)} != ambient {ambient_dim}"
                )
            int_rows.append(row_to_ints(v))
        return cls.from_int_rows(int_rows, ambient_dim)

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls._from_rref(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        rows = []
        for i in range(ambient_dim):
            re = [0] * ambient_dim
            re[i] = 1
            rows.append((1, tuple(re), None))
        return cls._from_rref(ambient_dim, tuple(range(ambient_dim)), rows)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def basis_vectors(self):
        return [ints_to_row(row) for row in self._rows]

    def key(self):
        """Hashable canonical identity of the subspace."""
        return (self.ambient_dim, self._rows)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self._rows == other._rows

    def __hash__(self):
        return hash(self.key())

    def __repr__(self) -> str:
        vecs = ", ".join(
            "(" + ", ".join(str(e) for e in v) + ")" for v in self.basis_vectors()
        )
        return f"Subspace({self.ambient_dim}-dim ambient; span{{{vecs}}})"

    def _document_payload(self) -> dict:
        """The subspace document body, so error records carry documents."""
        from .documents import subspace_payload

        return subspace_payload(self)

    def _require_same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionError(
                f"ambient mismatch: {self.ambient_dim} != {other.ambient_dim}"
            )

    # -- lattice operations ------------------------------------------------

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        return Subspace.from_int_rows(
            list(self._rows) + list(other._rows), self.ambient_dim
        )

    __add__ = sum_with

    def perp(self) -> "Subspace":
        """Orthogonal complement under <x, y> = sum x_k conj(y_k)."""
        if self._perp is None:
            # x is orthogonal to every basis row s iff conj(s) . x = 0;
            # conjugating a canonical basis keeps it canonical.
            conj_rows = [_rowops.conjugate_row(r) for r in self._rows]
            pivots, rows = _rowops.nullspace(
                self._pivots, conj_rows, self.ambient_dim
            )
            out = Subspace._from_rref(self.ambient_dim, pivots, rows)
            self._perp = out
            out._perp = self
        return self._perp

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection via duality: (S1^perp + S2^perp)^perp."""
        self._require_same_ambient(other)
        return self.perp().sum_with(other.perp()).perp()

    def __and__(self, other):
        return self.intersect(other)

    def contains_vector(self, int_row) -> bool:
        return _rowops.member(self._pivots, self._rows, int_row)

    def contains(self, other: "Subspace") -> bool:
        """True when other is a subset of self."""
        self._require_same_ambient(other)
        if other.dim > self.dim:
            return False
        return all(
            _rowops.member(self._pivots, self._rows, r) for r in other._rows
        )

    def __ge__(self, other):
        return self.contains(other)

    def __le__(self, other):
        return other.contains(self)

    def relative_complement(self, other: "Subspace") -> "Subspace":
        """S minus (S meet T): the part of S orthogonal to S intersect T."""
        self._require_same_ambient(other)
        meet = self.intersect(other)
        if meet.is_zero():
            return self
        return self.intersect(meet.perp())

    def is_direct_sum_with(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return self.sum_with(other).dim == self.dim + other.dim
