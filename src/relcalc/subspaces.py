"""Canonical subspaces of F^n (F = Q(i)) and their lattice operations.

A subspace is stored as the unique RREF basis of its row space, encoded in
integer rows; two values are equal as sets exactly when the stored bases are
identical.  The inner product is conjugate-linear in the second argument:
<x, y> = sum_k x_k * conj(y_k).
"""

from __future__ import annotations

import functools
from operator import sub

from . import _rowops
from .errors import DimensionError

# The one cache of the value layer.  It interns subspaces (one object per
# value while the entry lasts) and holds the results of the functions
# decorated with ``memoized``.  Nothing else pays for an entry: relations
# are plain values around an interned graph.  Entries are strong and the
# dict is emptied when it reaches the bound, so memory is bounded and the
# work a run does depends only on the calls it makes.  An evicted value
# stays correct: equality and hashing are by value, and a re-created copy
# recomputes what it needs.  A fuzz trial builds fresh random values, so
# the working set is one trial's: the bound is the smallest power of two
# whose rref work stays within 1.5 % of an 8,192-entry memo's on the fuzz
# workloads (README, "Layout", the MEMO_BOUND table).
MEMO_BOUND = 2048
_memo: dict = {}


def _store(key, value):
    if len(_memo) >= MEMO_BOUND:
        _memo.clear()
    _memo[key] = value
    return value


def memoized(fn):
    """Cache ``fn(*args)`` in the memo under ``(fn, *args)``."""

    @functools.wraps(fn)
    def wrapper(*args):
        try:
            return _memo[(fn, *args)]
        except KeyError:
            return _store((fn, *args), fn(*args))

    return wrapper


class Subspace:
    """A linear subspace of F^ambient_dim in canonical form."""

    __slots__ = ("ambient_dim", "_pivots", "_rows", "_hash")

    def __init__(self, ambient_dim: int, pivots, rows, _internal=False):
        if not _internal:
            raise TypeError("use Subspace.span / Subspace.zero / Subspace.full")
        self.ambient_dim = ambient_dim
        self._pivots = tuple(pivots)
        self._rows = tuple(rows)
        self._hash = hash(self.key())

    # -- construction ----------------------------------------------------

    @classmethod
    def _from_rref(cls, ambient_dim, pivots, rows) -> "Subspace":
        # The value is its own memo key, so its rows are hashed once, in
        # the constructor, and not again by each dict operation.
        space = cls(ambient_dim, pivots, rows, _internal=True)
        return _memo.get(space) or _store(space, space)

    @classmethod
    def from_int_rows(cls, int_rows, ambient_dim: int) -> "Subspace":
        pivots, rows = _rowops.rref(int_rows, ambient_dim)
        return cls._from_rref(ambient_dim, pivots, rows)

    @classmethod
    def span(cls, vectors, ambient_dim: int) -> "Subspace":
        """Span of exact vectors; the empty list gives the zero subspace."""
        # Scalar rows load Fraction; documents and the verifier build from
        # integer rows and never need it.
        from .matrices import row_to_ints

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
        zeros = (0,) * ambient_dim
        pivots = range(ambient_dim)
        rows = [(1, zeros[:i] + (1,) + zeros[i + 1 :], zeros) for i in pivots]
        return cls._from_rref(ambient_dim, pivots, rows)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def basis_vectors(self):
        from .matrices import ints_to_row

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
        return self._hash

    def __reduce__(self):
        # Rebuilt from the rows, so the copy is interned.
        return Subspace._from_rref, (self.ambient_dim, self._pivots, self._rows)

    def __repr__(self) -> str:
        vecs = ", ".join(
            "(" + ", ".join(str(e) for e in v) + ")" for v in self.basis_vectors()
        )
        return f"Subspace({self.ambient_dim}-dim ambient; span{{{vecs}}})"

    def _require_same_ambient(self, *others: "Subspace"):
        """The package's one ambient check, for any number of subspaces."""
        n = self.ambient_dim
        for other in others:
            if other.ambient_dim != n:
                ambients = {n, *(o.ambient_dim for o in others)}
                raise DimensionError(f"mixed ambient dimensions {sorted(ambients)}")

    # -- lattice operations ------------------------------------------------

    def sum_with(self, other: "Subspace") -> "Subspace":
        """self + other.  A zero, full or equal operand is decided from the
        dimensions and the canonical rows: the larger operand, which the
        residual route would return, with no kernel call."""
        self._require_same_ambient(other)
        big, small = (self, other) if self.dim >= other.dim else (other, self)
        if small.is_zero() or big.dim == big.ambient_dim or big == small:
            return big
        return _sum(big, small)

    __add__ = sum_with

    @memoized
    def perp(self) -> "Subspace":
        """Orthogonal complement under <x, y> = sum x_k conj(y_k)."""
        # x is orthogonal to every basis row s iff conj(s) . x = 0;
        # conjugating a canonical basis keeps it canonical.
        conj_rows = [_rowops.conjugate_row(r) for r in self._rows]
        pivots, rows = _rowops.nullspace(
            self._pivots, conj_rows, self.ambient_dim
        )
        return Subspace._from_rref(self.ambient_dim, pivots, rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact intersection, read off the residuals of the smaller
        operand's rows against the larger one's: the smaller operand itself
        when they all vanish, and with no kernel call when an operand is
        zero or full or the two are equal."""
        self._require_same_ambient(other)
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        n = self.ambient_dim
        if small.is_zero() or big.dim == n or big == small:
            return small
        pairs = [((re, im), (re, im)) for _, re, im in small._rows]
        return _read_off(big, n, pairs, n, small)

    def __and__(self, other):
        return self.intersect(other)

    def contains_vector(self, int_row) -> bool:
        return _rowops.member(self._pivots, self._rows, int_row)

    def contains(self, other: "Subspace") -> bool:
        """True when other is a subset of self: row equality at equal
        dimensions, and no kernel call for a full self (nor for a zero
        other, which has no rows to test)."""
        self._require_same_ambient(other)
        if other.dim >= self.dim:
            return other.dim == self.dim and other._rows == self._rows
        if self.dim == self.ambient_dim:
            return True
        return all(
            _rowops.member(self._pivots, self._rows, r) for r in other._rows
        )

    def relative_complement(self, other: "Subspace") -> "Subspace":
        """S minus (S meet T): the part of S orthogonal to S intersect T."""
        meet = self.intersect(other)
        return self.intersect(meet.perp())


@memoized
def _sum(big: Subspace, small: Subspace) -> Subspace:
    """big + small for big.dim >= small.dim: big itself when the residuals
    of small's rows against big's basis all vanish, else one ``rref`` of
    big's rows and the nonzero residuals."""
    rest = []
    for row in small._rows:
        den, re, im = _rowops.residual(big._pivots, big._rows, row)
        if any(re) or any(im):
            rest.append((den, re, im))
    if not rest:
        return big
    return Subspace.from_int_rows(list(big._rows) + rest, big.ambient_dim)


def _read_off(against: Subspace, k: int, pairs, width: int, spanned=None):
    """The span of the payloads of the combinations of ``pairs`` whose
    vectors reduce to zero in the first k columns against ``against`` (a
    variant of Zassenhaus's sum-intersection algorithm).

    ``pairs`` holds (vec, base) pairs of integer (re, im) vectors, vec in
    against's ambient space and base in F^width.  Each vec reduces to a
    residual r, scaled to integers by d; the row (r[:k] | d base - (0, r[k:]))
    is stacked, and so is (0 | 0, s[k:]) for each row s of ``against``
    pivoting at or after k.  One ``rref`` puts the rows with a zero residual
    block last; cut at k (only zeros go, so the content stays reduced) they
    are the canonical rows of the answer.  ``spanned`` is the span of the
    payloads when the caller holds it; it is returned, with no ``rref``,
    when every residual block is zero.  When the residual blocks are
    independent, no combination of the pairs vanishes, and the answer is
    ``against``'s rows pivoting at or after k: none of the blocks may be
    zero, and more than one must fit in the columns before k where
    ``against`` has no pivot and have full rank, which an ``rref`` of width
    k decides.
    """
    lead = width - against.ambient_dim + k

    def stack(d, r, b):
        if d != 1:
            b = [d * x for x in b]
        return [*r[:k], *b[:lead], *map(sub, b[lead:], r[k:])]

    rows = []
    for (vre, vim), (bre, bim) in pairs:
        d, rre, rim = _rowops.residual(against._pivots, against._rows, (1, vre, vim))
        rows.append((1, stack(d, rre, bre), stack(d, rim, bim)))
    blocks = [(1, re[:k], im[:k]) for _, re, im in rows]
    live = [any(re) or any(im) for _, re, im in blocks]
    if spanned is not None and not any(live):
        return spanned
    pad = (0,) * lead
    pivots = []
    for (den, re, im), p in zip(against._rows, against._pivots):
        if p >= k:
            rows.append((den, re[:k] + pad + re[k:], im[:k] + pad + im[k:]))
            pivots.append(p + lead)
    m = len(blocks)
    if all(live) and m <= k - against.dim + len(pivots) and (
        m < 2 or len(_rowops.rref(blocks, k)[0]) == m
    ):
        rows = rows[m:]
    else:
        pivots, rows = _rowops.rref(rows, k + width)
    start = sum(p < k for p in pivots)
    return Subspace._from_rref(
        width,
        [p - k for p in pivots[start:]],
        [(den, re[k:], im[k:]) for den, re, im in rows[start:]],
    )
