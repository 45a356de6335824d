"""Dense exact matrices over Q(i): RREF, rank, null space, solving.

The heavy lifting happens in :mod:`relcalc._rowops` on integer-scaled rows;
this module owns the public :class:`ExactMatrix` type whose entries are
:class:`GaussianRational` values.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import _rowops
from .errors import DimensionError
from .scalars import GaussianRational, as_scalar


def row_to_ints(entries) -> _rowops.Row:
    """Scale one row of scalars to the integer ``(den, re, im)`` form."""
    scalars = [as_scalar(e) for e in entries]
    den = 1
    for z in scalars:
        den = lcm(den, z.re.denominator, z.im.denominator)
    re = [int(z.re * den) for z in scalars]
    im = [int(z.im * den) for z in scalars]
    return (den, tuple(re), tuple(im) if any(im) else None)


def ints_to_row(row: _rowops.Row) -> tuple[GaussianRational, ...]:
    den, re, im = row
    if im is None:
        return tuple(GaussianRational(Fraction(x, den)) for x in re)
    return tuple(
        GaussianRational(Fraction(x, den), Fraction(y, den)) for x, y in zip(re, im)
    )


class ExactMatrix:
    """Immutable row-major matrix of Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(as_scalar(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise DimensionError("ragged rows")
        return cls(rows, cols, [e for r in data for e in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
        return f"ExactMatrix({self.rows}x{self.cols}: {body})"

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = GaussianRational(0)
                for k in range(self.cols):
                    acc = acc + self[i, k] * other[k, j]
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def apply(self, vector) -> tuple[GaussianRational, ...]:
        """Matrix-vector product M @ x."""
        x = [as_scalar(v) for v in vector]
        if len(x) != self.cols:
            raise DimensionError(f"vector length {len(x)} != cols {self.cols}")
        out = []
        for i in range(self.rows):
            acc = GaussianRational(0)
            for k in range(self.cols):
                acc = acc + self[i, k] * x[k]
            out.append(acc)
        return tuple(out)

    def conj_transpose(self) -> "ExactMatrix":
        out = [
            self[i, j].conjugate() for j in range(self.cols) for i in range(self.rows)
        ]
        return ExactMatrix(self.cols, self.rows, out)

    def _int_rows(self) -> list[_rowops.Row]:
        return [row_to_ints(self.row(i)) for i in range(self.rows)]

    def rref(self) -> tuple["ExactMatrix", tuple[int, ...], int]:
        """(R, pivot columns, rank); R keeps the original shape, zero rows
        trailing."""
        pivots, rows = _rowops.rref(self._int_rows(), self.cols)
        out: list[GaussianRational] = []
        for row in rows:
            out.extend(ints_to_row(row))
        out.extend([GaussianRational(0)] * ((self.rows - len(rows)) * self.cols))
        return (
            ExactMatrix(self.rows, self.cols, out),
            tuple(pivots),
            len(pivots),
        )

    def rank(self) -> int:
        pivots, _ = _rowops.rref(self._int_rows(), self.cols)
        return len(pivots)

    def nullspace(self) -> list[tuple[GaussianRational, ...]]:
        """Basis of {x : Mx = 0}, canonically ordered; empty list when the
        map is injective."""
        pivots, rows = _rowops.rref(self._int_rows(), self.cols)
        _, basis = _rowops.nullspace(pivots, rows, self.cols)
        return [ints_to_row(r) for r in basis]

    def solve(self, b) -> tuple[GaussianRational, ...] | None:
        """Some exact solution of Mx = b, or None when the system is
        inconsistent."""
        rhs = [as_scalar(v) for v in b]
        if len(rhs) != self.rows:
            raise DimensionError(f"rhs length {len(rhs)} != rows {self.rows}")
        width = self.cols + 1
        aug = [
            row_to_ints(tuple(self.row(i)) + (rhs[i],)) for i in range(self.rows)
        ]
        pivots, rows = _rowops.rref(aug, width)
        if self.cols in pivots:
            return None
        x: list[GaussianRational] = [GaussianRational(0)] * self.cols
        for (den, re, im), p in zip(rows, pivots):
            x[p] = GaussianRational(
                Fraction(re[self.cols], den),
                Fraction(im[self.cols], den) if im is not None else 0,
            )
        return tuple(x)
