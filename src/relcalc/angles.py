"""Dixmier and Friedrichs cosines between subspaces, in floating point.

The pipeline is exact-first: intersections and relative complements are
removed in Q(i) before any float conversion, so the only numerical work is
orthonormalization and one small singular value computation, both done
here on Python complex floats: up to a few dozen columns that costs less
than loading an array library would.  The Dixmier
cosine c0 is the largest singular value of the cross-Gram matrix of
orthonormal bases; the Friedrichs cosine is c0 after exactly splitting off
the intersection from both sides.  The supremum over an empty quotient is 0
by convention.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import InternalCheckError, PreconditionError
from .subspaces import Subspace

DEFAULT_TOL = 1e-9
# Gram-Schmidt residuals of canonical basis rows have norm at least 1 and
# the Gram check's round-off stays near 1e-16, so a tolerance in this range
# never fails on correct input; past 0.5, comparisons of cosines in [0, 1]
# mean little.  Outside it the tolerance is bad input, not a breach.
MIN_TOL, MAX_TOL = 1e-12, 0.5
# One-sided Jacobi: a pair of rows counts as orthogonal once |<a, b>| <=
# _JACOBI_EPS * |a| |b|; convergence is quadratic, so a few sweeps do.
_JACOBI_EPS = 1e-15
_JACOBI_SWEEPS = 60


def require_tol(tol: float) -> None:
    """Raise :class:`PreconditionError` unless MIN_TOL <= tol <= MAX_TOL
    (NaN and infinities fail the comparison)."""
    if not MIN_TOL <= tol <= MAX_TOL:
        raise PreconditionError(
            f"tol must lie in [{MIN_TOL}, {MAX_TOL}], got {tol!r}"
        )


@dataclass(frozen=True)
class FloatBasis:
    """Orthonormal float basis approximating an exact subspace."""

    ambient_dim: int
    vectors: tuple[tuple[complex, ...], ...]  # dim rows of ambient_dim, orthonormal

    @property
    def dim(self) -> int:
        return len(self.vectors)


def vdot(u, w) -> complex:
    """<u, w>, conjugate-linear in ``u``."""
    return sum(map(operator.mul, map(complex.conjugate, u), w))


def vector_norm(w) -> float:
    """Euclidean norm; math.hypot scales, so large entries do not overflow."""
    return math.hypot(*(x for z in w for x in (z.real, z.imag)))


def orthonormal_basis_f64(s: Subspace, tol: float = DEFAULT_TOL) -> FloatBasis:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    The exact basis rows are independent, so no rank decisions happen in
    floats; the Gram matrix is checked against the identity to ``tol``.
    Each row is divided exactly by its largest real or imaginary part
    before conversion, so entries past the float range still convert.
    """
    require_tol(tol)
    basis: list[tuple[complex, ...]] = []
    for vec in s.basis_vectors():
        top = max(max(abs(z.re), abs(z.im)) for z in vec)
        w = [complex(float(z.re / top), float(z.im / top)) for z in vec]
        for _ in range(2):
            for u in basis:
                c = vdot(u, w)
                w = [b - c * a for a, b in zip(u, w)]
        norm = vector_norm(w)
        if norm <= tol:
            raise InternalCheckError(
                "exact basis row collapsed during orthonormalization"
            )
        basis.append(tuple(z / norm for z in w))
    for i, u in enumerate(basis):
        for j, w in enumerate(basis):
            if not abs(vdot(w, u) - (i == j)) <= tol:
                raise InternalCheckError("orthonormalization failed the Gram check")
    return FloatBasis(s.ambient_dim, tuple(basis))


def _largest_singular_value(rows: list[list[complex]]) -> float:
    """Largest singular value by one-sided Jacobi: rotate pairs of rows
    until all are orthogonal, then the row norms are the singular values.
    The rotations are unitary, so they keep the singular values, and the
    norms are accurate to round-off relative to the largest one."""
    for _ in range(_JACOBI_SWEEPS):
        sq = [vector_norm(r) ** 2 for r in rows]
        rotated = False
        for p in range(len(rows)):
            for q in range(p + 1, len(rows)):
                a, b = rows[p], rows[q]
                gamma = vdot(a, b)
                g = abs(gamma)
                if g <= _JACOBI_EPS * math.sqrt(sq[p] * sq[q]):
                    continue
                rotated = True
                # With b scaled by the phase of conj(gamma), <a, b> = g is
                # real; rotate by the smaller root t of t^2 + 2 zeta t - 1.
                zeta = (sq[q] - sq[p]) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                cb = c * gamma.conjugate() / g
                sb = t * cb
                rows[p] = [c * x - sb * y for x, y in zip(a, b)]
                rows[q] = [c * t * x + cb * y for x, y in zip(a, b)]
                sq[p] = max(sq[p] - t * g, 0.0)
                sq[q] = max(sq[q] + t * g, 0.0)
        if not rotated:
            break
    return max(vector_norm(r) for r in rows)


def dixmier_cos(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> float:
    """c0(S, T): sup of |<x, y>| over unit vectors; 0 when either side is
    trivial; clamped into [0, 1]."""
    s._require_same_ambient(t)
    require_tol(tol)
    if s.is_zero() or t.is_zero():
        return 0.0
    bs = orthonormal_basis_f64(s, tol).vectors
    bt = orthonormal_basis_f64(t, tol).vectors
    if len(bs) > len(bt):
        bs, bt = bt, bs
    # One row per vector of the smaller basis; a conjugate transpose of
    # the cross-Gram matrix has the same singular values.
    cross = [[vdot(v, u) for v in bt] for u in bs]
    top = _largest_singular_value(cross)
    return min(max(top, 0.0), 1.0)


def friedrichs_cos(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> float:
    """c(S, T): the Dixmier cosine after removing S meet T from both sides
    exactly; relative_complement rejects mismatched ambients."""
    s_part = s.relative_complement(t)
    t_part = t.relative_complement(s)
    return dixmier_cos(s_part, t_part, tol)


def angles_record(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> dict:
    """Machine-readable record: both cosines plus the exact intersection
    dimension."""
    meet = s.intersect(t)
    return {
        "dixmier_cos": dixmier_cos(s, t, tol),
        "friedrichs_cos": friedrichs_cos(s, t, tol),
        "intersection_dim": meet.dim,
        "dim_left": s.dim,
        "dim_right": t.dim,
        "ambient": s.ambient_dim,
        "tol": tol,
    }
