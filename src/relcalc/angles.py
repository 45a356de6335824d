"""Dixmier and Friedrichs cosines between subspaces, in floating point.

The pipeline is exact-first: intersections and relative complements are
removed, and bases orthogonalized, in Q(i) before any float conversion, so
the only numerical work is normalization and one small singular value
computation, both done here on Python complex floats: up to a few dozen
columns that costs less than loading an array library would.  The Dixmier
cosine c0 is the largest singular value of the cross-Gram matrix of
orthonormal bases.  The Friedrichs cosine c(S, T) is c0 with S meet T split
off both sides, and it equals c0(S - (S meet T), T): for x orthogonal to
S meet T and y in T, <x, y> = <x, y - P y> with P the projection onto
S meet T, and |y - P y| <= |y| (Deutsch, "The angle between subspaces of a
Hilbert space", 1995).  So it is computed with one split.  The supremum over
an empty quotient is 0 by convention.
"""

from __future__ import annotations

import math
import operator

from .errors import InternalCheckError, PreconditionError
from .subspaces import Subspace

DEFAULT_TOL = 1e-9
# The rows are orthogonalized exactly, so the Gram check's round-off stays
# near 1e-16 at any condition number of the basis, and a tolerance in this
# range never fails on correct input; past 0.5, comparisons of cosines in
# [0, 1] mean little.  Outside it the tolerance is bad input, not a breach.
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


def vdot(u, w) -> complex:
    """<u, w>, conjugate-linear in ``u``."""
    return sum(map(operator.mul, map(complex.conjugate, u), w))


def vector_norm(w) -> float:
    """Euclidean norm; math.hypot scales, so large entries do not overflow."""
    return math.hypot(*(x for z in w for x in (z.real, z.imag)))


def orthonormal_basis_f64(
    s: Subspace, tol: float = DEFAULT_TOL
) -> tuple[tuple[complex, ...], ...]:
    """Orthonormal float rows spanning the exact subspace ``s``, one per
    basis row.

    Gram-Schmidt runs exactly, fraction-free over the Gaussian integers:
    each canonical integer row w becomes N w - <u, w> u for every earlier
    orthogonal row u of squared norm N, with its content divided out.  Only
    then is each row divided by its largest real or imaginary part (integer
    true division rounds correctly, so entries past the float range still
    convert) and normalized in floats.  No rank decision happens in floats,
    and the Gram matrix is checked against the identity to ``tol``.
    """
    require_tol(tol)
    ortho: list[tuple[list[int], list[int], int]] = []
    basis: list[tuple[complex, ...]] = []
    for _, re, im in s._rows:
        for ure, uim, sq in ortho:
            # <u, w> = cre + i cim, conjugate-linear in u.
            cre = sum(a * x + b * y for a, b, x, y in zip(ure, uim, re, im))
            cim = sum(a * y - b * x for a, b, x, y in zip(ure, uim, re, im))
            re, im = (
                [sq * x - cre * a + cim * b for a, b, x in zip(ure, uim, re)],
                [sq * y - cre * b - cim * a for a, b, y in zip(ure, uim, im)],
            )
            g = math.gcd(*re, *im)
            re, im = [x // g for x in re], [y // g for y in im]
        ortho.append((re, im, sum(x * x for x in re) + sum(y * y for y in im)))
        top = max(map(abs, [*re, *im]))
        w = [complex(x / top, y / top) for x, y in zip(re, im)]
        norm = vector_norm(w)
        basis.append(tuple(z / norm for z in w))
    for i, u in enumerate(basis):
        for j, w in enumerate(basis):
            if not abs(vdot(w, u) - (i == j)) <= tol:
                raise InternalCheckError("orthonormalization failed the Gram check")
    return tuple(basis)


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


def _cos(bs, bt) -> float:
    """c0 from orthonormal bases, clamped into [0, 1]; 0 if either is empty."""
    if not bs or not bt:
        return 0.0
    # Rows from the smaller basis: transposing keeps the singular values.
    bs, bt = sorted((bs, bt), key=len)
    cross = [[vdot(v, u) for v in bt] for u in bs]
    return min(max(_largest_singular_value(cross), 0.0), 1.0)


def dixmier_cos(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> float:
    """c0(S, T): sup of |<x, y>| over unit vectors; 0 when either side is
    trivial; clamped into [0, 1]."""
    s._require_same_ambient(t)
    return _cos(orthonormal_basis_f64(s, tol), orthonormal_basis_f64(t, tol))


def friedrichs_cos(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> float:
    """c(S, T) = c0(S - (S meet T), T), with S meet T split off ``s`` exactly;
    relative_complement rejects mismatched ambients."""
    return dixmier_cos(s.relative_complement(t), t, tol)


def angles_record(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> dict:
    """Machine-readable record: both cosines plus the exact intersection
    dimension, dim S less that of the one split S - (S meet T).  Each
    distinct subspace is orthonormalized once: with S meet T = 0 the split
    is S itself, and both cosines read S's basis."""
    rest = s.relative_complement(t)
    bs = orthonormal_basis_f64(s, tol)
    bt = orthonormal_basis_f64(t, tol)
    return {
        "dixmier_cos": _cos(bs, bt),
        "friedrichs_cos": _cos(
            bs if rest.dim == s.dim else orthonormal_basis_f64(rest, tol), bt
        ),
        "intersection_dim": s.dim - rest.dim,
        "dim_left": s.dim,
        "dim_right": t.dim,
        "ambient": s.ambient_dim,
        "tol": tol,
    }
