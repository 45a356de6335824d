"""Dixmier and Friedrichs cosines between subspaces, in floating point.

The pipeline is exact-first: intersections and relative complements are
removed in Q(i) before any float conversion, so the only numerical work is
orthonormalization and one small singular value computation.  The Dixmier
cosine c0 is the largest singular value of the cross-Gram matrix of
orthonormal bases; the Friedrichs cosine is c0 after exactly splitting off
the intersection from both sides.  The supremum over an empty quotient is 0
by convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, PreconditionError
from .subspaces import Subspace

DEFAULT_TOL = 1e-9
# Gram-Schmidt residuals of canonical basis rows have norm at least 1 and
# the Gram check's round-off stays near 1e-16, so a tolerance in this range
# never fails on correct input; past 0.5, comparisons of cosines in [0, 1]
# mean little.  Outside it the tolerance is bad input, not a breach.
MIN_TOL, MAX_TOL = 1e-12, 0.5


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
    vectors: np.ndarray  # shape (dim, ambient_dim), complex128, rows orthonormal

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def orthonormal_basis_f64(s: Subspace, tol: float = DEFAULT_TOL) -> FloatBasis:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    The exact basis rows are independent, so no rank decisions happen in
    floats; the Gram matrix is checked against the identity to ``tol``.
    """
    require_tol(tol)
    n = s.ambient_dim
    if s.is_zero():
        return FloatBasis(n, np.zeros((0, n), dtype=np.complex128))
    rows = np.array(
        [[complex(z) for z in vec] for vec in s.basis_vectors()],
        dtype=np.complex128,
    )
    basis: list[np.ndarray] = []
    for v in rows:
        w = v.copy()
        for _ in range(2):
            for u in basis:
                w = w - np.vdot(u, w) * u
        norm = np.linalg.norm(w)
        if norm <= tol:
            raise InternalCheckError(
                "exact basis row collapsed during orthonormalization"
            )
        basis.append(w / norm)
    q = np.array(basis)
    gram = q @ q.conj().T
    if not np.allclose(gram, np.eye(len(basis)), atol=tol):
        raise InternalCheckError("orthonormalization failed the Gram check")
    return FloatBasis(n, q)


def dixmier_cos(s: Subspace, t: Subspace, tol: float = DEFAULT_TOL) -> float:
    """c0(S, T): sup of |<x, y>| over unit vectors; 0 when either side is
    trivial; clamped into [0, 1]."""
    s._require_same_ambient(t)
    require_tol(tol)
    if s.is_zero() or t.is_zero():
        return 0.0
    bs = orthonormal_basis_f64(s, tol)
    bt = orthonormal_basis_f64(t, tol)
    cross = bs.vectors @ bt.vectors.conj().T
    top = float(np.linalg.svd(cross, compute_uv=False)[0])
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
