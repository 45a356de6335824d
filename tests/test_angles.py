"""Float angle machinery against hand-computed values and numpy."""

import math
import random

import numpy as np
import pytest

from relcalc import GaussianRational, PreconditionError, Subspace
from relcalc.angles import (
    MAX_TOL,
    MIN_TOL,
    _largest_singular_value,
    angles_record,
    dixmier_cos,
    friedrichs_cos,
    orthonormal_basis_f64,
)
from relcalc.verifier import GenConfig

I = GaussianRational(0, 1)


def e(k, n):
    v = [0] * n
    v[k] = 1
    return v


def span(vectors, n):
    return Subspace.span(vectors, n)


def test_orthonormal_normalizes():
    b = orthonormal_basis_f64(span([[2, 0]], 2))
    assert b.dim == 1
    assert np.allclose(np.array(b.vectors), [[1.0, 0.0]])


def test_orthonormal_plane():
    b = orthonormal_basis_f64(span([e(0, 3), e(1, 3)], 3))
    assert b.dim == 2
    q = np.array(b.vectors)
    gram = q @ q.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_orthonormal_diagonal():
    b = orthonormal_basis_f64(span([[1, 1]], 2))
    root_half = math.sqrt(2) / 2
    assert np.allclose(np.abs(np.array(b.vectors)), [[root_half, root_half]], atol=1e-12)


def test_orthonormal_zero_subspace():
    b = orthonormal_basis_f64(Subspace.zero(3))
    assert b.dim == 0 and b.vectors == () and b.ambient_dim == 3


def test_dixmier_identical_lines():
    s = span([e(0, 2)], 2)
    assert dixmier_cos(s, s) == pytest.approx(1.0, abs=1e-12)


def test_dixmier_orthogonal_lines():
    assert dixmier_cos(span([e(0, 2)], 2), span([e(1, 2)], 2)) == pytest.approx(
        0.0, abs=1e-12
    )


def test_dixmier_diagonal():
    # |<e1, (1,1)/sqrt(2)>| = 1/sqrt(2), computed by hand
    got = dixmier_cos(span([e(0, 2)], 2), span([[1, 1]], 2))
    assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_dixmier_zero_subspace_convention():
    assert dixmier_cos(Subspace.zero(2), span([e(0, 2)], 2)) == 0.0


def test_friedrichs_equal_subspaces():
    s = span([e(0, 2)], 2)
    assert friedrichs_cos(s, s) == 0.0


def test_friedrichs_equals_dixmier_on_trivial_meet():
    s = span([e(0, 3)], 3)
    t = span([[1, 1, 0]], 3)
    assert friedrichs_cos(s, t) == pytest.approx(dixmier_cos(s, t), abs=1e-12)


def test_friedrichs_hand_example():
    # S = span{e1, e2}, T = span{e2, e1+e3}; S meet T = span{e2} removed
    # exactly, leaving span{e1} versus span{(1,0,1)}: cosine 1/sqrt(2).
    s = span([e(0, 3), e(1, 3)], 3)
    t = span([e(1, 3), [1, 0, 1]], 3)
    assert s.intersect(t) == span([e(1, 3)], 3)
    got = friedrichs_cos(s, t)
    assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_complex_line_angles():
    s = span([[1, I]], 2)
    t = span([[1, -1]], 2)
    # |<(1,i)/sqrt2, (1,-1)/sqrt2>| = |1 - (-1)*(-i)|/2 = |1 - i|/2 = sqrt2/2
    assert dixmier_cos(s, t) == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_largest_singular_value_matches_lapack():
    """The Jacobi routine against numpy's SVD, including rank-deficient
    rows, tiny entries and equal singular values."""
    rng = random.Random(11)
    for _ in range(400):
        k = rng.randint(1, 8)
        n = rng.randint(k, 8)
        m = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(k)]
        shape = rng.randrange(4)
        if shape == 1:
            m = [list(m[0]) for _ in m]
        elif shape == 2:
            m = [[z * 1e-14 for z in row] for row in m]
        elif shape == 3:
            q, _ = np.linalg.qr(np.array(m).conj().T)
            m = [list(row) for row in q.conj().T]
        want = np.linalg.svd(np.array(m), compute_uv=False)[0]
        got = _largest_singular_value([list(row) for row in m])
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_dixmier_matches_lapack():
    """c0 of random exact subspaces against a QR and SVD done by numpy."""
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(2, 6)
        s, t = (
            span(
                [
                    [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                    for _ in range(rng.randint(1, n))
                ],
                n,
            )
            for _ in range(2)
        )
        if s.is_zero() or t.is_zero():
            continue
        qs, qt = (
            np.linalg.qr(np.array([[complex(z) for z in v] for v in x.basis_vectors()]).T)[0]
            for x in (s, t)
        )
        want = min(np.linalg.svd(qs.conj().T @ qt, compute_uv=False)[0], 1.0)
        assert dixmier_cos(s, t) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("big", [10**200, 10**400, GaussianRational(1, 10**400)])
def test_entries_past_the_float_range(big):
    """Rows are scaled exactly before the float conversion, so huge entries
    neither overflow nor fail the Gram check."""
    s = span([[1, big]], 2)
    t = span([[0, 1]], 2)
    assert dixmier_cos(s, t) == pytest.approx(1.0, abs=1e-12)
    assert angles_record(s, span([[1, 1]], 2))["dixmier_cos"] == pytest.approx(
        math.sqrt(2) / 2, abs=1e-12
    )


def test_angles_record_fields():
    rec = angles_record(span([e(0, 2)], 2), span([[1, 1]], 2))
    assert rec["intersection_dim"] == 0
    assert rec["dixmier_cos"] == pytest.approx(rec["friedrichs_cos"], abs=1e-12)
    assert rec["ambient"] == 2


ENTRY_POINTS = {
    "orthonormal_basis_f64": lambda s, t, tol: orthonormal_basis_f64(s, tol),
    "dixmier_cos": dixmier_cos,
    "friedrichs_cos": friedrichs_cos,
    "angles_record": angles_record,
    "GenConfig": lambda s, t, tol: GenConfig(tol=tol),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "tol, ok",
    [
        (MIN_TOL, True),
        (1e-9, True),
        (MAX_TOL, True),
        (math.nan, False),
        (math.inf, False),
        (-1.0, False),
        (0.0, False),
        (1e-300, False),
        (MIN_TOL / 2, False),
        (0.6, False),
    ],
)
def test_tolerance_range_is_shared(name, tol, ok):
    """Every angle entry point and the fuzz config accept exactly the same
    tolerances; the rest are bad input (exit 4), never a Gram-check breach."""
    call = ENTRY_POINTS[name]
    s, t = span([e(0, 2)], 2), span([[1, 1]], 2)
    if ok:
        call(s, t, tol)
    else:
        with pytest.raises(PreconditionError):
            call(s, t, tol)
