"""Float angle machinery against hand-computed values and numpy."""

import math
import random

import numpy as np
import pytest

from relcalc import GaussianRational, PreconditionError, Subspace
from relcalc import angles
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

from vectors import I, e, span


def test_orthonormal_normalizes():
    b = orthonormal_basis_f64(span([[2, 0]], 2))
    assert len(b) == 1
    assert np.allclose(np.array(b), [[1.0, 0.0]])


def test_orthonormal_plane():
    b = orthonormal_basis_f64(span([e(0, 3), e(1, 3)], 3))
    assert len(b) == 2
    q = np.array(b)
    gram = q @ q.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_orthonormal_diagonal():
    b = orthonormal_basis_f64(span([[1, 1]], 2))
    root_half = math.sqrt(2) / 2
    assert np.allclose(np.abs(np.array(b)), [[root_half, root_half]], atol=1e-12)


def test_orthonormal_zero_subspace():
    assert orthonormal_basis_f64(Subspace.zero(3)) == ()


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


def _shared_pair(rng, n, complex_entries):
    """S = M + A and T = M + B for random M, A and B whose dimensions add up
    to at most n, so that S meet T is, generically, M.  A third of the pairs
    have S in T (A = 0) and a third a zero meet (M = 0); in the rest, once
    n > 2, M, A and B are all nonzero."""

    def vectors(k):
        if complex_entries:
            return [[GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(n)] for _ in range(k)]
        return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]

    shape = rng.randrange(3)
    k = 0 if shape == 1 else rng.randint(1, max(1, n - 2 * (shape == 2)))
    a = 0 if shape == 0 else min(n - k, rng.randint(1, max(1, n - k - 1)))
    b = rng.randint(min(1, n - k - a), n - k - a)
    shared = vectors(k)
    return span(shared + vectors(a), n), span(shared + vectors(b), n)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_friedrichs_splits_one_side(n, complex_entries):
    """c(S, T) removes S meet T from S only; removing it from T too gives
    the same cosine (for x orthogonal to S meet T, <x, y> = <x, y - P y>),
    and so does splitting T's side, as friedrichs_cos(t, s) does.
    angles_record reads the same cosine and dim(S meet T) off its one
    split."""
    rng = random.Random(100 * n + complex_entries)
    shapes = set()
    for _ in range(40):
        s, t = _shared_pair(rng, n, complex_entries)
        meet = s.intersect(t)
        shapes.add("nested" if meet in (s, t) else "trivial" if meet.is_zero() else "meet")
        got = friedrichs_cos(s, t)
        both = dixmier_cos(s.relative_complement(t), t.relative_complement(s))
        assert got == pytest.approx(both, abs=1e-12)
        assert got == pytest.approx(friedrichs_cos(t, s), abs=1e-12)
        rec = angles_record(s, t)
        assert (rec["friedrichs_cos"], rec["intersection_dim"]) == (got, meet.dim)
    assert shapes == {"nested", "trivial", "meet"} if n > 2 else "nested" in shapes


def test_record_reads_the_public_cosines():
    """The record's cosines are dixmier_cos and friedrichs_cos bit for bit,
    over zero, full, equal and nested sides and sides that meet."""
    rng = random.Random(30)
    pairs = []
    for n in range(1, 6):
        for complex_entries in (False, True):
            for _ in range(5):
                pairs.append(_shared_pair(rng, n, complex_entries))
            s, t = _shared_pair(rng, n, complex_entries)
            zero, full = Subspace.zero(n), Subspace.full(n)
            pairs += [(zero, t), (s, zero), (zero, zero), (full, t), (s, full), (s, s)]
    assert sum(0 < s.intersect(t).dim < s.dim for s, t in pairs) >= 10
    for s, t in pairs:
        rec = angles_record(s, t)
        assert rec["dixmier_cos"] == dixmier_cos(s, t)
        assert rec["friedrichs_cos"] == friedrichs_cos(s, t)


def test_record_orthonormalizes_each_side_once(monkeypatch):
    """Each distinct subspace among S, the split S - (S meet T) and T is
    orthonormalized once, and both cosines read the one basis of T; with
    S meet T = 0 the split is S, so the record builds two bases."""
    seen = []
    original = angles.orthonormal_basis_f64

    def counting(x, tol):
        seen.append(x)
        return original(x, tol)

    monkeypatch.setattr(angles, "orthonormal_basis_f64", counting)
    s = span([e(0, 3), e(1, 3)], 3)
    t = span([e(1, 3), [1, 0, 1]], 3)
    rec = angles_record(s, t)
    assert rec["intersection_dim"] == 1
    assert len(seen) == 3
    assert all(x in seen for x in (s, s.relative_complement(t), t))
    seen.clear()
    t = span([[1, 1, 1]], 3)
    rec = angles_record(s, t)
    assert rec["intersection_dim"] == 0
    assert seen == [s, t]


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


@pytest.mark.parametrize("big", [10**20, 10**400], ids=["1e20", "1e400"])
def test_rows_nearly_parallel_after_scaling(big):
    """span{(1, 0, big), (0, 1, big)}: scaled by their largest entries the
    two rows agree but for 1/big, far below any float tolerance, yet the
    exact Gram-Schmidt keeps them apart (condition number about big)."""
    s = span([[1, 0, big], [0, 1, big]], 3)
    rec = angles_record(s, span([e(0, 3)], 3))
    assert rec["dixmier_cos"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert rec["friedrichs_cos"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert rec["intersection_dim"] == 0
    rec = angles_record(s, span([e(0, 3), e(1, 3)], 3))
    assert rec["intersection_dim"] == 1
    assert rec["dixmier_cos"] == pytest.approx(1.0, abs=1e-12)
    # The rest of S, span{(1, 1, 2 big)}, meets the plane at 1/(sqrt(2) big).
    assert rec["friedrichs_cos"] == pytest.approx(0.0, abs=1e-12)


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
    tolerances, beside a zero operand too; the rest are bad input (exit 4),
    never a Gram-check breach."""
    call = ENTRY_POINTS[name]
    t = span([[1, 1]], 2)
    for s in (span([e(0, 2)], 2), Subspace.zero(2)):
        if ok:
            call(s, t, tol)
        else:
            with pytest.raises(PreconditionError):
                call(s, t, tol)
