"""Every kernel answer of two fuzz suites, the golden corpora and the
classify-wide documents, certified.

Every "independent" route of the fuzz checks ends in the same three kernel
functions, ``_rowops.rref``, ``residual`` and ``nullspace``, so a kernel
fault that breaks both sides of an identity alike goes unseen.  These tests
wrap the three for each run and check each answer, not the code that made
it: a certifying checker after Blum and Kannan, "Designing programs that
check their work", JACM 42(1), 1995.  The checker shares only the row format
``(den, re, im)`` with ``_rowops``:

* ``rref``: the output is canonical; every input row v equals
  sum_k v[p_k] * out_k, so the input spans at most the output; and the
  input's rank modulo a prime P, which reduction can only lower (Schwartz,
  JACM 27(4), 1980), equals the number of output rows, so it spans at least
  the output.  Where P divides a minor, the rank modulo P falls short, and
  the exact rank by Fraction elimination (``test_rowops.ref_rref``, which
  shares no code with ``_rowops``) decides.
* ``residual``: the result is zero in every pivot column, and
  vec - residual equals sum_k vec[p_k] * row_k, so it lies in the span.
* ``nullspace``: M x = 0 for every output row x, and there are width - rank
  of them, canonical and so independent.
"""

import importlib
import json
import pkgutil
import re
from math import gcd, lcm
from pathlib import Path

import pytest

import relcalc
from relcalc import InternalCheckError, _rowops, cli, subspaces, verifier
from relcalc.documents import parse_document
from relcalc.idempotents import classify
from relcalc.verifier import GenConfig, verify_suite

from classify_wide import DOCS, document
from test_golden import EDGE, GOLDEN, MANIFEST
from test_mutants import LEDGER, _edit, _install
from test_rowops import as_pairs, ref_rref

# A 61-bit prime that is 1 (mod 4), so i can be sent to a square root of -1
# in GF(P); 7 is a quadratic non-residue modulo P.
P = 2**61 - 31
SQRT_MINUS_ONE = pow(7, (P - 1) // 4, P)
assert SQRT_MINUS_ONE * SQRT_MINUS_ONE % P == P - 1


def _parts(row):
    den, re, im = row
    return den, list(re), [0] * len(re) if im is None else list(im)


def _not_canonical(pivots, out, width):
    """Why ``(pivots, out)`` is not a reduced echelon form, or ``None``."""
    if list(pivots) != sorted(set(pivots)) or len(pivots) != len(out):
        return "pivots are not increasing, one per row"
    for (den, re, im), p in zip(out, pivots):
        if den < 1 or len(re) != width or len(im) != width:
            return "row has a bad denominator or length"
        if re[p] != den or im[p]:
            return f"pivot entry at column {p} is not 1"
        if any(re[:p]) or any(im[:p]):
            return f"row pivoting at {p} has an entry before it"
        if any(re[q] or im[q] for q in pivots if q != p):
            return f"row pivoting at {p} has an entry in another pivot column"
        if gcd(den, *re, *im) != 1:
            return f"row pivoting at {p} keeps a common factor"
    return None


def _is_combination(target, pivots, rows):
    """Whether ``target`` equals sum_k target[p_k] * rows_k exactly, over the
    common denominator lcm(dens)."""
    _, vre, vim = _parts(target)
    common = lcm(1, *(den for den, _, _ in rows))
    sre = [0] * len(vre)
    sim = [0] * len(vre)
    for (den, re, im), p in zip(rows, pivots):
        scale = common // den
        a, b = vre[p] * scale, vim[p] * scale
        if a or b:
            for c, (x, y) in enumerate(zip(re, im)):
                sre[c] += a * x - b * y
                sim[c] += a * y + b * x
    return [common * x for x in vre] == sre and [common * y for y in vim] == sim


def _rank_mod_p(rows, width):
    """Rank of the rows after sending i to a square root of -1 in GF(P);
    each row is scaled by its denominator, which keeps the rank."""
    work = [
        [(x + SQRT_MINUS_ONE * y) % P for x, y in zip(re, im)]
        for _, re, im in map(_parts, rows)
    ]
    rank = 0
    for col in range(width):
        lead = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if lead is None:
            continue
        work[rank], work[lead] = work[lead], work[rank]
        inverse = pow(work[rank][col], -1, P)
        top = [x * inverse % P for x in work[rank]]
        for r in range(rank + 1, len(work)):
            f = work[r][col]
            if f:
                work[r] = [(x - f * t) % P for x, t in zip(work[r], top)]
        rank += 1
    return rank


def _rref_fault(args, answer):
    rows, width = args
    pivots, out = answer
    reason = _not_canonical(pivots, out, width)
    if reason:
        return reason
    for row in rows:
        if not _is_combination(row, pivots, out):
            return "an input row is not the combination of the output rows"
    if _rank_mod_p(rows, width) != len(out):
        # Only an input whose minors P divides gets here with a correct
        # answer; the exact rank decides.
        exact = ref_rref([as_pairs(_parts(row)) for row in rows], width)[0]
        if len(exact) != len(out):
            return "the input's rank differs from the output's"
    return None


def _residual_fault(args, answer):
    pivots, rows, vec = args
    dr, rre, rim = _parts(answer)
    dv, vre, vim = _parts(vec)
    if any(rre[p] or rim[p] for p in pivots):
        return "the residual is not zero in a pivot column"
    moved = (
        dv * dr,
        [dr * x - dv * y for x, y in zip(vre, rre)],
        [dr * x - dv * y for x, y in zip(vim, rim)],
    )
    if not _is_combination(moved, pivots, rows):
        return "vec - residual is not in the span of the rows"
    return None


def _nullspace_fault(args, answer):
    pivots, rows, width = args
    out_pivots, out = answer
    reason = _not_canonical(out_pivots, out, width)
    if reason:
        return reason
    if len(out) != width - len(rows):
        return "the null space has the wrong dimension"
    for _, xre, xim in out:
        for _, mre, mim in rows:
            real = sum(a * x - b * y for a, b, x, y in zip(mre, mim, xre, xim))
            imag = sum(a * y + b * x for a, b, x, y in zip(mre, mim, xre, xim))
            if real or imag:
                return "an output row is not in the null space"
    return None


# Each kernel function with the certificate that finds what is wrong with
# one of its answers.
KERNEL = {
    "rref": _rref_fault,
    "residual": _residual_fault,
    "nullspace": _nullspace_fault,
}


class Rejected(Exception):
    """A kernel answer that fails its certificate."""


def _certify_kernel(monkeypatch, where):
    """Certify every answer of the three kernel functions, on a fresh memo.
    ``where[0]`` names the caller's current step; a rejection is recorded
    as a message that names it, the kernel function and its input, and is
    raised as :class:`Rejected`.  Returns the answer counts and the
    rejections, both filled in as the kernel runs."""
    counts = dict.fromkeys(KERNEL, 0)
    rejections = []

    def certified(name, fn):
        def wrapper(*args):
            if name == "rref":
                args = (list(args[0]), args[1])
            answer = fn(*args)
            counts[name] += 1
            reason = KERNEL[name](args, answer)
            if reason:
                rejections.append(
                    f"{where[0]}: {name} rejected ({reason}); input {args!r}"
                )
                raise Rejected(rejections[-1])
            return answer

        return wrapper

    monkeypatch.setattr("relcalc.subspaces._memo", {})
    for name in KERNEL:
        monkeypatch.setattr(_rowops, name, certified(name, getattr(_rowops, name)))
    return counts, rejections


def _certified_suite(monkeypatch, cfg):
    """Run the whole suite with every kernel answer certified.  Returns the
    report, or the first rejection as a message that names the check, the
    trial, the kernel function and its input."""
    where = ["setup"]
    trial_rng = verifier.trial_rng

    def tracking(seed, name, index):
        where[0] = f"check {name}, trial {index}"
        return trial_rng(seed, name, index)

    counts, rejections = _certify_kernel(monkeypatch, where)
    monkeypatch.setattr(verifier, "trial_rng", tracking)
    try:
        report = verify_suite(cfg)
    except InternalCheckError:
        if not rejections:
            raise
        return rejections[0], counts
    return report, counts


CFG = GenConfig(ambient_dim=4, trials=10, seed=1)


def test_every_caller_reaches_the_kernel_through_its_module():
    # Patching the module attributes covers a caller only if it looks the
    # function up on ``_rowops`` at call time.
    originals = {id(getattr(_rowops, name)) for name in KERNEL}
    bound = []
    for info in pkgutil.iter_modules(relcalc.__path__):
        module = importlib.import_module(f"relcalc.{info.name}")
        if module is _rowops:
            continue
        bound += [
            f"relcalc.{info.name}.{attr}"
            for attr, value in vars(module).items()
            if id(value) in originals
        ]
        if re.search(r"_rowops import", Path(module.__file__).read_text()):
            bound.append(f"relcalc.{info.name} imports from _rowops")
    assert not bound


def test_every_kernel_answer_of_a_suite_is_certified(monkeypatch):
    report, counts = _certified_suite(monkeypatch, CFG)
    assert isinstance(report, dict), report
    assert report["pass"]
    assert all(counts.values()), counts


def test_the_certificate_rejects_the_ledger_kernel_fault(monkeypatch):
    fault = LEDGER["eliminate_leaves_vim_unscaled"]
    _install(monkeypatch, fault.target, fault.make)
    rejection, _ = _certified_suite(monkeypatch, CFG)
    assert isinstance(rejection, str)
    assert rejection.startswith("check adjoint_hat_sum, trial 5: residual rejected")


def test_every_kernel_answer_of_the_golden_corpora_is_certified(
    tmp_path, monkeypatch, capsys
):
    # The CLI path: every entry of both manifests through ``cli.main``, each
    # on a fresh memo, so each makes all of its own kernel calls.  A
    # rejection raises out of ``cli.main``, which catches only library
    # errors.
    monkeypatch.chdir(GOLDEN)
    where = ["setup"]
    counts, _ = _certify_kernel(monkeypatch, where)
    for i, entry in enumerate(MANIFEST + EDGE):
        where[0] = f"entry {i} {entry['argv']}"
        subspaces._memo.clear()
        cli.main([*entry["argv"], "-o", str(tmp_path / "out.txt")])
        capsys.readouterr()
    assert all(counts.values()), counts


# Rows whose rank modulo P is below their rank over Q(i): (P, 1), (0, 1) has
# determinant P, and (1, i), (1, s) with s a square root of -1 modulo P
# has s - i, which i -> s sends to 0.
HOSTILE = [
    [(1, (P, 1), (0, 0)), (1, (0, 1), (0, 0))],
    [(1, (1, 0), (0, 1)), (1, (1, SQRT_MINUS_ONE), (0, 0))],
]


@pytest.mark.parametrize("rows", HOSTILE)
def test_the_certificate_accepts_rows_whose_minors_p_divides(rows):
    assert _rank_mod_p(rows, 2) < 2
    answer = _rowops.rref(rows, 2)
    assert len(answer[1]) == 2
    assert _rref_fault((rows, 2), answer) is None


def test_the_certificate_rejects_an_answer_larger_than_its_input():
    # Every input row is a combination of the claimed rows, so only the
    # rank, modulo P and then exact, sees the extra row.
    rows = [(1, (1, 1), (0, 0))]
    full = ([0, 1], [(1, (1, 0), (0, 0)), (1, (0, 1), (0, 0))])
    assert _rref_fault((rows, 2), full) == "the input's rank differs from the output's"


# Wider rows and larger entries than fuzz-d4's: the real dim-8 suite, whose
# widths reach 32, and one cold classify of each classify-wide document,
# whose widths reach 96.  d1500 takes seconds certified, so a 200-digit
# n = 4 document stands in for it.
D8_REAL = GenConfig(ambient_dim=8, trials=5, seed=1, complex_enabled=False)
WIDE = {
    **{name: DOCS[name] for name in ("r32", "c24", "c32", "r48")},
    "d200": (200, 4, True, 200),
}


def _certified_classify(monkeypatch, names):
    """Parse and classify each named document on a fresh memo, with every
    kernel answer certified.  Returns the first rejection, or ``None``, and
    the answer counts."""
    where = ["setup"]
    counts, rejections = _certify_kernel(monkeypatch, where)
    for name in names:
        where[0] = f"classify {name}"
        subspaces._memo.clear()
        try:
            classify(parse_document(json.dumps(document(*WIDE[name]))).payload)
        except Rejected:
            return rejections[0], counts
    return None, counts


def test_every_kernel_answer_of_a_real_dim_8_suite_is_certified(monkeypatch):
    report, counts = _certified_suite(monkeypatch, D8_REAL)
    assert isinstance(report, dict), report
    assert report["pass"]
    assert all(counts.values()), counts


@pytest.mark.parametrize("name", list(WIDE))
def test_every_kernel_answer_of_a_wide_classify_is_certified(monkeypatch, name):
    rejection, counts = _certified_classify(monkeypatch, [name])
    assert rejection is None
    assert counts["rref"] and counts["residual"], counts


# Past width 64 ``zeros`` hands out the shared width-64 tuple: every real row
# wider than that leaves the kernel with a short ``im``, which ``zip`` then
# cuts its ``re`` down to.  Of all the certified inputs only r32 and r48
# reach that branch, with real rows 96 wide; the fuzz suites, the golden
# corpora, c24, c32 and d200 are all accepted under it.  ``classify`` prints
# the same flags for r32 and r48 with the fault as without it, so only the
# certificate sees it.
ZEROS_CAPPED_AT_64 = _edit(("else (0,) * width", "else _ZEROS[-1]"))


def test_the_certificate_rejects_a_fault_only_wide_rows_reach(monkeypatch):
    monkeypatch.setattr(_rowops, "zeros", ZEROS_CAPPED_AT_64(_rowops.zeros))
    rejection, _ = _certified_classify(monkeypatch, list(WIDE))
    assert isinstance(rejection, str)
    assert rejection.startswith(
        "classify r32: rref rejected (row has a bad denominator or length)"
    )
    assert rejection.endswith(", 96)")
