"""Verifier harness: generators, determinism, coverage, self-test."""

import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import InternalCheckError, classify
from relcalc.cli import main
from relcalc.documents import serialize_document, wrap
from relcalc.verifier import (
    CHECKS,
    CLAIMS,
    EXCLUDED_CLAIMS,
    CheckSpec,
    GenConfig,
    _random_int_row,
    coverage_table,
    random_ic_triple,
    random_idempotent,
    random_relation,
    random_sub_idempotent,
    random_subspace,
    random_subspace_of_dim,
    random_super_idempotent,
    trial_rng,
    verify_suite,
)


def test_genconfig_validation():
    from relcalc import DimensionError, PreconditionError

    with pytest.raises(DimensionError):
        GenConfig(ambient_dim=9)
    with pytest.raises(PreconditionError):
        GenConfig(trials=-1)
    with pytest.raises(PreconditionError):
        GenConfig(max_entry=0)
    with pytest.raises(PreconditionError):
        GenConfig(extremality_samples=-3)


def test_trial_rng_is_deterministic_and_separated():
    a = trial_rng(1, "x", 0).random()
    b = trial_rng(1, "x", 0).random()
    c = trial_rng(1, "x", 1).random()
    d = trial_rng(1, "y", 0).random()
    e = trial_rng(2, "x", 0).random()
    assert a == b
    assert len({a, c, d, e}) == 4


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.one_of(
        st.integers(),
        st.integers(min_value=2**64, max_value=2**200),
        st.integers(max_value=-(2**64)),
    ),
    name=st.one_of(
        st.sampled_from(sorted(CHECKS)),
        st.text(),
        st.text(alphabet=":,é∩ℝ𝔼 \x00", max_size=8),
    ),
    index=st.integers(min_value=-(2**70), max_value=2**70),
)
def test_trial_rng_matches_the_hashlib_derivation(seed, name, index):
    # hashlib is the independent route: the stream must not depend on which
    # SHA-256 implementation the verifier loads.
    digest = hashlib.sha256(f"{seed}:{name}:{index}".encode()).digest()
    expected = random.Random(int.from_bytes(digest[:8], "big"))
    assert trial_rng(seed, name, index).getrandbits(64) == expected.getrandbits(64)


@pytest.mark.parametrize("e", [1, 2, 5, 7, 8, 1000, 2**40])
def test_random_int_row_draws_as_randint(e):
    # A passing report holds no input values, so its bytes cannot show a
    # changed stream; this compares the draws and the stream position with
    # a twin generator that calls randint.
    for seed in range(200):
        for complex_enabled in (True, False):
            cfg = GenConfig(max_entry=e, complex_enabled=complex_enabled)
            rng, twin = random.Random(seed), random.Random(seed)
            _, re, im = _random_int_row(rng, cfg, 5)
            assert re == tuple(twin.randint(-e, e) for _ in range(5))
            drawn = (0,) * 5
            if complex_enabled:
                drawn = tuple(twin.randint(-e, e) for _ in range(5))
            assert im == drawn
            assert rng.random() == twin.random()


def test_random_subspace_dims():
    cfg = GenConfig(ambient_dim=4, trials=1, seed=0)
    rng = trial_rng(0, "gen", 0)
    assert random_subspace_of_dim(rng, cfg, 0).is_zero()
    assert random_subspace_of_dim(rng, cfg, 4).dim == 4
    assert random_subspace_of_dim(rng, cfg, 2).dim == 2


def test_random_subspace_reproducible():
    cfg = GenConfig(ambient_dim=4, trials=1, seed=0)
    s1 = random_subspace(trial_rng(3, "g", 5), cfg)
    s2 = random_subspace(trial_rng(3, "g", 5), cfg)
    assert s1 == s2 and s1.key() == s2.key()


def test_class_generators_land_in_their_classes():
    cfg = GenConfig(ambient_dim=3, trials=1, seed=0)
    for i in range(25):
        rng = trial_rng(9, "classgen", i)
        assert classify(random_sub_idempotent(rng, cfg)).is_sub
        assert classify(random_super_idempotent(rng, cfg)).is_super
        assert classify(random_idempotent(rng, cfg)).is_idempotent
        t = random_ic_triple(rng, cfg)
        assert t.m.sum_with(t.n).intersect(t.s) == t.m.intersect(t.n)


def test_random_relation_rectangular_round_trip():
    cfg = GenConfig(ambient_dim=4, trials=1, seed=0)
    rng = trial_rng(4, "rect", 0)
    t = random_relation(rng, cfg, 3, 2)
    assert t.dim_in == 3 and t.dim_out == 2
    from relcalc.documents import parse_document

    assert parse_document(serialize_document(wrap(t))).payload == t


def test_report_bytes_are_stable():
    cfg = GenConfig(ambient_dim=3, trials=3, seed=123)
    r1 = verify_suite(cfg)
    r2 = verify_suite(cfg)
    b1 = serialize_document(wrap(r1))
    b2 = serialize_document(wrap(r2))
    assert b1 == b2
    assert r1["pass"]


# Criterion-9 across commits: the SHA-256 of the report bytes of fixed
# suites.  A passing report holds the check names, the trial counts, the
# outcomes, the config echo, the coverage table and the document format,
# and these digests pin exactly that.  It holds no computed value, so a
# change to the generators' draws need not move them; ``DRAWS_DIGEST`` pins
# the values.
REPORT_DIGESTS = [
    (
        {"ambient_dim": 4, "trials": 30, "seed": 1},
        "13e41fc0c07848916c240b43a5bbc53185a476558419c8ed143e12746a47d5b6",
    ),
    (
        {"ambient_dim": 8, "trials": 14, "seed": 1, "complex_enabled": False},
        "f92c93e45402ffe8ef5482683ec1cd74a4fb80a6dfb2e80a0672b95d110052fa",
    ),
]


@pytest.mark.parametrize(("config", "digest"), REPORT_DIGESTS)
def test_report_digests_are_pinned(config, digest):
    report = verify_suite(GenConfig(**config))
    text = serialize_document(wrap(report))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# SHA-256 over the documents of every value the ``random_*`` generators
# return during the suites of ``REPORT_DIGESTS``, one JSON line each, in
# the order they are drawn.  It moves when a draw or a generator's
# canonical output moves, and not when a production route changes.
DRAWS_DIGEST = "e14c86842313b3b5a64914e6b8999d7a390d42cf1d9a5059987c2be8ff450d38"


def test_draws_digest_is_pinned(monkeypatch):
    from relcalc import checks, verifier

    digest = hashlib.sha256()
    count = 0

    def recording(fn):
        def wrapper(*args, **kwargs):
            nonlocal count
            value = fn(*args, **kwargs)
            text = json.dumps(verifier._doc(value), sort_keys=True)
            digest.update(text.encode() + b"\n")
            count += 1
            return value

        return wrapper

    # The generators call one another through ``verifier``'s globals, and
    # the checks through their own imported names.
    for module in (verifier, checks):
        for name in dir(module):
            if name.startswith("random_"):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, recording(fn))
    for config, _ in REPORT_DIGESTS:
        verify_suite(GenConfig(**config))
    assert count == 5845
    assert digest.hexdigest() == DRAWS_DIGEST


def test_report_structure():
    cfg = GenConfig(ambient_dim=2, trials=2, seed=0)
    d = verify_suite(cfg, ["subspace_demorgan"])
    assert d["pass"] is True
    assert d["config"]["ambient_dim"] == 2
    (entry,) = d["checks"]
    assert entry["name"] == "subspace_demorgan"
    assert entry["trials"] == 2
    assert entry["failures"] == 0
    assert entry["counterexample"] is None
    assert isinstance(d["coverage"], list)


def test_corrupted_check_reports_counterexample():
    # a deliberately wrong transcription must fail with a counterexample
    name = "deliberately_wrong_demorgan"

    def wrong(rng, cfg):
        from relcalc.verifier import ce

        s1 = random_subspace(rng, cfg)
        s2 = random_subspace(rng, cfg)
        if s1.sum_with(s2).perp() != s1.perp().sum_with(s2.perp()):
            return ce("mutated identity failed as expected", s1=s1, s2=s2)
        return None

    CHECKS[name] = CheckSpec(name, wrong, ("self-test",))
    try:
        cfg = GenConfig(ambient_dim=3, trials=30, seed=5)
        report = verify_suite(cfg, [name])
        assert not report["pass"]
        (entry,) = report["checks"]
        assert entry["failures"] > 0
        assert entry["counterexample"] is not None
        assert "inputs" in entry["counterexample"]
        # the counterexample serializes cleanly
        json.dumps(entry["counterexample"])
    finally:
        del CHECKS[name]


@pytest.mark.parametrize("error", [ZeroDivisionError, InternalCheckError])
def test_raising_check_is_attributed(error, capsys):
    # an exception escaping a check names the check and the trial, exit 5
    name = "deliberately_raising"
    calls = []

    def raising(rng, cfg):
        calls.append(rng)
        if len(calls) == 2:  # the second trial, index 1
            raise error("raised on purpose")
        return None

    CHECKS[name] = CheckSpec(name, raising, ("self-test",))
    try:
        code = main(["fuzz", "--dim", "2", "--trials", "3", "--checks", name])
    finally:
        del CHECKS[name]
    captured = capsys.readouterr()
    assert code == 5
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["code"] == 5
    assert record["context"] == {"check": name, "trial": 1}
    assert "raised on purpose" in record["message"]


def test_every_claim_is_covered():
    table = coverage_table()
    by_claim = {row["claim"]: row for row in table}
    for claim in CLAIMS:
        assert by_claim[claim]["checks"], f"claim {claim} has no check"
    for claim in EXCLUDED_CLAIMS:
        assert by_claim[claim]["checks"] == "out-of-scope"
    # and every check claims something tracked
    for name, spec in CHECKS.items():
        for claim in spec.claims:
            assert claim in CLAIMS, f"check {name} references unknown claim {claim}"


def test_selected_unknown_check_rejected():
    from relcalc import PreconditionError

    with pytest.raises(PreconditionError):
        verify_suite(GenConfig(trials=1), ["nonexistent"])


def test_zero_trials_runs_nothing():
    report = verify_suite(GenConfig(trials=0), ["subspace_demorgan"])
    assert report["checks"][0]["trials"] == 0
    assert report["pass"]
