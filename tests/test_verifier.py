"""Verifier harness: generators, determinism, coverage, self-test."""

import json

import pytest

from relcalc import InternalCheckError, classify
from relcalc.cli import main
from relcalc.documents import serialize_document, wrap
from relcalc.verifier import (
    CHECKS,
    CLAIMS,
    EXCLUDED_CLAIMS,
    CheckSpec,
    GenConfig,
    coverage_table,
    random_ic_triple,
    random_idempotent,
    random_relation,
    random_sub_idempotent,
    random_subspace,
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


def test_trial_rng_is_deterministic_and_separated():
    a = trial_rng(1, "x", 0).random()
    b = trial_rng(1, "x", 0).random()
    c = trial_rng(1, "x", 1).random()
    d = trial_rng(1, "y", 0).random()
    e = trial_rng(2, "x", 0).random()
    assert a == b
    assert len({a, c, d, e}) == 4


def test_random_subspace_dims():
    cfg = GenConfig(ambient_dim=4, trials=1, seed=0)
    rng = trial_rng(0, "gen", 0)
    assert random_subspace(rng, cfg, dim=0).is_zero()
    assert random_subspace(rng, cfg, dim=4).dim == 4
    assert random_subspace(rng, cfg, dim=2).dim == 2


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
    b1 = serialize_document(wrap(r1.json_dict()))
    b2 = serialize_document(wrap(r2.json_dict()))
    assert b1 == b2
    assert r1.passed


def test_report_structure():
    cfg = GenConfig(ambient_dim=2, trials=2, seed=0)
    report = verify_suite(cfg, ["subspace_demorgan"])
    d = report.json_dict()
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
        assert not report.passed
        (entry,) = report.checks
        assert entry.failures > 0
        assert entry.counterexample is not None
        assert "inputs" in entry.counterexample
        # the counterexample serializes cleanly
        json.dumps(entry.counterexample)
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
    assert report.checks[0].trials == 0
    assert report.passed
