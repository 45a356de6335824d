"""The value layer's memo: bounded, by value, and blind to the collector."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from relcalc import LinearRelation, Subspace, classify, subspaces

SRC = Path(subspaces.__file__).resolve().parent.parent

# Runs one small fuzz suite in a fresh interpreter with ``_rowops.rref`` and
# ``_rowops.residual`` counted; ``gc`` either never runs or runs before
# every trial.
COUNT_SCRIPT = """
import gc
import json
import sys

from relcalc import _rowops, verifier
from relcalc.documents import serialize_document, wrap

calls = {"rref": 0, "residual": 0}


def counted(name):
    fn = getattr(_rowops, name)

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


_rowops.rref = counted("rref")
_rowops.residual = counted("residual")
if sys.argv[1] == "disable":
    gc.disable()
else:
    trial_rng = verifier.trial_rng

    def collecting(*args):
        gc.collect()
        return trial_rng(*args)

    verifier.trial_rng = collecting
cfg = verifier.GenConfig(ambient_dim=4, trials=3, seed=1)
report = serialize_document(wrap(verifier.verify_suite(cfg)))
print(json.dumps({"calls": calls, "report": report}))
"""


def _counted_run(mode):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", COUNT_SCRIPT, mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_work_does_not_depend_on_the_collector():
    quiet = _counted_run("disable")
    collected = _counted_run("collect")
    # Work budgets, not timings: the counts depend on no machine, so a
    # change that brings back the exact work the read-offs and the lattice
    # shortcuts save fails here.
    assert 0 < quiet["calls"]["rref"] <= 1600
    assert 0 < quiet["calls"]["residual"] <= 1300
    assert quiet["calls"] == collected["calls"]
    assert quiet["report"] == collected["report"]


def test_eviction_never_changes_an_answer(monkeypatch):
    # A bound of 1 evicts on every store, so each cached value is rebuilt
    # from scratch; the report bytes must not see the difference.
    from relcalc import verifier
    from relcalc.documents import serialize_document, wrap

    cfg = verifier.GenConfig(ambient_dim=4, trials=3, seed=1)
    reports = []
    for bound in (1, 64, subspaces.MEMO_BOUND):
        monkeypatch.setattr(subspaces, "MEMO_BOUND", bound)
        subspaces._memo.clear()
        report = verifier.verify_suite(cfg)
        assert len(subspaces._memo) <= bound
        reports.append(serialize_document(wrap(report)))
    assert reports[0] == reports[1] == reports[2]


def test_pickles_hash_alike_in_another_process():
    # An unpickled value is rebuilt through its constructor, so its hash
    # is recomputed from its rows.
    script = (
        "import pickle, sys\n"
        "from relcalc import LinearRelation\n"
        "sys.stdout.buffer.write(pickle.dumps(LinearRelation.identity(2)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    back = pickle.loads(done.stdout)
    here = LinearRelation.identity(2)
    assert back == here and hash(back) == hash(here)
    assert hash(back.graph) == hash(here.graph)


def test_hashes_are_the_same_in_every_process():
    # A row holds only integers, and a real row's im is a tuple of zeros,
    # so a value hashes alike in every interpreter process.
    script = (
        "from relcalc import LinearRelation, Subspace\n"
        "print(hash(Subspace.full(3)), hash(LinearRelation.identity(2)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    there = [int(x) for x in done.stdout.split()]
    assert there == [hash(Subspace.full(3)), hash(LinearRelation.identity(2))]


def _relation():
    return LinearRelation.from_generators(
        [([1, 0, 2], [1, 0, 2]), ([0, 1, 0], [0, 0, 0]), ([0, 0, 1], [3, 1, 1])],
        3,
        3,
    )


def test_memo_is_bounded_and_flushes_keep_values(monkeypatch):
    bound = 64
    monkeypatch.setattr(subspaces, "MEMO_BOUND", bound)
    early = _relation()
    early_parts = early.parts()
    early_class = classify(early)
    early_perp = early.graph.perp()
    for k in range(300):
        Subspace.span([[1, k, k * k, 1 - k]], 4).perp()
        assert len(subspaces._memo) <= bound
    again = _relation()
    assert again is not early
    assert again == early
    assert hash(again) == hash(early)
    assert again.graph == early.graph and hash(again.graph) == hash(early.graph)
    assert again.parts() == early_parts == early.parts()
    assert again.graph.perp() == early_perp == early.graph.perp()
    assert classify(again) == early_class == classify(early)
    assert len(subspaces._memo) <= bound
