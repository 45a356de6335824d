"""The value layer's memo: bounded, by value, and blind to the collector."""

import json
import os
import subprocess
import sys
from pathlib import Path

from relcalc import LinearRelation, Subspace, classify, subspaces

SRC = Path(subspaces.__file__).resolve().parent.parent

# Runs one small fuzz suite in a fresh interpreter with ``_rowops.rref``
# counted; ``gc`` either never runs or runs before every trial.
COUNT_SCRIPT = """
import gc
import json
import sys

from relcalc import _rowops, verifier
from relcalc.documents import serialize_document, wrap

calls = 0
rref = _rowops.rref


def counted(rows, width):
    global calls
    calls += 1
    return rref(rows, width)


_rowops.rref = counted
if sys.argv[1] == "disable":
    gc.disable()
else:
    trial_rng = verifier.trial_rng

    def collecting(*args):
        gc.collect()
        return trial_rng(*args)

    verifier.trial_rng = collecting
cfg = verifier.GenConfig(ambient_dim=4, trials=3, seed=1)
report = serialize_document(wrap(verifier.verify_suite(cfg).json_dict()))
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
    # A work budget, not a timing: the count depends on no machine, so a
    # change that brings back the exact work the read-offs and the lattice
    # shortcuts save fails here.
    assert 0 < quiet["calls"] <= 1600
    assert quiet["calls"] == collected["calls"]
    assert quiet["report"] == collected["report"]


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
