"""The value layer's memo: bounded, by value, blind to the collector, and
held to the functions whose cache was measured to pay."""

import ast
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

from relcalc import LinearRelation, Subspace, classify, subspaces

SRC = Path(subspaces.__file__).resolve().parent.parent

# The functions decorated with ``memoized``, each with the measured reason it
# pays.  Each was removed alone and ``verify_suite`` run at dim 4, 30 trials,
# seeds 1 / 2 / 3, on a fresh memo; with all seven the suites make 7,301 /
# 7,601 / 7,820 ``rref`` and 7,948 / 8,314 / 9,313 ``residual`` calls (the
# reasons below were measured when they made 7,958 / 8,284 / 8,569 and
# 8,229 / 8,557 / 9,629).  CPU is the median ratio without/with of the
# suite's in-process CPU time over alternating pairs at seed 1.  A function
# whose kernel work is cached below it is not cached: ``adjoint`` reads off
# ``inverse`` and ``perp``, and ``semi_projection`` sums through ``_sum``;
# without their two memos the suites make 56 / 46 / 35 fewer ``rref`` calls.
MEMOIZED = {
    "Subspace.perp": "rref calls 8,730 / 9,016 / 9,318 without it (+8-10 %)",
    "_sum": (
        "rref calls 8,544 / 8,858 / 9,171 (+7 %) and residual calls 9,702 / "
        "9,850 / 10,944 (+14-18 %) without it"
    ),
    "LinearRelation.parts": (
        "no kernel call saved (rref 7,951 / 8,272 / 8,556 without it), but "
        "CPU 1.104 without it, slower in 11 of 12 pairs: each of dom, ran, "
        "ker and mul would read off both graphs again"
    ),
    "LinearRelation.inverse": "rref calls 8,301 / 8,595 / 8,901 without it (+4 %)",
    "LinearRelation.one_minus": (
        "residual calls 9,002 / 9,308 / 10,306 without it (+7-9 %); CPU 1.021"
    ),
    "square": (
        "rref calls 8,060 / 8,384 / 8,665 (+1 %) and residual calls 8,638 / "
        "8,980 / 10,003 (+4-5 %) without it"
    ),
    "classify": (
        "residual calls 8,353 / 8,710 / 9,734 without it (+1-2 %), since "
        "the triples and the checks classify the same relation again; CPU "
        "1.001, inside the noise"
    ),
}


def memoized_functions(paths):
    """``Class.method`` or ``function`` for each function in ``paths`` that
    carries the ``memoized`` decorator."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [("", tree.body)] + [
            (f"{node.name}.", node.body)
            for node in tree.body
            if isinstance(node, ast.ClassDef)
        ]
        for prefix, body in scopes:
            for fn in body:
                if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(d, ast.Name) and d.id == "memoized"
                    for d in fn.decorator_list
                ):
                    found.append(prefix + fn.name)
    return found


def test_every_memo_has_a_measured_reason():
    modules = sorted((SRC / "relcalc").glob("*.py"))
    assert sorted(memoized_functions(modules)) == sorted(MEMOIZED)

# Runs a dim-4, seed-1 fuzz suite of the given number of trials in a fresh
# interpreter (so on a fresh memo) with ``_rowops.rref`` and
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
cfg = verifier.GenConfig(ambient_dim=4, trials=int(sys.argv[2]), seed=1)
report = serialize_document(wrap(verifier.verify_suite(cfg)))
print(json.dumps({"calls": calls, "report": report}))
"""


def _counted_run(mode, trials=3):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", COUNT_SCRIPT, mode, str(trials)],
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


def test_kernel_work_is_pinned():
    # The work of the criterion-1 shape at 30 trials.  A change that moves
    # the kernel's work fails here until it re-pins the counts in the open.
    calls = _counted_run("disable", trials=30)["calls"]
    assert calls == {"rref": 7_301, "residual": 7_948}


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
