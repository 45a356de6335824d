"""Golden CLI corpus: the cli-cold operation mixes of seeds 1-3, replayed.

``tests/golden/seed{1,2,3}/`` hold the input documents of the benchmark's
cli-cold mixes (``perfbench/climix.py`` ``build_mix``): 72 operations that
cover every subcommand, every ``build`` form, both triple kinds, and the
inputs that exit 2, 3 and 4.  ``manifest.json`` records, for each, the argv
(input paths relative to ``tests/golden``), the exit code and the SHA-256 of
stdout, stderr and the ``-o`` output file (``null`` when none is written).

The operations run in-process through ``relcalc.cli.main``.  ``angles``
prints floats, so its output file is not hashed: the manifest holds the
record, whose dimensions, ``intersection_dim`` and ``tol`` must match
exactly and whose two cosines must match to 1e-12.

``tests/golden/edge/`` holds hand-written documents and their own manifest,
in the same format: dims 0, 1 and 2, real and complex entries, zero and full
spaces, rectangular 0->1, 1->0, 1->2 and 2->1 relations and both triple
kinds, under every subcommand and every ``build``, ``triple``,
``convert-triple`` and ``ic`` form, ``angles`` of subspaces that meet and of
span{(1, 0, 10^20), (0, 1, 10^20)}, whose rows, each scaled by its largest
entry, differ by 10^-20, plus the refusals that no other test
reaches: ``build`` with the wrong number of files, a top-level JSON array, a
string for a basis vector, a list for a triple component (exit 2) and a
triple component of another ambient (exit 3).  Its values were checked by
hand; for example, the full 0->1 relation composed after the full 1->0 one is
the full 1->1 relation, and span{e1, e2} against span{e1, e2 + e3} in Q^3
meets in span{e1}, so its Dixmier cosine is 1 and its Friedrichs cosine, the
angle of e2 with the plane, is 1/sqrt(2).  The 10^20 plane meets span{e1}
at 1/sqrt(2) and span{e1, e2} in span{(1, -1, 0)}, with Friedrichs cosine
sqrt(2) / sqrt(2 + 4 * 10^40), the cosine of (1, 1, 2 * 10^20) with that plane.
"""

import hashlib
import json
from pathlib import Path

import pytest

from relcalc import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))
EDGE = json.loads((GOLDEN / "edge" / "manifest.json").read_text(encoding="utf-8"))
COSINES = ("dixmier_cos", "friedrichs_cos")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_corpus_covers_the_mix():
    assert len(MANIFEST) == 72
    kinds = {entry["kind"] for entry in MANIFEST}
    assert {"angles", "triple", "ic", "parse-error", "shape-error"} <= kinds
    assert {entry["exit"] for entry in MANIFEST} == {0, 2, 3, 4}


def test_edge_corpus_covers_every_form():
    from relcalc.cli import _SUBCOMMANDS

    assert {entry["argv"][0] for entry in EDGE} == set(_SUBCOMMANDS)
    kinds = {entry["kind"] for entry in EDGE}
    assert {f"build-{form}" for form in ("pmn", "pmns", "min", "max")} <= kinds
    assert {"kernel", "range"} <= {
        entry["argv"][-1] for entry in EDGE if entry["kind"] == "triple"
    }
    assert {entry["exit"] for entry in EDGE if entry["kind"] == "ic"} == {0, 4}
    # S meet T != 0, where the Friedrichs cosine differs from the Dixmier one.
    assert any(
        entry["output"]["intersection_dim"] > 0
        for entry in EDGE
        if entry["kind"] == "angles" and entry["exit"] == 0
    )
    assert {entry["exit"] for entry in EDGE} == {0, 2, 3, 4}
    triples = [
        json.loads((GOLDEN / entry["argv"][1]).read_text(encoding="utf-8"))
        for entry in EDGE
        if entry["kind"] == "convert-triple"
    ]
    assert {"m" in doc for doc in triples} == {True, False}


def replay(manifest, tmp_path, capsys):
    """The entries whose exit code or hashes differ, with what they gave."""
    differ = []
    for i, entry in enumerate(manifest):
        out = tmp_path / f"out{i:03d}.txt"
        code = cli.main([*entry["argv"], "-o", str(out)])
        captured = capsys.readouterr()
        got = {
            "exit": code,
            "stdout": _sha(captured.out.encode()),
            "stderr": _sha(captured.err.encode()),
            "output": None,
        }
        if out.exists():
            got["output"] = _sha(out.read_bytes())
            if entry["kind"] == "angles":
                record = json.loads(out.read_text(encoding="utf-8"))
                want = entry["output"]
                for key in COSINES:
                    assert record.pop(key) == pytest.approx(want[key], abs=1e-12)
                assert record == {k: v for k, v in want.items() if k not in COSINES}
                got["output"] = want
        want = {key: entry[key] for key in got}
        if got != want:
            differ.append((i, entry["argv"], got, want))
    return differ


def test_golden_corpus_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert not replay(MANIFEST, tmp_path, capsys)


def test_edge_corpus_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)
    assert not replay(EDGE, tmp_path, capsys)
