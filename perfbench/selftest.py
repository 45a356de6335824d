"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

Not collected by the repository's test suite (``testpaths = ["tests"]``).
It checks that tracing is invisible to the program and that nothing was
missed:

* on a small configuration the traced fuzz report is byte-identical to the
  untraced one;
* ``rowops.rref`` calls and cells repeat exactly across two fresh traced
  processes;
* the full tracer counts exactly as many ``rref`` calls as a tracer that
  wraps ``_rowops.rref`` alone, so no binding was missed and no cache was
  perturbed;
* every per-layer metric in ``BENCHMARK.json`` names a traced span and a
  known statistic;
* the correctness checks reject wrong answers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from analyze import SpanStats, load  # noqa: E402

SMALL = ["fuzz", "--dim", "4", "--trials", "6", "--seed", "7"]


def _traced_counts(runner, tmp: Path, tag: str, only=None):
    spans = tmp / tag
    report = tmp / f"{tag}-report.json"
    cmd = [sys.executable, str(HERE / "tracer.py"), str(spans)]
    if only:
        cmd += ["--only", only]
    child = runner.spawn(cmd + ["--", *SMALL, "-o", str(report)], tag)
    assert child.code == 0, child.err
    stats = SpanStats()
    stats.add(load(str(spans)))
    return stats, report.read_bytes()


def _tmpdir() -> Path:
    run.WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))


def _with_tmp(fn):
    def test():
        tmp = _tmpdir()
        try:
            fn(run.Runner(tmp), tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    test.__name__ = fn.__name__
    return test


@_with_tmp
def test_tracing_is_invisible_and_complete(runner, tmp):
    report = tmp / "plain.json"
    child = runner.cli([*SMALL, "-o", str(report)], "plain")
    assert child.code == 0, child.err
    plain = report.read_bytes()

    first, first_bytes = _traced_counts(runner, tmp, "t1")
    second, second_bytes = _traced_counts(runner, tmp, "t2")
    alone, alone_bytes = _traced_counts(runner, tmp, "t3", only="rowops.rref")

    assert first_bytes == plain, "traced report differs from the untraced one"
    assert second_bytes == plain and alone_bytes == plain
    for stat in ("calls", "cells"):
        assert first.value("rowops.rref", stat) == second.value("rowops.rref", stat)
    calls = first.value("rowops.rref", "calls")
    assert calls > 0
    assert calls == alone.value("rowops.rref", "calls"), (
        calls, alone.value("rowops.rref", "calls"))
    assert first.value("rowops.rref", "cells") == alone.value("rowops.rref", "cells")


def test_per_layer_names_are_traced():
    import tracer

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spans = {t[2] for t in tracer.TARGETS} | {"verifier.generators"}
    sys.path.insert(0, str(run.SRC))
    from relcalc.verifier import CHECKS

    spans |= {f"checks.{name}" for name in CHECKS}
    stats = SpanStats()
    for metric in spec["per_layer"]:
        if metric["name"] == "trace.overhead":
            continue
        span, stat = metric["name"].rsplit(".", 1)
        assert span in spans, metric["name"]
        stats.value(span, stat)  # raises on an unknown statistic
    checks = {m["name"] for m in spec["per_layer"] if m["name"].startswith("checks.")}
    assert checks == {f"checks.{name}.s" for name in CHECKS}
    assert [m["name"] for m in spec["end_to_end"]] == list(
        run.end_to_end(1.0, run.Passes([1.0], [1.0] * 11), 1.0)[0])


def test_correctness_checks_reject_wrong_answers():
    from climix import Op, check_result

    op = Op("parts", ["parts", "x"], "out", 0, {"graph_dim": 1}, True)
    assert check_result(op, 0, '{"graph_dim": 1}', "") is None
    assert check_result(op, 0, '{"graph_dim": 2}', "") is not None
    assert check_result(op, 3, None, '{"code": 3}') is not None
    err = Op("compose", ["compose"], "out", 3, None, False)
    assert check_result(err, 3, None, '{"code": 3, "message": "m"}\n') is None
    assert check_result(err, 3, None, "Traceback ...") is not None
    assert check_result(err, 3, "doc", '{"code": 3}') is not None

    tmp = _tmpdir()
    try:
        report = tmp / "r.json"
        report.write_text(json.dumps({"pass": False, "checks": [
            {"name": "c", "trials": 2, "failures": 1}]}))
        assert run.check_report(0, report, "")[0] is not None
        report.write_text(json.dumps({"pass": True, "checks": [
            {"name": "c", "trials": 2, "failures": 0}]}))
        assert run.check_report(0, report, "")[0] is None
        assert run.check_report(5, report, "")[0] is not None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def test_tail_percentile():
    pct, value = run.tail([float(x) for x in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
    pct, value = run.tail([float(x) for x in range(1, 12)])
    assert value == 1.0


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
