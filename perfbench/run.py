"""The relcalc benchmark: fresh ``relcalc`` processes, one at a time.

    python3 perfbench/run.py --workload fuzz-d4 --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, at most one child process running):

* ``fuzz-d4``       ``relcalc fuzz --dim 4`` with complex entries, all checks;
* ``cli-cold``      a seeded mix of single subcommands on 2..8-dimensional
                    documents, each in a fresh process;
* ``fuzz-d8-real``  ``relcalc fuzz --dim 8 --real``, all checks.  Not listed
                    in ``BENCHMARK.json``: run it by hand for changes to the
                    row kernel's real path (see README.md).

Times are CPU time (user + system) of the child process, read from
``wait4``.  For one single-threaded child on an idle machine that equals
its wall time; on a shared host it leaves out the time the host takes the
virtual CPU away, which wall time would count.  Children run with one BLAS
thread so that no helper thread competes with the program for the cores.
The speed of a shared host's CPU still drifts by a quarter or more over
minutes, so every time is scaled by ``REF_NOMINAL_S`` over the median CPU
time of ``reference.py``, a fixed job run between the measured processes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (``tracer.py``) and prints the per-layer metrics,
the tracing overhead and a summary of which layer and check own the time.
The metric names and units come from ``BENCHMARK.json`` at the repository
root.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
output was wrong and 2 when the program or its description is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from analyze import SpanStats, load
from climix import build_mix, check_result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# The console script ``relcalc`` is ``relcalc.cli:main``; run it the same way.
CLI = "import sys; from relcalc.cli import main; sys.exit(main())"
SETUP_PROBE = ("import resource; import relcalc.cli; "
               "ru = resource.getrusage(resource.RUSAGE_SELF); "
               "print(ru.ru_utime + ru.ru_stime); print(relcalc.cli.__file__)")

FUZZ = {
    "fuzz-d4": ["--dim", "4", "--trials", "30"],
    "fuzz-d8-real": ["--dim", "8", "--real", "--trials", "14"],
}
WORKLOADS = (*FUZZ, "cli-cold")
SETUP_EVERY_OP = 4         # cli-cold: one set-up probe per four operations
MIN_FUZZ_SUITES = 15       # op_tail_ms: at least ten samples beyond it
# CPU seconds of one reference.py job at the speed the reported times are
# scaled to: its median on the machine the README's baseline comes from.
REF_NOMINAL_S = 0.35
DEADLINE_S = 170.0


class Missing(Exception):
    """The program or the benchmark description is not in the checkout."""


def child_env() -> dict:
    """The caller's environment, with relcalc taken from this checkout and
    numpy's BLAS kept to the calling thread."""
    return {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}


class Child(NamedTuple):
    """What one finished child left: wall and CPU seconds, exit code, peak
    RSS in KiB, and its stdout and stderr text."""

    wall: float
    cpu: float
    code: int
    rss_kib: int
    out: str
    err: str


class Runner:
    """Spawns children one at a time and keeps the run inside its deadline."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.started = time.monotonic()
        self.warm = False
        self.setup_samples: list[float] = []
        self.ref_samples: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, cmd: list[str], tag: str) -> Child:
        """Run ``cmd`` to completion."""
        out_path = self.workdir / f"{tag}.out"
        err_path = self.workdir / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                     usage.ru_maxrss,
                     out_path.read_text(encoding="utf-8", errors="replace"),
                     err_path.read_text(encoding="utf-8", errors="replace"))

    def cli(self, args: list[str], tag: str = "cli") -> Child:
        return self.spawn([sys.executable, "-c", CLI, *args], tag)

    def traced(self, spans: Path, args: list[str], tag: str = "traced") -> Child:
        return self.spawn([sys.executable, str(HERE / "tracer.py"), str(spans),
                           "--", *args], tag)

    def probe_setup(self):
        """One sample of the CPU time a fresh interpreter spends until
        ``relcalc.cli`` is imported, and one of the reference job's CPU
        time; the first call is a warm-up."""
        ref = self.spawn([sys.executable, str(HERE / "reference.py")], "ref")
        if ref.code != 0 or not ref.out.strip().isdigit():
            raise RuntimeError(f"reference job failed: {ref.err.strip()}")
        child = self.spawn([sys.executable, "-c", SETUP_PROBE], "setup")
        lines = child.out.split()
        if child.code != 0 or len(lines) != 2:
            raise RuntimeError(f"relcalc.cli does not import: {child.err.strip()}")
        if not Path(lines[1]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"imported relcalc from {lines[1]}, not {SRC}")
        if self.warm:
            self.setup_samples.append(float(lines[0]))
            self.ref_samples.append(ref.cpu)
        self.warm = True

    def speed(self) -> float:
        """The factor that scales this run's CPU times to the nominal
        speed: above 1 when the host ran faster than nominal."""
        return REF_NOMINAL_S / statistics.median(self.ref_samples)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    sample at that percentile."""
    ordered = sorted(samples)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError("fewer than eleven samples have no tail percentile")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def end_to_end(setup: float, res: "Passes", speed: float) -> tuple[dict, float]:
    """The end-to-end metrics, with every time multiplied by ``speed``, and
    the percentile op_tail_ms stands for."""
    pct, tail_s = tail(res.op_times)
    suite = speed * statistics.median(res.pass_times)
    return {
        "setup_s": speed * setup,
        "suite_s": suite,
        "trials_per_s": res.trials / suite,
        "op_p50_ms": 1000.0 * speed * statistics.median(res.op_times),
        "op_tail_ms": 1000.0 * speed * tail_s,
        "ops_per_s": len(res.op_times) / (speed * sum(res.op_times)),
        "peak_rss_mb": res.rss_kib / 1024.0,
    }, pct


# -- fuzz workloads ----------------------------------------------------------


def check_report(code: int, report: Path, err: str) -> tuple[str | None, str, int]:
    """(problem or None, SHA-256 of the report bytes, trials run)."""
    if code != 0:
        return f"exit {code}: {err.strip()[-300:]}", "", 0
    try:
        data = report.read_bytes()
        doc = json.loads(data)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}", "", 0
    digest = hashlib.sha256(data).hexdigest()
    trials = sum(c["trials"] for c in doc.get("checks", []))
    if doc.get("pass") is not True:
        return "report does not pass", digest, trials
    bad = [c["name"] for c in doc["checks"] if c["failures"] != 0]
    if bad or not doc["checks"]:
        return f"failures in {', '.join(bad) or 'an empty report'}", digest, trials
    return None, digest, trials


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)


@dataclass
class Passes:
    """What one run measured.  A pass is one fuzz suite, or one walk through
    the cli-cold mix; an op is one relcalc invocation.  ``*_times`` are CPU
    seconds, ``*_walls`` wall seconds."""

    pass_times: list = field(default_factory=list)
    op_times: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    trials: int = 0
    rss_kib: int = 0


def run_fuzz(runner: Runner, workload: str, seed: int, seconds: float,
             trace: bool, tally: Tally) -> Passes:
    report = runner.workdir / "report.json"
    first_digest = None
    res = Passes()

    def suite(spans: Path | None) -> Child:
        nonlocal first_digest
        report.unlink(missing_ok=True)
        args = ["fuzz", *FUZZ[workload], "--seed", str(seed), "-o", str(report)]
        if spans is None:
            child = runner.cli(args)
        else:
            child = runner.traced(spans, args)
        problem, digest, trials = check_report(child.code, report, child.err)
        res.trials = max(res.trials, trials)
        if problem is None:
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                problem = "report bytes differ from the first run of this seed"
        tally.record(problem)
        res.rss_kib = max(res.rss_kib, child.rss_kib)
        return child

    t0 = time.monotonic()
    while runner.remaining() > 0:
        if not trace:
            runner.probe_setup()
        child = suite(None)
        res.pass_times.append(child.cpu)
        res.pass_walls.append(child.wall)
        if trace:
            spans = runner.workdir / f"spans{len(res.traced_times)}"
            child = suite(spans)
            res.traced_times.append(child.cpu)
            res.traced_walls.append(child.wall)
            stats = SpanStats()
            stats.add(load(str(spans)))
            res.stats.append(stats)
        done = time.monotonic() - t0 >= seconds
        if done and (trace or len(res.pass_times) >= MIN_FUZZ_SUITES):
            break
    res.op_times = res.pass_times
    return res


# -- cli-cold workload ---------------------------------------------------------


def run_cli(runner: Runner, seed: int, seconds: float, trace: bool,
            tally: Tally) -> Passes:
    inputs = runner.workdir / "inputs"
    inputs.mkdir()
    mix = build_mix(seed, inputs)
    res = Passes(trials=len(mix))

    def one_pass(traced: bool):
        cpu = wall = 0.0
        stats = SpanStats()
        for i, op in enumerate(mix):
            out = Path(op.out)
            out.unlink(missing_ok=True)
            if traced:
                spans = runner.workdir / f"op{i}"
                child = runner.traced(spans, op.argv)
                stats.add(load(str(spans)))
            else:
                if i % SETUP_EVERY_OP == 0:
                    runner.probe_setup()
                child = runner.cli(op.argv)
                res.op_times.append(child.cpu)
            output = out.read_text(encoding="utf-8") if out.exists() else None
            tally.record(check_result(op, child.code, output, child.err))
            res.rss_kib = max(res.rss_kib, child.rss_kib)
            cpu += child.cpu
            wall += child.wall
        if traced:
            res.traced_times.append(cpu)
            res.traced_walls.append(wall)
            res.stats.append(stats)
        else:
            res.pass_times.append(cpu)
            res.pass_walls.append(wall)

    t0 = time.monotonic()
    while runner.remaining() > 0:
        one_pass(False)
        if trace:
            one_pass(True)
        if time.monotonic() - t0 >= seconds:
            break
    return res


# -- reporting -------------------------------------------------------------------


def per_layer(res: Passes, names: list[str], overhead: float) -> dict:
    samples = []
    for stats in res.stats:
        values = {}
        for name in names:
            if name == "trace.overhead":
                values[name] = overhead
            else:
                span, stat = name.rsplit(".", 1)
                values[name] = stats.value(span, stat)
        samples.append(values)
    # Counts agree exactly between passes; times take the median.
    return {name: statistics.median(v[name] for v in samples) for name in names}


def print_trace_summary(res: Passes, overhead: float):
    stats = res.stats[0]
    traced = res.traced_walls[0]
    print(f"traced suite_s {statistics.median(res.traced_times):.3f} s; tracing "
          f"overhead {overhead:.3f}x the untraced suite_s")
    print(f"self time by layer, first traced pass ({traced:.3f} s wall):")
    layers = sorted(stats.layer_self_s().items(), key=lambda x: -x[1])
    outside = traced - sum(secs for _, secs in layers)
    for layer, secs in layers + [("(no span)", outside)]:
        print(f"  {layer:12s} {secs:8.3f} s  {100 * secs / traced:5.1f} %")
    checks = stats.slowest_checks()
    if checks:
        print("slowest checks:")
        for name, secs in checks:
            print(f"  {name:36s} {secs:8.3f} s")
        print("slowest trials:")
        for name, index, secs in stats.slowest_trials():
            print(f"  {name} trial {index}: {secs:.3f} s")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (SRC / "relcalc" / "cli.py").is_file():
        raise Missing(f"no relcalc sources under {SRC}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise Missing(f"cannot read {path}: {exc}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
    except Missing as exc:
        sys.stderr.write(f"benchmark cannot run: {exc}\n")
        return 2

    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    trace = bool(args.trace)
    tally = Tally()
    try:
        runner = Runner(workdir)
        runner.probe_setup()  # warm-up: compiles bytecode, fills caches
        if args.workload in FUZZ:
            res = run_fuzz(runner, args.workload, args.seed, args.seconds,
                           trace, tally)
        else:
            res = run_cli(runner, args.seed, args.seconds, trace, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        overhead = (statistics.median(res.traced_times)
                    / statistics.median(res.pass_times))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(res, list(units), overhead)
        print_trace_summary(res, overhead)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        speed = runner.speed()
        metrics, pct = end_to_end(statistics.median(runner.setup_samples), res,
                                  speed)
        for name, unit in units.items():
            print(f"{name:14s} {metrics[name]:14.6f} {unit}")
        print(f"{'failed_ratio':14s} {tally.failed / tally.attempted:14.6f} "
              f"ratio ({tally.failed} of {tally.attempted})")
        print(f"op_tail_ms is p{pct:.1f} of {len(res.op_times)} invocations; "
              f"suite_s is the median of {len(res.pass_times)} passes; "
              f"setup_s the median of {len(runner.setup_samples)} spawns")
        print(f"times are child CPU seconds times {speed:.4f}, from the "
              f"reference job's median of "
              f"{statistics.median(runner.ref_samples):.4f} s over "
              f"{len(runner.ref_samples)} runs; unscaled, the median pass took "
              f"{statistics.median(res.pass_times):.3f} s of CPU time and "
              f"{statistics.median(res.pass_walls):.3f} s of wall time")
    for problem in tally.problems:
        print(f"INCORRECT: {problem}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
