"""The benchmark tracer still reaches every traced layer function.

``perfbench/tracer.py`` looks its target functions up by name, replaces
every module and class binding of each, and refuses to run when a target is
gone or a binding survives.  A refactor that renames, moves or rebinds a
traced layer function fails here instead of in a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_every_binding(tmp_path):
    out = tmp_path / "spans"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(out),
         "--", "checks"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert "untraced bindings" not in child.stderr
    assert "cli.main" in json.loads(out.with_suffix(".json").read_text())["names"]
