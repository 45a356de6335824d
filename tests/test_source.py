"""Source hygiene: every module-level import in the package is used, no
subcommand loads numpy, and only ``fuzz`` and ``checks`` load the verifier."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import relcalc

PACKAGE = Path(relcalc.__file__).parent


def unused_imports(path):
    """``file:line name`` for each module-level import never referenced.

    Imports kept for their side effect carry ``# noqa: F401``; the package
    ``__init__`` re-exports and is not scanned.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        comment = lines[node.lineno - 1].partition("#")[2]
        if "noqa" in comment and "F401" in comment:
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).partition(".")[0]
            if name not in used:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_unused_module_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    assert [hit for path in modules for hit in unused_imports(path)] == []


# Runs in a fresh interpreter; prints which heavy modules each step loaded.
COLD_PATH_SCRIPT = """
import json
import sys

HEAVY = ("numpy", "relcalc.verifier", "relcalc.checks")
rel, sub, out, listing = sys.argv[1:]
stages = {}


def record(stage):
    stages[stage] = [name for name in HEAVY if name in sys.modules]


import relcalc

record("import relcalc")
from relcalc.cli import main

record("import relcalc.cli")
assert main(["classify", rel, "-o", out]) == 0
record("classify")
assert main(["angles", sub, sub, "-o", out]) == 0
record("angles")
assert main(["checks", "-o", listing]) == 0
record("checks")
print(json.dumps(stages))
"""


def test_cold_path_imports(tmp_path):
    """No subcommand loads numpy, ``angles`` included; only ``checks`` (and
    ``fuzz``) load the fuzz verifier, on first use."""
    rel = tmp_path / "e.rel"
    rel.write_text(
        json.dumps(
            {
                "kind": "relation",
                "version": "1",
                "dim_in": 2,
                "dim_out": 2,
                "generators": [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "0"]]],
            }
        )
    )
    sub = tmp_path / "s.sub"
    sub.write_text(
        json.dumps(
            {"kind": "subspace", "version": "1", "ambient": 2, "basis": [["1", "1"]]}
        )
    )
    listing = tmp_path / "checks.json"
    argv = [rel, sub, tmp_path / "out.json", listing]
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", COLD_PATH_SCRIPT, *map(str, argv)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "import relcalc": [],
        "import relcalc.cli": [],
        "classify": [],
        "angles": [],
        "checks": ["relcalc.verifier", "relcalc.checks"],
    }
    assert len(json.loads(listing.read_text())) == 44
