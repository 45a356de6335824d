"""Source hygiene: the package uses every module-level import and calls every
public method, no subcommand loads numpy, only ``fuzz`` and ``checks`` load
the verifier, and the value layer's memo is the package's only cache."""

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


# Public methods the package itself never calls, with the reason each stays.
UNCALLED_METHODS = {
    "LinearRelation.identity": "constructor for tests and library users",
}


def uncalled_methods(paths):
    """``Class.method`` for each public method of a public class that no
    ``.method`` attribute access in ``paths`` reaches."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    reached = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    return [
        f"{cls.name}.{fn.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in reached
    ]


def test_no_test_only_methods():
    modules = sorted(PACKAGE.glob("*.py"))
    assert sorted(uncalled_methods(modules)) == sorted(UNCALLED_METHODS)


# Cache mechanisms besides ``relcalc.subspaces.memo``: weak interning, the
# collector tuning it needed, and functools' caches.
FORBIDDEN_MODULES = {"weakref", "gc"}
FORBIDDEN_NAMES = {"lru_cache", "cache", "cached_property"}


def second_caches(path):
    """``file:line what`` for each use of a cache mechanism in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        hits = []
        if isinstance(node, ast.Import):
            hits = [a.name for a in node.names
                    if a.name.partition(".")[0] in FORBIDDEN_MODULES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").partition(".")[0] in FORBIDDEN_MODULES:
                hits = [node.module]
            elif node.module == "functools":
                hits = [a.name for a in node.names if a.name in FORBIDDEN_NAMES]
        elif isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_NAMES:
            if node.attr != "cache" or (
                isinstance(node.value, ast.Name) and node.value.id == "functools"
            ):
                hits = [node.attr]
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES - {"cache"}:
            hits = [node.id]
        found += [f"{path.name}:{node.lineno} {hit}" for hit in hits]
    return found


def test_one_cache_mechanism():
    modules = sorted(PACKAGE.glob("*.py"))
    assert [hit for path in modules for hit in second_caches(path)] == []


def test_second_cache_detector(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import gc\nimport weakref as w\nfrom functools import lru_cache\n"
        "import functools\n@functools.cache\ndef f(): pass\n"
        "x = functools.cached_property\n"
    )
    assert second_caches(bad) == [
        "bad.py:1 gc",
        "bad.py:2 weakref",
        "bad.py:3 lru_cache",
        "bad.py:5 cache",
        "bad.py:7 cached_property",
    ]


# Runs in a fresh interpreter; prints which heavy modules each step loaded,
# counting only modules that were not loaded before ``import relcalc``.
COLD_PATH_SCRIPT = """
import json
import sys

HEAVY = ("numpy", "dataclasses", "inspect", "relcalc.verifier", "relcalc.checks")
rel, sub, out, listing = sys.argv[1:]
stages = {}
preloaded = set(sys.modules)


def record(stage):
    stages[stage] = [n for n in HEAVY if n in sys.modules and n not in preloaded]


import relcalc

record("import relcalc")
from relcalc.cli import main

record("import relcalc.cli")
assert main(["classify", rel, "-o", out]) == 0
record("classify")
assert main(["parts", rel, "-o", out]) == 0
record("parts")
assert main(["angles", sub, sub, "-o", out]) == 0
record("angles")
assert main(["checks", "-o", listing]) == 0
record("checks")
print(json.dumps(stages))
"""


def test_cold_path_imports(tmp_path):
    """No subcommand loads numpy, ``angles`` included; only ``checks`` (and
    ``fuzz``) load the fuzz verifier, on first use, and with it
    ``dataclasses`` and ``inspect``, which no other subcommand loads."""
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
    stages = json.loads(done.stdout)
    # The verifier imports dataclasses, and with it inspect, unless a site
    # hook loaded them first; the checks stage pins only the verifier.
    stages["checks"] = [
        n for n in stages["checks"] if n not in ("dataclasses", "inspect")
    ]
    assert stages == {
        "import relcalc": [],
        "import relcalc.cli": [],
        "classify": [],
        "parts": [],
        "angles": [],
        "checks": ["relcalc.verifier", "relcalc.checks"],
    }
    assert len(json.loads(listing.read_text())) == 44
