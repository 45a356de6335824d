"""Source hygiene: every module-level import in the package is used."""

import ast
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
