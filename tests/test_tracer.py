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


def _containers_holding(value, targets, seen):
    """Yield the traced functions that ``value``, a container, holds at any
    depth: dict keys and values, and list, tuple and set members."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, dict):
        members = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        members = list(value)
    else:
        return
    for member in members:
        if id(member) in targets and targets[id(member)] is member:
            yield member
        else:
            yield from _containers_holding(member, targets, seen)


def test_no_module_container_holds_a_traced_function():
    # The tracer rebinds module globals and class attributes only; a traced
    # function kept in a module-level table would escape it unreported.
    # Memo keys hold the function under a ``memoized`` wrapper, not the
    # traced wrapper itself, so they do not match.
    import importlib
    import importlib.util
    import pkgutil

    import relcalc

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for info in pkgutil.iter_modules(relcalc.__path__):
        importlib.import_module(f"relcalc.{info.name}")
    targets = {}
    for modname, path, _, _ in tracer.TARGETS:
        obj = importlib.import_module(modname)
        for part in path.split("."):
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
        targets[id(obj)] = obj
    held = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "relcalc" or name.startswith("relcalc.")):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__"):
                continue
            held += [
                f"{name}.{attr} holds {fn.__qualname__}"
                for fn in _containers_holding(value, targets, set())
            ]
    assert not held
