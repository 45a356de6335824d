"""Source hygiene: the package uses every module-level import and calls every
public method, the modules of the cold CLI path hold no oracle-only helper,
each subcommand loads only the modules it runs (no numpy, no ``hashlib``, the
verifier only for ``fuzz`` and ``checks``), the value layer's memo is the
package's only cache and the value layer never imports ``documents``,
only ``angles`` and the verifier raise ``InternalCheckError``, and only the
triples that hold by theorem skip the triple constructors' check."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    "LinearRelation.from_generators": (
        "scalar-pair constructor for tests and library users; documents "
        "build relations from integer rows"
    ),
    "Subspace.span": (
        "scalar-vector constructor for tests and library users; documents "
        "and the checks build from integer rows"
    ),
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


# The modules that the library and the CLI run, and the ones among them
# whose every module-level function must serve them: a helper that only an
# oracle, the verifier, a check or a test names belongs with its callers, so
# that the cold CLI path does not compile it.
PRODUCTION_MODULES = (
    "cli", "documents", "relations", "subspaces", "_rowops", "errors",
    "idempotents", "angles", "scalars", "matrices", "__init__",
)
SERVING_MODULES = PRODUCTION_MODULES[:6]


def names_used(path):
    """Every name ``path`` reads, imports or reaches as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).rpartition(".")[2])
    return names


def functions_outside(package, serving, production):
    """``module.function`` for each module-level function of ``serving``
    that no module of ``production`` names."""
    used = set().union(*(names_used(package / f"{m}.py") for m in production))
    found = []
    for module in serving:
        tree = ast.parse((package / f"{module}.py").read_text(encoding="utf-8"))
        found += [f"{module}.{node.name}" for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name not in used]
    return found


def test_production_modules_hold_production_functions():
    assert functions_outside(PACKAGE, SERVING_MODULES, PRODUCTION_MODULES) == []


def test_production_function_detector(tmp_path):
    (tmp_path / "a.py").write_text(
        "import b\nfrom c import used_by_import\n"
        "def helper(): pass\ndef called(): helper()\ndef oracle_only(): pass\n"
    )
    (tmp_path / "b.py").write_text("def used_by_import(): pass\nb_attr = 1\n")
    (tmp_path / "c.py").write_text("import a\na.oracle_only()\na.called()\n")
    assert functions_outside(tmp_path, ["a", "b"], ["a", "b"]) == [
        "a.called",
        "a.oracle_only",
    ]


# Cache mechanisms besides the value memo, ``relcalc.subspaces._memo``:
# weak interning, the collector tuning it needed, and functools' caches.
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


# The modules that may raise ``InternalCheckError``: ``angles`` for its numeric
# Gram guards, ``verifier`` to wrap what a check raises.  Every other module
# computes each result by one route; the checks state the theorems about it.
INTERNAL_CHECK_RAISERS = {"angles.py", "verifier.py"}


def internal_check_raises(path):
    """``file:line`` for each ``raise`` of ``InternalCheckError`` in ``path``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "InternalCheckError":
                lines.append(node.lineno)
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_internal_check_errors_only_where_allowed():
    modules = sorted(
        p for p in PACKAGE.glob("*.py") if p.name not in INTERNAL_CHECK_RAISERS
    )
    assert [hit for path in modules for hit in internal_check_raises(path)] == []


def test_internal_check_raise_detector(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import errors\nfrom .errors import InternalCheckError\n"
        "def f(x):\n    if x:\n        raise InternalCheckError('routes differ')\n"
        "    raise errors.InternalCheckError\n"
        "def g():\n    try:\n        f(1)\n    except InternalCheckError:\n"
        "        raise\n    raise ValueError('InternalCheckError')\n"
    )
    assert internal_check_raises(bad) == ["bad.py:5", "bad.py:6"]


# The functions of ``idempotents`` whose triples hold by theorem: the triples
# of an idempotent and of its adjoint, and the two conversions.  Only they
# build a triple with the namedtuple's unchecked ``_make``, so a triple made
# from parsed or user input always meets the constructor's check.
UNCHECKED_TRIPLE_BUILDERS = {
    "kernel_triple", "range_triple", "adjoint_idempotent",
    "triple_convert", "range_to_kernel",
}


def unchecked_triples(path):
    """``file:line`` for each reach of ``._make`` in ``path`` outside the
    module-level functions of ``idempotents.py`` named in
    ``UNCHECKED_TRIPLE_BUILDERS``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    allowed = set()
    if path.name == "idempotents.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in UNCHECKED_TRIPLE_BUILDERS:
                allowed.update(map(id, ast.walk(node)))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_make"
        and id(node) not in allowed
    ]
    return [f"{path.name}:{line}" for line in sorted(lines)]


def test_unchecked_triples_only_where_they_hold_by_theorem():
    modules = sorted(PACKAGE.glob("*.py"))
    assert [hit for path in modules for hit in unchecked_triples(path)] == []


def test_unchecked_triple_detector(tmp_path):
    source = (
        "from .idempotents import IdempotentTriple as T\n"
        "def kernel_triple(e):\n    return T._make((e.a, e.b, e.c))\n"
        "def parse(doc):\n    return T._make(doc)\n"
        "class C:\n    def range_to_kernel(self):\n        return T._make(self)\n"
        "make = T._make\n"
    )
    for name in ("idempotents.py", "documents.py"):
        (tmp_path / name).write_text(source)
    assert unchecked_triples(tmp_path / "idempotents.py") == [
        "idempotents.py:5",
        "idempotents.py:8",
        "idempotents.py:9",
    ]
    assert unchecked_triples(tmp_path / "documents.py") == [
        "documents.py:3",
        "documents.py:5",
        "documents.py:8",
        "documents.py:9",
    ]


def none_rows(path):
    """``file:line what`` for each line of ``path`` that compares a name
    ending in ``im`` with None or builds a 3-tuple ending in the constant
    None: the traces of a row whose imaginary part may be None."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = [o.id for o in operands if isinstance(o, ast.Name)]
            nones = [o for o in operands
                     if isinstance(o, ast.Constant) and o.value is None]
            if nones and any(name.endswith("im") for name in names):
                found.add((node.lineno, "compares an im with None"))
        elif isinstance(node, ast.Tuple) and len(node.elts) == 3:
            last = node.elts[-1]
            if isinstance(last, ast.Constant) and last.value is None:
                found.add((node.lineno, "builds a row with a None im"))
    return [f"{path.name}:{line} {what}" for line, what in sorted(found)]


def test_rows_carry_im_outside_the_kernel():
    """Every row outside ``_rowops`` carries its imaginary part as a tuple;
    only the kernel turns an all-zero one into None, for its real path."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "_rowops.py")
    assert [hit for path in modules for hit in none_rows(path)] == []


def test_none_row_detector(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def f(den, re, im, bim, dim, x):\n"
        "    if im is None and bim is not None:\n"
        "        return (den, re, None)\n"
        "    y = None if dim == None else x\n"
        "    return (1, re, im), (den, None, im), (None, None), x is None\n"
    )
    assert none_rows(bad) == [
        "bad.py:2 compares an im with None",
        "bad.py:3 builds a row with a None im",
        "bad.py:4 compares an im with None",
    ]


# Standard-library modules that no module of the package imports: the
# command-line parser loads gettext and locale with it, where ``cli`` reads
# its command line from the subcommand table (``tests/test_cli.py`` keeps it
# as the reference).
BANNED_IMPORTS = {"argparse"}


def banned_imports(path):
    """``file:line module`` for each import of a module in ``BANNED_IMPORTS``
    in ``path``, at any depth and by ``import_module`` or ``__import__``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        elif isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)
        ) in ("import_module", "__import__"):
            names = [a.value for a in node.args[:1] if isinstance(a, ast.Constant)]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if str(name).partition(".")[0] in BANNED_IMPORTS]
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_no_banned_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert [hit for path in modules for hit in banned_imports(path)] == []


def test_banned_import_detector(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import argparse\nimport json, argparse as ap\nfrom argparse import Namespace\n"
        "def f():\n    import argparse.x\n    return __import__('argparse')\n"
        "import importlib\nimportlib.import_module('argparse')\n"
        "from . import argparse_notes\nimport argparser\n"
    )
    assert banned_imports(bad) == [
        "bad.py:1 argparse",
        "bad.py:2 argparse",
        "bad.py:3 argparse",
        "bad.py:5 argparse.x",
        "bad.py:6 argparse",
        "bad.py:8 argparse",
    ]


def test_every_public_name_resolves():
    """The package loads its modules on first use of a public name; every
    name in ``__all__`` resolves to the object its module defines."""
    for name in relcalc.__all__:
        value = getattr(relcalc, name)
        assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError):
        relcalc.no_such_name  # noqa: B018


# Modules that ``cli.py`` and ``documents.py`` may import only inside the
# functions that use them: each is off the path of some subcommand, and
# ``matrices`` and ``scalars`` load ``fractions`` and ``decimal``.
DEFERRED_MODULES = {"idempotents", "angles", "matrices", "scalars"}


def package_modules(node):
    """The relcalc modules that an import statement loads, named within the
    package; none for any other node."""
    if isinstance(node, ast.Import):
        return [a.name.removeprefix("relcalc.") for a in node.names
                if a.name.startswith("relcalc.")]
    if isinstance(node, ast.ImportFrom) and (
        node.level or (node.module or "").partition(".")[0] == "relcalc"
    ):
        module = (node.module or "").removeprefix("relcalc").lstrip(".")
        return [module] if module else [a.name for a in node.names]
    return []


def module_level_imports(path):
    """``file:line module`` for each relcalc module in ``DEFERRED_MODULES``
    that ``path`` imports at module level."""
    return [
        f"{path.name}:{node.lineno} {m}"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        for m in package_modules(node)
        if m.partition(".")[0] in DEFERRED_MODULES
    ]


def test_cli_and_documents_defer_their_heavy_imports():
    paths = [PACKAGE / "cli.py", PACKAGE / "documents.py"]
    assert [hit for path in paths for hit in module_level_imports(path)] == []


def test_module_level_import_detector(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import angles, documents\nfrom .idempotents import classify\n"
        "import relcalc.matrices\nfrom relcalc import scalars\n"
        "from .subspaces import Subspace\nimport json\n"
        "def f():\n    from . import idempotents\n"
    )
    assert module_level_imports(bad) == [
        "bad.py:1 angles",
        "bad.py:2 idempotents",
        "bad.py:3 matrices",
        "bad.py:4 scalars",
    ]


# The value layer renders nothing: ``documents.plain`` turns a subspace in an
# error's context into its document body, so these modules never reach
# ``documents``.
VALUE_LAYER = ("_rowops.py", "subspaces.py", "relations.py")


def documents_imports(path):
    """``file:line`` for each import of ``relcalc.documents`` in ``path``,
    at any depth."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for m in package_modules(node)
        if m.partition(".")[0] == "documents"
    ]


def test_value_layer_does_not_import_documents():
    paths = [PACKAGE / name for name in VALUE_LAYER]
    assert [hit for path in paths for hit in documents_imports(path)] == []


def test_documents_import_detector(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from . import documents\nimport relcalc.documents as d\n"
        "from .errors import DimensionError\n"
        "def f():\n    from .documents import subspace_payload\n"
        "    from relcalc import errors, documents\n"
        "import documents\nfrom .documents_old import x\n"
    )
    assert documents_imports(bad) == ["bad.py:1", "bad.py:2", "bad.py:5", "bad.py:6"]


# Runs in a fresh interpreter; prints which heavy modules each step loaded
# first, counting only modules that were not loaded before ``import relcalc``.
COLD_PATH_SCRIPT = """
import json
import sys

HEAVY = (
    "numpy", "dataclasses", "inspect", "fractions", "decimal",
    "relcalc.idempotents", "relcalc.angles", "relcalc.verifier", "relcalc.checks",
    "hashlib", "_hashlib", "argparse", "gettext", "locale",
)
rel, witness_rel, idem_rel, sub, out, listing = sys.argv[1:]
stages = {}
seen = set(sys.modules)


def record(stage):
    stages[stage] = [n for n in HEAVY if n in sys.modules and n not in seen]
    seen.update(sys.modules)


import relcalc

record("import relcalc")
from relcalc.cli import main

record("import relcalc.cli")
assert main(["parts", rel, "-o", out]) == 0
record("parts")
assert main(["angles", sub, sub, "-o", out]) == 0
record("angles")
assert main(["classify", rel, "-o", out]) == 0
assert json.load(open(out))["witnesses"] == {}
record("classify")
assert main(["triple", idem_rel, "--kind", "kernel", "-o", out]) == 0
record("triple")
assert main(["classify", witness_rel, "-o", out]) == 0
assert json.load(open(out))["witnesses"]["not_below_square"] is not None
record("classify with a witness")
assert main(["checks", "-o", listing]) == 0
record("checks")
assert main(["fuzz", "--dim", "1", "--trials", "1", "--checks", "subspace_demorgan",
             "-o", out]) == 0
record("fuzz")
print(json.dumps(stages))
"""


def test_cold_path_imports(tmp_path):
    """No subcommand loads numpy, ``angles`` included. ``parts`` loads none
    of the heavy modules, ``angles`` only ``relcalc.angles``, and
    ``classify`` only ``relcalc.idempotents``, plus ``fractions`` (and with
    it ``decimal``) when it prints a witness; ``triple`` on an idempotent
    that is not a semi-projection loads neither, since it tests E o E = E
    and classifies only a relation it rejects. Only ``checks`` (and ``fuzz``)
    load the fuzz verifier, on first use, and with it ``dataclasses`` and
    ``inspect``, which no other subcommand loads. No subcommand loads
    ``hashlib`` and with it OpenSSL: the fuzz streams take SHA-256 from
    CPython's built-in module (``_sha2``, or ``_sha256`` before 3.12), and
    only an interpreter built without either may fall back to ``hashlib``.
    No subcommand loads ``argparse``, or ``gettext`` and ``locale`` with it:
    ``cli`` reads the command line itself."""

    def relation(path, generators):
        path.write_text(
            json.dumps(
                {
                    "kind": "relation",
                    "version": "1",
                    "dim_in": 2,
                    "dim_out": 2,
                    "generators": generators,
                }
            )
        )
        return path

    # A projection, which has no witness, and a strictly sub-idempotent
    # relation (E o E = 0 < E), which has one.
    rel = relation(tmp_path / "e.rel", [[["1", "0"], ["1", "0"]], [["0", "1"], ["0", "0"]]])
    witness_rel = relation(tmp_path / "w.rel", [[["1", "0"], ["0", "1"]]])
    # An idempotent with mul E = span(e_2), so P_{ran E, ker E} = I differs
    # from it and classify would build a witness.
    idem_rel = relation(
        tmp_path / "i.rel", [[["1", "0"], ["1", "0"]], [["0", "0"], ["0", "1"]]]
    )
    sub = tmp_path / "s.sub"
    sub.write_text(
        json.dumps(
            {"kind": "subspace", "version": "1", "ambient": 2, "basis": [["1", "1"]]}
        )
    )
    listing = tmp_path / "checks.json"
    argv = [rel, witness_rel, idem_rel, sub, tmp_path / "out.json", listing]
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
    # Only an interpreter without CPython's own SHA-256 module uses hashlib.
    if not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
        stages["checks"] = [
            n for n in stages["checks"] if n not in ("hashlib", "_hashlib")
        ]
    assert stages == {
        "import relcalc": [],
        "import relcalc.cli": [],
        "parts": [],
        "angles": ["relcalc.angles"],
        "classify": ["relcalc.idempotents"],
        "triple": [],
        "classify with a witness": ["fractions", "decimal"],
        "checks": ["relcalc.verifier", "relcalc.checks"],
        "fuzz": [],
    }
    assert len(json.loads(listing.read_text())) == 44
