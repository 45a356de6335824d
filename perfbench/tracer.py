"""Run one ``relcalc`` command with every layer boundary wrapped in a span.

Usage::

    python3 perfbench/tracer.py OUT [--only rowops.rref] -- <relcalc args>

The wrappers are installed from outside: every binding of a traced function
(module globals, names imported into other modules, class attributes and
their aliases, the ``CHECKS`` registry entries) is replaced by one wrapper,
and the install fails if any binding of an original survives.  Each call
records its span name, start, end, parent span, trial id, an input key hash
(for repeat ratios) and a cell count (``rows x width`` for ``rref``).  The
tracer keeps only integers, never the objects it sees: interning is weak, so
a strong reference would change cache behaviour and the counts with it.

Spans stay in memory and are written at exit to ``OUT.json`` (name and
trial tables) and ``OUT.bin`` (the span columns as native arrays).
``--only rowops.rref`` wraps ``_rowops.rref`` alone; the self-test compares
its call count with the full tracer's.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from array import array

# (module, attribute path, span name, key kind).  Functions of one span
# name (the verifier generators) share their aggregate.
TARGETS = [
    ("relcalc._rowops", "rref", "rowops.rref", "rows"),
    ("relcalc._rowops", "nullspace", "rowops.nullspace", None),
    ("relcalc._rowops", "member", "rowops.member", None),
    ("relcalc.subspaces", "Subspace.sum_with", "subspaces.sum_with", "pair"),
    ("relcalc.subspaces", "Subspace.intersect", "subspaces.intersect", "pair"),
    ("relcalc.subspaces", "Subspace.perp", "subspaces.perp", None),
    ("relcalc.subspaces", "Subspace.contains", "subspaces.contains", None),
    ("relcalc.relations", "LinearRelation.parts", "relations.parts", None),
    ("relcalc.relations", "LinearRelation.inverse", "relations.inverse", None),
    ("relcalc.relations", "LinearRelation.one_minus", "relations.one_minus", None),
    ("relcalc.relations", "LinearRelation.adjoint", "relations.adjoint", None),
    ("relcalc.relations", "LinearRelation.meet", "relations.meet", None),
    ("relcalc.relations", "LinearRelation.plus", "relations.plus", None),
    ("relcalc.relations", "LinearRelation.compose", "relations.compose", None),
    ("relcalc.idempotents", "classify", "idempotents.classify", None),
    ("relcalc.idempotents", "square", "idempotents.square", None),
    ("relcalc.idempotents", "semi_projection", "idempotents.semi_projection", None),
    ("relcalc.idempotents", "build_pmns", "idempotents.build_pmns", None),
    ("relcalc.idempotents", "minimal_idempotent", "idempotents.minimal_idempotent", None),
    ("relcalc.idempotents", "maximal_idempotent", "idempotents.maximal_idempotent", None),
    ("relcalc.angles", "orthonormal_basis_f64", "angles.orthonormal_basis_f64", None),
    ("relcalc.angles", "dixmier_cos", "angles.dixmier_cos", None),
    ("relcalc.angles", "friedrichs_cos", "angles.friedrichs_cos", None),
    ("relcalc.matrices", "row_to_ints", "matrices.row_to_ints", None),
    ("relcalc.matrices", "ints_to_row", "matrices.ints_to_row", None),
    ("relcalc.verifier", "trial_rng", "verifier.trial_rng", "trial"),
    ("relcalc.documents", "parse_document", "documents.parse_document", None),
    ("relcalc.documents", "serialize_document", "documents.serialize_document", None),
    ("relcalc.cli", "main", "cli.main", None),
]


class Recorder:
    """Span columns plus the open-span stack and the current trial id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.trials: list[list] = []
        self.trial = -1
        self.stack: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.trial_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.key = array("q")
        self.cells = array("q")

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, span: str, kind):
        nid = self.name_id(span)
        stack = self.stack
        names, parents, trials = self.name, self.parent, self.trial_of
        starts, ends, keys, cells = self.start, self.end, self.key, self.cells
        clock = time.perf_counter_ns
        rec = self

        def open_span(key, ncells):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            trials.append(rec.trial)
            keys.append(key)
            cells.append(ncells)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i):
            ends[i] = clock()
            stack.pop()

        if kind == "rows":

            def wrapper(rows, width):
                rows = tuple(rows)
                key = hash(
                    (width, tuple((d, tuple(re), im if im is None else tuple(im))
                                  for d, re, im in rows))
                ) or 1
                i = open_span(key, len(rows) * width)
                try:
                    return fn(rows, width)
                finally:
                    close_span(i)

        elif kind == "pair":

            def wrapper(a, b):
                i = open_span(hash((a.key(), b.key())) or 1, 0)
                try:
                    return fn(a, b)
                finally:
                    close_span(i)

        elif kind == "trial":

            def wrapper(seed, check_name, index):
                rec.trial = len(rec.trials)
                rec.trials.append([check_name, index])
                i = open_span(0, 0)
                try:
                    return fn(seed, check_name, index)
                finally:
                    close_span(i)

        else:

            def wrapper(*args, **kwargs):
                i = open_span(0, 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(i)

        return functools.update_wrapper(wrapper, fn)

    def write(self, out: str):
        with open(out + ".bin", "wb") as fh:
            for col in (self.name, self.parent, self.trial_of,
                        self.start, self.end, self.key, self.cells):
                col.tofile(fh)
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": len(self.start), "names": self.names,
                 "trials": self.trials},
                fh,
            )


def _relcalc_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "relcalc" or n.startswith("relcalc."))]


def _bindings(modules):
    """Every (owner, attribute, value) a traced function can be reached by:
    module globals and the attributes of classes defined in relcalc."""
    classes = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            yield mod, attr, value
            if (isinstance(value, type) and value.__module__.startswith("relcalc")
                    and value not in classes):
                classes.append(value)
    for cls in classes:
        for attr, value in list(vars(cls).items()):
            yield cls, attr, value


def install(rec: Recorder, only: str | None = None):
    """Replace every binding of every target, or of ``only``."""
    import importlib

    import relcalc.cli  # noqa: F401  (imports every layer)
    from relcalc import verifier

    originals = {}
    for modname, path, span, kind in TARGETS:
        if only is not None and span != only:
            continue
        obj = importlib.import_module(modname)
        for part in path.split("."):
            obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
        originals[id(obj)] = (obj, rec.wrap(obj, span, kind))
    if only is None:
        for attr, value in vars(verifier).items():
            if attr.startswith("random_") and callable(value):
                originals[id(value)] = (
                    value, rec.wrap(value, "verifier.generators", None)
                )
        for name, spec in list(verifier.CHECKS.items()):
            wrapper = rec.wrap(spec.fn, f"checks.{name}", None)
            originals[id(spec.fn)] = (spec.fn, wrapper)
            verifier.CHECKS[name] = dataclasses.replace(spec, fn=wrapper)

    modules = _relcalc_modules()
    for owner, attr, value in _bindings(modules):
        hit = originals.get(id(value))
        if hit is not None and hit[0] is value:
            setattr(owner, attr, hit[1])
    leftovers = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, value in _bindings(modules)
        if id(value) in originals and originals[id(value)][0] is value
    ]
    if only is None:
        leftovers += [n for n, s in verifier.CHECKS.items()
                      if id(s.fn) in originals and originals[id(s.fn)][0] is s.fn]
    if leftovers:
        raise RuntimeError(f"untraced bindings remain: {', '.join(leftovers)}")


def main(argv: list[str]) -> int:
    if "--" not in argv or not argv or argv[0] == "--":
        sys.stderr.write(__doc__)
        return 2
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1:]
    out, only = head[0], None
    if len(head) == 3 and head[1] == "--only":
        only = head[2]
    rec = Recorder()
    install(rec, only)
    import relcalc.cli

    try:
        return relcalc.cli.main(cli_args)
    finally:
        rec.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
