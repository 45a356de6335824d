"""Generated operation mix for the ``cli-cold`` workload.

Every operation is one ``relcalc`` subcommand on document files written
before timing starts.  The expected outcome of each (exit code and output)
is computed in-process through the public API, never by running the CLI, and
inputs are not filtered by whether they succeed: whatever the API answers
for an input is what the CLI must answer too.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

OP_KINDS = (
    "classify", "parts", "compose", "meet", "plus", "hat-sum", "adjoint",
    "inverse", "one-minus", "build-pmn", "build-pmns", "build-min",
    "build-max", "triple", "ic", "angles",
)
# Beyond one of each kind: inputs whose documented exit is 2 (parse error)
# and 3 (dimension error).  Exit 4 arises from the inputs themselves
# (IC-violating triples, non-idempotent relations), about half the time.
EXTRA = ("parse-error", "parse-error", "shape-error", "shape-error")
MIX_SIZE = len(OP_KINDS) + len(EXTRA) + 4


@dataclass
class Op:
    kind: str
    argv: list[str]      # relcalc arguments, output goes to ``out``
    out: str
    exit: int            # expected exit code
    expect: object       # expected output: text, parsed JSON, or None
    as_json: bool


class _Gen:
    def __init__(self, rng: random.Random, workdir: Path):
        from relcalc import GaussianRational, format_scalar

        self.rng = rng
        self.dir = workdir
        self.count = 0
        self._scalar = lambda re, im: format_scalar(GaussianRational(re, im))

    def scalar(self) -> str:
        rng = self.rng
        re = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))
        im = Fraction(rng.randint(-3, 3), 1) if rng.random() < 0.4 else 0
        return self._scalar(re, im)

    def vector(self, n: int) -> list[str]:
        return [self.scalar() for _ in range(n)]

    def write_text(self, text: str) -> str:
        self.count += 1
        path = self.dir / f"in{self.count:03d}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def write(self, doc: dict) -> str:
        return self.write_text(json.dumps(doc, indent=1) + "\n")

    def write_obj(self, obj) -> str:
        return self.write_text(_document(obj))

    def subspace_doc(self, n: int) -> dict:
        k = self.rng.randint(0, n)
        return {"kind": "subspace", "version": "1", "ambient": n,
                "basis": [self.vector(n) for _ in range(k)]}

    def relation_doc(self, n: int, m: int) -> dict:
        k = self.rng.randint(0, n + m)
        return {"kind": "relation", "version": "1", "dim_in": n, "dim_out": m,
                "generators": [[self.vector(n), self.vector(m)]
                               for _ in range(k)]}

    def dim(self) -> int:
        return self.rng.randint(2, 8)

    def subspaces(self, n: int, count: int):
        from relcalc import documents

        docs = [self.subspace_doc(n) for _ in range(count)]
        return [self.write(d) for d in docs], [
            documents.parse_document(json.dumps(d)).payload for d in docs
        ]

    def ic_triple(self, n: int):
        """Half the time three unrelated subspaces, which usually violate
        the IC (exit 4), otherwise their pairwise intersections (always IC)."""
        paths, (a, b, c) = self.subspaces(n, 3)
        if self.rng.random() < 0.5:
            return paths, (a, b, c)
        spaces = (b.intersect(c), a.intersect(c), a.intersect(b))
        return [self.write_obj(s) for s in spaces], spaces


def _relation(text_path: str):
    from relcalc import documents

    return documents.load_document(text_path).payload


def _expect(op_fn):
    """Run ``op_fn`` through the API: (exit code, output or None)."""
    from relcalc import RelcalcError

    try:
        return 0, op_fn()
    except RelcalcError as exc:
        return exc.exit_code, None


def _document(obj):
    from relcalc import documents

    return documents.serialize_document(documents.wrap(obj))


def _classify_record(e) -> dict:
    from relcalc import classify, format_scalar

    cls = classify(e)
    vec = lambda v: [format_scalar(z) for z in v]  # noqa: E731
    return {
        "is_operator": cls.is_operator,
        "is_sub": cls.is_sub,
        "is_super": cls.is_super,
        "is_idempotent": cls.is_idempotent,
        "is_semi_projection": cls.is_semi_projection,
        "is_projection": cls.is_projection,
        "witnesses": {k: None if p is None else [vec(p[0]), vec(p[1])]
                      for k, p in cls.witnesses.items()},
    }


def _parts_record(e) -> dict:
    from relcalc import documents

    p = e.parts()
    return {**{k: documents.subspace_payload(getattr(p, k))
               for k in ("dom", "ran", "ker", "mul")},
            "graph_dim": e.graph.dim}


def _build_op(g: _Gen, kind: str, index: int) -> Op:
    import relcalc
    from relcalc import angles, idempotents

    rng = g.rng
    n = g.dim()
    out = str(g.dir / f"out{index:03d}.txt")
    as_json = False

    def rel(dim_in, dim_out):
        path = g.write(g.relation_doc(dim_in, dim_out))
        return path, _relation(path)

    if kind in ("classify", "one-minus", "triple"):
        if kind == "triple" and rng.random() < 0.5:
            _, (m, nn, s) = g.ic_triple(n)
            e = None
            try:
                e = idempotents.build_pmns(m, nn, s)
            except relcalc.RelcalcError:
                pass
            path = g.write_obj(e) if e is not None else g.write(
                g.relation_doc(n, n))
            e = _relation(path)
        else:
            path, e = rel(n, n)
        if kind == "classify":
            argv, as_json = ["classify", path], True
            code, expect = _expect(lambda: _classify_record(e))
        elif kind == "one-minus":
            argv = ["one-minus", path]
            code, expect = _expect(lambda: _document(e.one_minus()))
        else:
            flavor = rng.choice(("kernel", "range"))
            argv = ["triple", path, "--kind", flavor]
            fn = (idempotents.kernel_triple if flavor == "kernel"
                  else idempotents.range_triple)
            code, expect = _expect(lambda: _document(fn(e)))
    elif kind == "parts":
        path, e = rel(n, g.dim())
        argv, as_json = ["parts", path], True
        code, expect = _expect(lambda: _parts_record(e))
    elif kind in ("adjoint", "inverse"):
        path, e = rel(n, g.dim())
        argv = [kind, path]
        method = e.adjoint if kind == "adjoint" else e.inverse
        code, expect = _expect(lambda: _document(method()))
    elif kind == "compose":
        mid = g.dim()
        sp, s = rel(mid, g.dim())
        tp, t = rel(n, mid)
        argv = ["compose", sp, tp]
        code, expect = _expect(lambda: _document(s.compose(t)))
    elif kind in ("meet", "plus", "hat-sum"):
        m = g.dim()
        ap, a = rel(n, m)
        bp, b = rel(n, m)
        argv = [kind, ap, bp]
        method = {"meet": "meet", "plus": "plus", "hat-sum": "hat_sum"}[kind]
        code, expect = _expect(lambda: _document(getattr(a, method)(b)))
    elif kind == "build-pmn":
        paths, (m, nn) = g.subspaces(n, 2)
        argv = ["build", "pmn", *paths]
        code, expect = _expect(
            lambda: _document(idempotents.semi_projection(m, nn)))
    elif kind in ("build-pmns", "ic"):
        paths, (m, nn, s) = g.ic_triple(n)
        if kind == "ic":
            argv = ["ic", *paths]
            holds = idempotents.ic_holds(m, nn, s)
            code, expect = (0, "IC: holds") if holds else (4, "IC: violated")
        else:
            argv = ["build", "pmns", *paths]
            code, expect = _expect(
                lambda: _document(idempotents.build_pmns(m, nn, s)))
    elif kind in ("build-min", "build-max"):
        paths, spaces = g.subspaces(n, 3)
        form = kind.split("-")[1]
        fn = (idempotents.minimal_idempotent if form == "min"
              else idempotents.maximal_idempotent)
        argv = ["build", form, *paths]
        code, expect = _expect(lambda: _document(fn(*spaces)))
    elif kind == "angles":
        paths, (s, t) = g.subspaces(n, 2)
        argv, as_json = ["angles", *paths], True
        code, expect = _expect(lambda: angles.angles_record(s, t))
    elif kind == "parse-error":
        doc = g.relation_doc(n, n)
        doc["generators"].append([["0.5"] * n, ["1"] * n])
        path = g.write(doc)
        op = rng.choice(("classify", "adjoint", "inverse"))
        argv, as_json = [op, path], op == "classify"

        def result():
            e = _relation(path)
            if op == "classify":
                return _classify_record(e)
            return _document(getattr(e, op)())

        code, expect = _expect(result)
    elif kind == "shape-error":
        m = g.dim()
        ap, a = rel(n, m)
        bp, b = rel(n, m + 1)
        op = rng.choice(("meet", "hat-sum", "compose"))
        argv = [op, ap, bp]
        method = {"meet": "meet", "hat-sum": "hat_sum", "compose": "compose"}[op]
        code, expect = _expect(lambda: _document(getattr(a, method)(b)))
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    if code != 0 and kind != "ic":
        expect = None
    return Op(kind, argv + ["-o", out], out, code, expect, as_json)


def build_mix(seed: int, workdir: Path) -> list[Op]:
    """The workload's operations for ``seed``: one of every kind, the error
    inputs, and a few repeated kinds, in a seeded order."""
    rng = random.Random(f"cli-cold:{seed}")
    kinds = list(OP_KINDS) + list(EXTRA)
    kinds += rng.sample(OP_KINDS, MIX_SIZE - len(kinds))
    rng.shuffle(kinds)
    g = _Gen(rng, workdir)
    return [_build_op(g, kind, i) for i, kind in enumerate(kinds)]


def check_result(op: Op, code: int, output: str | None, stderr: str) -> str | None:
    """``None`` when the CLI answered as expected, otherwise why not."""
    if code != op.exit:
        return f"{op.kind}: exit {code}, expected {op.exit}: {stderr.strip()[:200]}"
    if code != 0:
        try:
            record = json.loads(stderr.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return f"{op.kind}: exit {code} without a JSON error record"
        if record.get("code") != code:
            return f"{op.kind}: error record code {record.get('code')} != {code}"
    if op.expect is None:
        if output is not None:
            return f"{op.kind}: wrote output on exit {code}"
        return None
    if output is None:
        return f"{op.kind}: no output"
    got = json.loads(output) if op.as_json else output
    if got != op.expect:
        return f"{op.kind}: output differs from the API result"
    return None
