"""Command-line surface of the relation calculus.

Every subcommand reads document files (see :mod:`relcalc.documents`), writes
a deterministic result to stdout or ``-o FILE``, and signals failure through
exit codes: 0 ok, 2 parse error, 3 dimension error, 4 violated mathematical
precondition, 5 breached internal invariant (including fuzz counterexamples).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import angles, documents, idempotents
from .errors import ICViolationError, ParseError, RelcalcError
from .relations import LinearRelation
from .subspaces import Subspace

DEFAULT_SEED_ENV = "RELCALC_SEED"


def _emit(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(payload: dict, path: str | None):
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", path)


def _emit_document(obj, path: str | None):
    _emit(documents.serialize_document(documents.wrap(obj)), path)


def _load_kind(path: str, kind: str):
    env = documents.load_document(path)
    if env.kind != kind:
        raise ParseError(
            f"{path} holds a {env.kind!r} document, expected {kind!r}",
            path=path,
        )
    return env.payload


def _load_subspace(path: str) -> Subspace:
    return _load_kind(path, "subspace")


def _load_relation(path: str) -> LinearRelation:
    return _load_kind(path, "relation")


# -- subcommand handlers -----------------------------------------------------


def _cmd_classify(args) -> int:
    e = _load_relation(args.relation)
    cls = idempotents.classify(e)
    record = {
        "is_operator": cls.is_operator,
        "is_sub": cls.is_sub,
        "is_super": cls.is_super,
        "is_idempotent": cls.is_idempotent,
        "is_semi_projection": cls.is_semi_projection,
        "is_projection": cls.is_projection,
        "witnesses": {
            key: None
            if pair is None
            else [documents.vector_payload(half) for half in pair]
            for key, pair in sorted(cls.witnesses.items())
        },
    }
    _emit_json(record, args.output)
    return 0


def _cmd_parts(args) -> int:
    e = _load_relation(args.relation)
    p = e.parts()
    record = {
        "dom": documents.subspace_payload(p.dom),
        "ran": documents.subspace_payload(p.ran),
        "ker": documents.subspace_payload(p.ker),
        "mul": documents.subspace_payload(p.mul),
        "graph_dim": e.graph.dim,
    }
    _emit_json(record, args.output)
    return 0


def _cmd_binary(args) -> int:
    a = _load_relation(args.left)
    b = _load_relation(args.right)
    _emit_document(getattr(a, args.method)(b), args.output)
    return 0


def _cmd_unary(args) -> int:
    t = _load_relation(args.relation)
    _emit_document(getattr(t, args.method)(), args.output)
    return 0


def _cmd_build(args) -> int:
    spaces = [_load_subspace(p) for p in args.spaces]
    kind = args.form
    if kind == "pmn":
        if len(spaces) != 2:
            raise ParseError("build pmn needs exactly M.sub N.sub")
        result = idempotents.semi_projection(*spaces)
    else:
        if len(spaces) != 3:
            raise ParseError(f"build {kind} needs exactly three subspace files")
        if kind == "pmns":
            result = idempotents.build_pmns(*spaces)
        elif kind == "min":
            result = idempotents.minimal_idempotent(*spaces)
        else:
            result = idempotents.maximal_idempotent(*spaces)
    _emit_document(result, args.output)
    return 0


def _cmd_triple(args) -> int:
    e = _load_relation(args.relation)
    if args.kind == "kernel":
        triple = idempotents.kernel_triple(e)
    else:
        triple = idempotents.range_triple(e)
    _emit_document(triple, args.output)
    return 0


def _cmd_convert_triple(args) -> int:
    payload = _load_kind(args.triple, "triple")
    if isinstance(payload, idempotents.IdempotentTriple):
        result = idempotents.triple_convert(payload)
    else:
        result = idempotents.range_to_kernel(payload)
    _emit_document(result, args.output)
    return 0


def _cmd_ic(args) -> int:
    m = _load_subspace(args.m)
    n = _load_subspace(args.n)
    s = _load_subspace(args.s)
    try:
        idempotents.require_ic(m, n, s)
    except ICViolationError:
        _emit("IC: violated", args.output)
        raise
    _emit("IC: holds", args.output)
    return 0


def _cmd_angles(args) -> int:
    s = _load_subspace(args.left)
    t = _load_subspace(args.right)
    record = angles.angles_record(s, t, args.tol)
    _emit_json(record, args.output)
    return 0


def _cmd_fuzz(args) -> int:
    # The verifier (and the checks it registers) loads only for fuzz and
    # checks; every other subcommand starts without it.
    from .verifier import GenConfig, verify_suite

    if args.seed is not None:
        seed = args.seed
    else:
        text = os.environ.get(DEFAULT_SEED_ENV, "0")
        try:
            seed = int(text)
        except ValueError:
            raise ParseError(
                f"${DEFAULT_SEED_ENV} must be an integer, got {text!r}",
                variable=DEFAULT_SEED_ENV,
            ) from None
    cfg = GenConfig(
        ambient_dim=args.dim,
        trials=args.trials,
        seed=seed,
        max_entry=args.max_entry,
        complex_enabled=not args.real,
        extremality_samples=args.samples,
        tol=args.tol,
    )
    names = args.checks.split(",") if args.checks else None
    report = verify_suite(cfg, names)
    _emit_document(report.json_dict(), args.output)
    return 0 if report.passed else 5


def _cmd_checks(args) -> int:
    from .verifier import CHECKS

    record = {
        name: {"claims": list(spec.claims), "angle": spec.angle}
        for name, spec in CHECKS.items()
    }
    _emit_json(record, args.output)
    return 0


# -- parser ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a :class:`ParseError` (exit 2 with a
    JSON record) instead of printing usage and exiting."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relcalc",
        description=(
            "Exact calculus of linear relations: classify idempotents, build "
            "canonical forms, compute adjoints and subspace angles, and fuzz "
            "the whole identity suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", default=None, help="write to FILE")
        return p

    p = add("classify", _cmd_classify, "classification flags of a relation")
    p.add_argument("relation")

    p = add("parts", _cmd_parts, "dom/ran/ker/mul of a relation")
    p.add_argument("relation")

    # Subcommand "hat-sum" runs LinearRelation.hat_sum, and so on.
    for name, help_text in (
        ("compose", "product LEFT o RIGHT (RIGHT acts first)"),
        ("hat-sum", "graph sum of two relations"),
        ("meet", "graph intersection of two relations"),
        ("plus", "pointwise sum of two relations"),
    ):
        p = add(name, _cmd_binary, help_text)
        p.set_defaults(method=name.replace("-", "_"))
        p.add_argument("left")
        p.add_argument("right")

    for name, help_text in (
        ("adjoint", "adjoint relation"),
        ("inverse", "inverse relation"),
        ("one-minus", "I - T of a square relation"),
    ):
        p = add(name, _cmd_unary, help_text)
        p.set_defaults(method=name.replace("-", "_"))
        p.add_argument("relation")

    p = add("build", _cmd_build, "canonical idempotent constructions")
    p.add_argument("form", choices=("pmn", "pmns", "min", "max"))
    p.add_argument("spaces", nargs="+", help="subspace document files")

    p = add("triple", _cmd_triple, "kernel or range triple of an idempotent")
    p.add_argument("relation")
    p.add_argument("--kind", choices=("kernel", "range"), default="kernel")

    p = add("convert-triple", _cmd_convert_triple, "switch triple flavors")
    p.add_argument("triple")

    p = add("ic", _cmd_ic, "test the idempotency condition on three subspaces")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("s")

    p = add("angles", _cmd_angles, "Dixmier and Friedrichs cosines")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("fuzz", _cmd_fuzz, "run the randomized identity suite")
    p.add_argument("--dim", type=int, default=4, help="ambient dimension (max 8)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"default: ${DEFAULT_SEED_ENV} or 0",
    )
    p.add_argument("--max-entry", type=int, default=5)
    p.add_argument("--real", action="store_true", help="disable complex entries")
    p.add_argument(
        "--samples", type=int, default=100, help="extremality samples per instance"
    )
    p.add_argument("--checks", default=None, help="comma-separated check names")
    p.add_argument("--tol", type=float, default=1e-9, help="angle tolerance")

    add("checks", _cmd_checks, "list available fuzz checks")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except RelcalcError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
