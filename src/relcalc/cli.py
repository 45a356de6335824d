"""Command-line surface of the relation calculus.

Every subcommand reads document files (see :mod:`relcalc.documents`), writes
a deterministic result to stdout or ``-o FILE``, and signals failure through
exit codes: 0 ok, 2 parse error, 3 dimension error, 4 violated mathematical
precondition, 5 breached internal invariant (including fuzz counterexamples).

Each handler imports the modules that only it runs (idempotents, angles, the
verifier), and the parser of a named subcommand holds only that subcommand,
so one process loads and builds no more than its subcommand needs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import documents
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
        _write(path, "w", text)


def _write(path: str, mode: str, text: str):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc.strerror}", path=path) from None


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
    from .idempotents import classify

    e = _load_relation(args.relation)
    record = classify(e)._asdict()
    record["witnesses"] = {
        key: None if pair is None else [[str(z) for z in half] for half in pair]
        for key, pair in record["witnesses"].items()
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


def _method(args) -> str:
    """Subcommand "hat-sum" runs LinearRelation.hat_sum, and so on."""
    return args.command.replace("-", "_")


def _cmd_binary(args) -> int:
    a = _load_relation(args.left)
    b = _load_relation(args.right)
    _emit_document(getattr(a, _method(args))(b), args.output)
    return 0


def _cmd_unary(args) -> int:
    t = _load_relation(args.relation)
    _emit_document(getattr(t, _method(args))(), args.output)
    return 0


def _cmd_build(args) -> int:
    from . import idempotents

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
    from . import idempotents

    e = _load_relation(args.relation)
    if args.kind == "kernel":
        triple = idempotents.kernel_triple(e)
    else:
        triple = idempotents.range_triple(e)
    _emit_document(triple, args.output)
    return 0


def _cmd_convert_triple(args) -> int:
    from . import idempotents

    payload = _load_kind(args.triple, "triple")
    if isinstance(payload, idempotents.IdempotentTriple):
        result = idempotents.triple_convert(payload)
    else:
        result = idempotents.range_to_kernel(payload)
    _emit_document(result, args.output)
    return 0


def _cmd_ic(args) -> int:
    from .idempotents import require_ic

    m = _load_subspace(args.m)
    n = _load_subspace(args.n)
    s = _load_subspace(args.s)
    try:
        require_ic(m, n, s)
    except ICViolationError:
        _emit("IC: violated", args.output)
        raise
    _emit("IC: holds", args.output)
    return 0


def _cmd_angles(args) -> int:
    from .angles import angles_record

    s = _load_subspace(args.left)
    t = _load_subspace(args.right)
    record = angles_record(s, t, args.tol)
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
            seed = _integer(text)
        except argparse.ArgumentTypeError:
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
    names = None if args.checks is None else args.checks.split(",")
    fresh = args.output is not None and not os.path.lexists(args.output)
    if args.output is not None:
        # Fail on an unwritable report path before the suite spends its time;
        # a file the probe created goes again if the suite raises.
        _write(args.output, "a", "")
    try:
        report = verify_suite(cfg, names)
    except BaseException:
        if fresh:
            with contextlib.suppress(OSError):
                os.remove(args.output)
        raise
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


def _integer(text: str) -> int:
    """An integer option or ``$RELCALC_SEED``, by the rule of scalar strings:
    surrounding whitespace, an optional sign and ASCII digits.  ``int()``
    alone would also read non-ASCII digits and ``_`` separators."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if digits.isascii() and digits.isdigit():
        try:
            return int(body)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _arg(*flags, **options):
    """One ``add_argument`` call, kept until its subparser is built."""
    return flags, options


_RELATION = [_arg("relation")]
_LEFT_RIGHT = [_arg("left"), _arg("right")]

# Subcommand: handler, help text, and the arguments after -o.
_SUBCOMMANDS = {
    "classify": (_cmd_classify, "classification flags of a relation", _RELATION),
    "parts": (_cmd_parts, "dom/ran/ker/mul of a relation", _RELATION),
    "compose": (_cmd_binary, "product LEFT o RIGHT (RIGHT acts first)", _LEFT_RIGHT),
    "hat-sum": (_cmd_binary, "graph sum of two relations", _LEFT_RIGHT),
    "meet": (_cmd_binary, "graph intersection of two relations", _LEFT_RIGHT),
    "plus": (_cmd_binary, "pointwise sum of two relations", _LEFT_RIGHT),
    "adjoint": (_cmd_unary, "adjoint relation", _RELATION),
    "inverse": (_cmd_unary, "inverse relation", _RELATION),
    "one-minus": (_cmd_unary, "I - T of a square relation", _RELATION),
    "build": (
        _cmd_build,
        "canonical idempotent constructions",
        [
            _arg("form", choices=("pmn", "pmns", "min", "max")),
            _arg("spaces", nargs="+", help="subspace document files"),
        ],
    ),
    "triple": (
        _cmd_triple,
        "kernel or range triple of an idempotent",
        [*_RELATION, _arg("--kind", choices=("kernel", "range"), default="kernel")],
    ),
    "convert-triple": (_cmd_convert_triple, "switch triple flavors", [_arg("triple")]),
    "ic": (
        _cmd_ic,
        "test the idempotency condition on three subspaces",
        [_arg("m"), _arg("n"), _arg("s")],
    ),
    "angles": (
        _cmd_angles,
        "Dixmier and Friedrichs cosines",
        [*_LEFT_RIGHT, _arg("--tol", type=float, default=1e-9)],
    ),
    "fuzz": (
        _cmd_fuzz,
        "run the randomized identity suite",
        [
            _arg("--dim", type=_integer, default=4, help="ambient dimension (max 8)"),
            _arg("--trials", type=_integer, default=100),
            _arg(
                "--seed",
                type=_integer,
                default=None,
                help=f"default: ${DEFAULT_SEED_ENV} or 0",
            ),
            _arg("--max-entry", type=_integer, default=5),
            _arg("--real", action="store_true", help="disable complex entries"),
            _arg(
                "--samples",
                type=_integer,
                default=100,
                help="extremality samples per instance",
            ),
            _arg("--checks", default=None, help="comma-separated check names"),
            _arg("--tol", type=float, default=1e-9, help="angle tolerance"),
        ],
    ),
    "checks": (_cmd_checks, "list available fuzz checks", []),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The command-line parser.  When ``argv`` starts with a subcommand, the
    parser holds only that one: no other subparser can take part in the
    parse, so usage errors, help and exit codes are those of the full
    parser, which ``-h``, an empty or an unknown command gets."""
    parser = _Parser(
        prog="relcalc",
        description=(
            "Exact calculus of linear relations: classify idempotents, build "
            "canonical forms, compute adjoints and subspace angles, and fuzz "
            "the whole identity suite."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(_SUBCOMMANDS)
    if argv and argv[0] in _SUBCOMMANDS:
        names = [argv[0]]
    for name in names:
        fn, help_text, arguments = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("-o", "--output", default=None, help="write to FILE")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        return args.fn(args)
    except RelcalcError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
