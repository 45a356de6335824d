"""Command-line surface of the relation calculus.

Every subcommand reads document files (see :mod:`relcalc.documents`), writes
a deterministic result to stdout or ``-o FILE``, and signals failure through
exit codes: 0 ok, 2 parse error, 3 dimension error, 4 violated mathematical
precondition, 5 breached internal invariant (including fuzz counterexamples).

Each handler imports the modules that only it runs (idempotents, angles, the
verifier), and the command line is read from the subcommand table with no
parser library, so one process loads no more than its subcommand needs.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from types import SimpleNamespace

from . import documents
from .errors import ICViolationError, ParseError, RelcalcError

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


# -- subcommand handlers -----------------------------------------------------


def _cmd_classify(args) -> int:
    from .idempotents import classify

    e = _load_kind(args.relation, "relation")
    _emit_json(documents.plain(classify(e)._asdict()), args.output)
    return 0


def _cmd_parts(args) -> int:
    e = _load_kind(args.relation, "relation")
    record = {**e.parts()._asdict(), "graph_dim": e.graph.dim}
    _emit_json(documents.plain(record), args.output)
    return 0


def _cmd_binary(args) -> int:
    a = _load_kind(args.left, "relation")
    b = _load_kind(args.right, "relation")
    # Subcommand "hat-sum" runs LinearRelation.hat_sum, and so on.
    _emit_document(getattr(a, args.command.replace("-", "_"))(b), args.output)
    return 0


def _cmd_unary(args) -> int:
    t = _load_kind(args.relation, "relation")
    _emit_document(getattr(t, args.command.replace("-", "_"))(), args.output)
    return 0


def _cmd_build(args) -> int:
    from . import idempotents

    spaces = [_load_kind(p, "subspace") for p in args.spaces]
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

    e = _load_kind(args.relation, "relation")
    _emit_document(getattr(idempotents, f"{args.kind}_triple")(e), args.output)
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
    from .idempotents import IdempotentTriple

    m = _load_kind(args.m, "subspace")
    n = _load_kind(args.n, "subspace")
    s = _load_kind(args.s, "subspace")
    try:
        IdempotentTriple(m, n, s)
    except ICViolationError:
        _emit("IC: violated", args.output)
        raise
    _emit("IC: holds", args.output)
    return 0


def _cmd_angles(args) -> int:
    from .angles import angles_record

    s = _load_kind(args.left, "subspace")
    t = _load_kind(args.right, "subspace")
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
        except ParseError:
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
    _emit_document(report, args.output)
    return 0 if report["pass"] else 5


def _cmd_checks(args) -> int:
    from .verifier import CHECKS

    record = {
        name: {"claims": list(spec.claims), "angle": spec.angle}
        for name, spec in CHECKS.items()
    }
    _emit_json(record, args.output)
    return 0


# -- command line ---------------------------------------------------------------
#
# ``_SUBCOMMANDS`` is the command-line spec: an argument is ``(flags, options)``
# in the terms of the standard library's parser, whose reading of an argv
# ``_parse`` follows without loading it (or gettext and locale with it).


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
    raise ParseError(f"invalid int value: {text!r}")


_HELP = ("-h/--help", dict(help="show this help and exit"))
_OUTPUT = ("-o/--output", dict(help="write to FILE"))
_RELATION = [("relation", {})]
_LEFT_RIGHT = [("left", {}), ("right", {})]

# Subcommand: handler, help text, and the arguments after -h and -o.
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
            ("form", dict(choices=("pmn", "pmns", "min", "max"))),
            ("spaces", dict(nargs="+", help="subspace document files")),
        ],
    ),
    "triple": (
        _cmd_triple,
        "kernel or range triple of an idempotent",
        [*_RELATION, ("--kind", dict(choices=("kernel", "range"), default="kernel"))],
    ),
    "convert-triple": (_cmd_convert_triple, "switch triple flavors", [("triple", {})]),
    "ic": (
        _cmd_ic,
        "test the idempotency condition on three subspaces",
        [("m", {}), ("n", {}), ("s", {})],
    ),
    "angles": (
        _cmd_angles,
        "Dixmier and Friedrichs cosines",
        [*_LEFT_RIGHT, ("--tol", dict(type=float, default=1e-9))],
    ),
    "fuzz": (
        _cmd_fuzz,
        "run the randomized identity suite",
        [
            ("--dim", dict(type=_integer, default=4, help="ambient dimension (max 8)")),
            ("--trials", dict(type=_integer, default=100)),
            ("--seed", dict(type=_integer, help=f"default: ${DEFAULT_SEED_ENV} or 0")),
            ("--max-entry", dict(type=_integer, default=5)),
            ("--real", dict(action="store_true", default=False, help="disable complex entries")),
            ("--samples", dict(type=_integer, default=100, help="extremality samples per instance")),
            ("--checks", dict(help="comma-separated check names")),
            ("--tol", dict(type=float, default=1e-9, help="angle tolerance")),
        ],
    ),
    "checks": (_cmd_checks, "list available fuzz checks", []),
}
_DESCRIPTION = (
    "Exact calculus of linear relations: classify idempotents, build canonical forms, "
    "compute adjoints and subspace angles, and fuzz the whole identity suite."
)
# "-3" and "-.5" are values, not options; compiled only when an argument needs it.
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _option(prog: str, arg: str, flags):
    """None for a value, else ``(flag, text after = or a short flag, or None)``,
    or ``(None, arg)`` for an unknown option; long options take prefixes."""
    if arg in flags:
        return arg, None
    if len(arg) < 2 or arg[0] != "-":
        return None
    head, eq, tail = arg.partition("=")
    if eq and head in flags:
        return head, tail
    if arg[1] == "-":
        hits, tail = [flag for flag in flags if flag.startswith(head)], tail if eq else None
    else:
        hits, tail = [flag for flag in flags if flag == arg[:2]], arg[2:]
    if len(hits) > 1:
        raise ParseError(f"{prog}: ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return hits[0], tail
    return None if re.match(_NEGATIVE, arg) or " " in arg else (None, arg)


def _value(prog: str, flags: str, options: dict, text: str):
    kind = options.get("type", str)
    try:
        value = kind(text)
    except (ValueError, ParseError) as exc:
        message = getattr(exc, "message", f"invalid {kind.__name__} value: {text!r}")
        raise ParseError(f"{prog}: argument {flags}: {message}") from None
    if value not in options.get("choices", (value,)):
        choices = ", ".join(map(repr, options["choices"]))
        raise ParseError(f"{prog}: argument {flags}: invalid choice: {value!r} (choose from {choices})")
    return value


def _help(usage: str, about: str, rows):
    sys.stdout.write(f"usage: {usage}\n\n{about}\n\n")
    sys.stdout.writelines(f"  {left:<16}  {right}".rstrip() + "\n" for left, right in rows)


def _describe(flags: str, options: dict):
    """One line of a subcommand's help: an argument, its help, choices and default."""
    notes = [options.get("help"), "choices" in options and "one of " + ", ".join(
        options["choices"]), options.get("default") and f"(default: {options['default']})"]
    return flags.replace("/", ", "), " ".join(filter(None, notes))


def _parse_command(name: str, argv: list):
    """``name``'s arguments as a namespace and the unrecognized ones, or None
    once it printed its help."""
    fn, about, arguments = _SUBCOMMANDS[name]
    prog, spec = f"relcalc {name}", [_HELP, _OUTPUT, *arguments]
    flags = {f: entry for entry in spec if entry[0][0] == "-" for f in entry[0].split("/")}
    dest = {f: f.split("/")[-1].lstrip("-").replace("-", "_") for f, _ in spec}
    defaults = {dest[f]: options.get("default") for f, options in spec[1:]}
    args = SimpleNamespace(command=name, fn=fn, **defaults)
    pending = [entry for entry in spec if entry[0][0] != "-"]
    cut = argv.index("--") if "--" in argv else len(argv)  # the rest are values
    items = [_option(prog, arg, flags) or arg for arg in argv[:cut]]
    items += [None, *argv[cut + 1:]] * (cut < len(argv))  # None marks the "--"
    extras, run, it = [], [], iter([*items, ()])
    for item in it:
        if not isinstance(item, tuple):
            run.append(item)
            continue
        # The values before an option fill the waiting positionals in turn, one
        # each or all that are left for nargs="+", a "--" going with its
        # neighbours; what none takes is left over.
        while pending and any(v is not None for v in run):
            names, options = pending.pop(0)
            stop = len(run) if "nargs" in options else 1 + (run[0] is None)
            while stop < len(run) and run[stop] is None:
                stop += 1
            got = [_value(prog, names, options, v) for v in run[:stop] if v is not None]
            setattr(args, names, got if "nargs" in options else got[0])
            del run[:stop]
        extras += ["--" if v is None else v for v in run]
        run = []
        if not item:
            break
        flag, attached = item
        if flag is None:
            extras.append(attached)
            continue
        names, options = flags[flag]
        if names == _HELP[0] or "action" in options:
            if attached is not None:
                raise ParseError(f"{prog}: argument {names}: ignored explicit argument {attached!r}")
            if names == _HELP[0]:
                usage = [f + " ..." * ("nargs" in o) for f, o in arguments if f[0] != "-"]
                usage = " ".join([prog, "[options]", *usage])
                return _help(usage, about, [_describe(*entry) for entry in spec])
            setattr(args, dest[names], True)
            continue
        if attached is None:
            attached = next(it)
            if not isinstance(attached, str):
                raise ParseError(f"{prog}: argument {names}: expected one argument")
        setattr(args, dest[names], _value(prog, names, options, attached))
    if pending:
        missing = ", ".join(names for names, _ in pending)
        raise ParseError(f"{prog}: the following arguments are required: {missing}")
    return args, extras


def _parse(argv: list):
    """The parsed command line, or None once it printed help.  Before the
    subcommand only ``-h``/``--help`` is an option."""
    extras = []
    for i, arg in enumerate(argv):
        item = arg != "--" and _option("relcalc", arg, ("-h", "--help"))
        if not item:
            break
        if item[0] is None:
            extras.append(arg)
        elif item[1] is not None:
            raise ParseError(f"relcalc: argument -h/--help: ignored explicit argument {item[1]!r}")
        else:
            commands = [(name, entry[1]) for name, entry in _SUBCOMMANDS.items()]
            return _help("relcalc COMMAND [options] ...", _DESCRIPTION, commands)
    else:
        raise ParseError("relcalc: the following arguments are required: command")
    _value("relcalc", "command", dict(choices=tuple(_SUBCOMMANDS)), arg)
    args, more = _parse_command(arg, argv[i + 1:]) or (None, [])
    if args and (extras or more):
        raise ParseError(f"relcalc: unrecognized arguments: {' '.join(extras + more)}")
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(list(argv))
        return 0 if args is None else args.fn(args)
    except RelcalcError as exc:
        sys.stderr.write(json.dumps(exc.record(), sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
