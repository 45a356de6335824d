"""Command-line behavior: outputs, determinism, exit codes."""

import argparse
import contextlib
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from relcalc import Subspace, cli, semi_projection
from relcalc.cli import main
from relcalc.documents import parse_document
from relcalc.errors import ParseError


def write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def spaces(tmp_path):
    def sub(name, ambient, basis):
        return write(
            tmp_path / name,
            {"kind": "subspace", "version": "1", "ambient": ambient, "basis": basis},
        )

    return {
        "m": sub("m.sub", 3, [["1", "0", "0"]]),
        "n": sub("n.sub", 3, [["0", "1", "0"]]),
        "s": sub("s.sub", 3, [["0", "0", "1"]]),
        "diag": sub("diag.sub", 3, [["1", "1", "0"]]),
        "tmp": tmp_path,
    }


# (M+N) meet S and M meet N for m, n, diag: both error routes carry these.
IC_VIOLATION_CONTEXT = {
    "lhs": {"ambient": 3, "basis": [["1", "1", "0"]]},
    "rhs": {"ambient": 3, "basis": []},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ic_holds(spaces, capsys):
    code, out, _ = run(capsys, "ic", spaces["m"], spaces["n"], spaces["s"])
    assert code == 0
    assert out.strip() == "IC: holds"


def test_ic_violated(spaces, capsys):
    code, out, err = run(capsys, "ic", spaces["m"], spaces["n"], spaces["diag"])
    assert code == 4
    assert out.strip() == "IC: violated"
    record = json.loads(err)
    assert record["code"] == 4
    assert record["context"] == IC_VIOLATION_CONTEXT


def test_build_and_classify_round(spaces, capsys, tmp_path):
    rel_path = str(tmp_path / "e.rel")
    code, _, _ = run(
        capsys, "build", "pmns", spaces["m"], spaces["n"], spaces["s"], "-o", rel_path
    )
    assert code == 0
    code, out, _ = run(capsys, "classify", rel_path)
    assert code == 0
    flags = json.loads(out)
    assert flags["is_idempotent"] and flags["is_sub"] and flags["is_super"]
    assert not flags["is_semi_projection"]

    code, out, _ = run(capsys, "parts", rel_path)
    parts = json.loads(out)
    assert parts["dom"]["basis"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert parts["mul"]["basis"] == [["0", "0", "1"]]


def test_build_pmns_ic_violation_exit_code(spaces, capsys):
    code, _, err = run(
        capsys, "build", "pmns", spaces["m"], spaces["n"], spaces["diag"]
    )
    assert code == 4
    record = json.loads(err)
    assert record["code"] == 4
    assert record["context"] == IC_VIOLATION_CONTEXT


def test_build_pmn(spaces, capsys):
    code, out, _ = run(capsys, "build", "pmn", spaces["m"], spaces["n"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "relation"


def test_one_minus_requires_square(tmp_path, capsys):
    rect = write(
        tmp_path / "rect.rel",
        {
            "kind": "relation",
            "version": "1",
            "dim_in": 2,
            "dim_out": 3,
            "generators": [],
        },
    )
    code, _, err = run(capsys, "one-minus", rect)
    assert code == 3
    assert json.loads(err)["code"] == 3


def test_parse_error_exit_code(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.sub"
    bad.write_text("{broken")
    # Past Python's 4300-digit limit on int() of a string.
    long_literal = write(
        tmp_path / "long.rel",
        {
            "kind": "relation",
            "version": "1",
            "dim_in": 1,
            "dim_out": 1,
            "generators": [[["9" * 5000], ["1"]]],
        },
    )
    oversized = write(
        tmp_path / "oversized.rel",
        {"kind": "relation", "version": "1", "dim_in": 257, "dim_out": 1,
         "generators": []},
    )
    not_utf8 = tmp_path / "utf16.rel"
    not_utf8.write_bytes(b"\xff\xfe" + '{"kind": "relation"}'.encode("utf-16-le"))
    for path in (str(bad), long_literal, oversized, str(not_utf8)):
        code, _, err = run(capsys, "classify", path)
        assert code == 2
        assert json.loads(err)["code"] == 2
    assert json.loads(err)["context"] == {"path": str(not_utf8)}

    # An output path that cannot be written: a missing directory, or a
    # directory itself.
    good = write(
        tmp_path / "good.rel",
        {"kind": "relation", "version": "1", "dim_in": 1, "dim_out": 1,
         "generators": [[["1"], ["1"]]]},
    )
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        code, _, err = run(capsys, "classify", good, "-o", str(out))
        assert code == 2
        assert json.loads(err)["code"] == 2
        assert json.loads(err)["context"] == {"path": str(out)}

    monkeypatch.setenv("RELCALC_SEED", "abc")
    code, _, err = run(capsys, "fuzz", "--dim", "2", "--trials", "1")
    assert code == 2
    assert json.loads(err)["code"] == 2

    # Ill-typed options become error records, not usage text.
    for argv in (["fuzz", "--seed", "abc"], ["fuzz", "--dim", "x"]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert json.loads(err)["code"] == 2


def test_exact_output_past_the_digit_limit(tmp_path, capsys):
    # 3,000-digit entries parse; the rref of their span holds 2x2 minors of
    # about 6,000 digits, past Python's 4,300-digit int->str limit.
    rng = random.Random(7)
    rows = [[rng.randrange(10**2999, 10**3000) for _ in range(3)] for _ in range(2)]
    big = write(
        tmp_path / "big.sub",
        {
            "kind": "subspace",
            "version": "1",
            "ambient": 3,
            "basis": [[str(x) for x in row] for row in rows],
        },
    )
    small = write(
        tmp_path / "small.sub",
        {"kind": "subspace", "version": "1", "ambient": 3, "basis": [["0", "0", "1"]]},
    )
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "build", "pmn", big, small)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    entries = [x for pair in doc["generators"] for half in pair for x in half]
    assert max(len(x) for x in entries) > limit
    # Reading it back needs the limit lifted: the parse side keeps it.
    sys.set_int_max_str_digits(0)
    try:
        back = parse_document(out).payload
    finally:
        sys.set_int_max_str_digits(limit)
    expected = semi_projection(Subspace.span(rows, 3), Subspace.span([[0, 0, 1]], 3))
    assert back == expected


def test_wrong_kind_rejected(spaces, capsys):
    code, _, err = run(capsys, "classify", spaces["m"])
    assert code == 2


def test_triple_and_convert(spaces, capsys, tmp_path):
    rel_path = str(tmp_path / "e.rel")
    run(capsys, "build", "pmns", spaces["m"], spaces["n"], spaces["s"], "-o", rel_path)
    trip_path = str(tmp_path / "t.json")
    code, _, _ = run(capsys, "triple", rel_path, "-o", trip_path)
    assert code == 0
    code, out, _ = run(capsys, "convert-triple", trip_path)
    assert code == 0
    doc = json.loads(out)
    assert {"x", "y", "z"} <= set(doc)
    assert doc["z"]["basis"] == [["1", "0", "0"], ["0", "1", "0"]]


def test_relation_ops_roundtrip(spaces, capsys, tmp_path):
    rel_path = str(tmp_path / "p.rel")
    run(capsys, "build", "pmn", spaces["m"], spaces["n"], "-o", rel_path)
    for cmd in ("adjoint", "inverse", "one-minus"):
        code, out, _ = run(capsys, cmd, rel_path)
        assert code == 0
        assert json.loads(out)["kind"] == "relation"
    for cmd in ("compose", "hat-sum", "meet", "plus"):
        code, out, _ = run(capsys, cmd, rel_path, rel_path)
        assert code == 0
        assert json.loads(out)["kind"] == "relation"


def test_angles_record(spaces, capsys, tmp_path):
    plane = write(
        tmp_path / "plane.sub",
        {
            "kind": "subspace",
            "version": "1",
            "ambient": 3,
            "basis": [["1", "0", "0"], ["0", "1", "0"]],
        },
    )
    code, out, _ = run(capsys, "angles", plane, spaces["diag"])
    assert code == 0
    rec = json.loads(out)
    # the diagonal line lies inside the plane: 1-dim meet, empty quotient
    assert rec["intersection_dim"] == 1
    assert rec["friedrichs_cos"] == 0.0
    assert rec["dixmier_cos"] == pytest.approx(1.0, abs=1e-9)


def test_angles_of_mixed_ambients_is_a_dimension_error(spaces, capsys, tmp_path):
    line = write(
        tmp_path / "line.sub",
        {"kind": "subspace", "version": "1", "ambient": 2, "basis": [["1", "0"]]},
    )
    code, out, err = run(capsys, "angles", line, spaces["m"])
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "code": 3,
        "message": "mixed ambient dimensions [2, 3]",
        "context": {},
    }


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "1e-300", "inf", "0.6"])
def test_bad_tolerance_is_a_precondition_error(spaces, capsys, tol):
    for argv in (
        ["angles", spaces["m"], spaces["diag"], "--tol", tol],
        ["fuzz", "--trials", "1", "--checks", "angle_range_symmetry", "--tol", tol],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 4
        assert json.loads(err)["code"] == 4


def test_fuzz_deterministic_and_passing(capsys, tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    args = ["fuzz", "--dim", "3", "--trials", "3", "--seed", "11"]
    assert main(args + ["-o", out1]) == 0
    assert main(args + ["-o", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    report = json.loads(b1)
    assert report["pass"] is True
    assert report["config"]["seed"] == 11
    capsys.readouterr()


def test_fuzz_seed_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELCALC_SEED", "77")
    out = str(tmp_path / "r.json")
    assert main(["fuzz", "--dim", "2", "--trials", "2", "-o", out]) == 0
    assert json.loads(open(out).read())["config"]["seed"] == 77
    capsys.readouterr()


def test_fuzz_unwritable_output_fails_before_the_suite(tmp_path, capsys, monkeypatch):
    from relcalc import verifier

    def never(*args):
        raise AssertionError("the suite ran before the output path was checked")

    monkeypatch.setattr(verifier, "verify_suite", never)
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        code, _, err = run(
            capsys, "fuzz", "--dim", "2", "--trials", "1", "-o", str(out)
        )
        assert code == 2
        assert json.loads(err)["code"] == 2
        assert json.loads(err)["context"] == {"path": str(out)}


def test_fuzz_failing_suite_leaves_its_report(tmp_path, capsys):
    from relcalc.verifier import CHECKS, CheckSpec, ce

    name = "deliberately_failing"
    CHECKS[name] = CheckSpec(
        name, lambda rng, cfg: ce("fails on purpose"), ("self-test",)
    )
    out = tmp_path / "report.json"
    try:
        code = main(
            ["fuzz", "--dim", "2", "--trials", "1", "--checks", name, "-o", str(out)]
        )
    finally:
        del CHECKS[name]
    capsys.readouterr()
    assert code == 5
    assert json.loads(out.read_text())["pass"] is False


def test_fuzz_raising_suite_leaves_no_new_report(tmp_path, capsys):
    from relcalc.verifier import CHECKS, CheckSpec

    kept = tmp_path / "kept.json"
    kept.write_text("earlier report")
    CHECKS["raising"] = CheckSpec("raising", lambda rng, cfg: 1 // 0, ("self-test",))
    try:
        for check, code in (("not_a_check", 4), ("raising", 5)):
            for out in (tmp_path / "new.json", kept):
                argv = ["fuzz", "--trials", "1", "--checks", check, "-o", str(out)]
                assert run(capsys, *argv)[0] == code
    finally:
        del CHECKS["raising"]
    assert [p.name for p in tmp_path.iterdir()] == ["kept.json"]
    assert kept.read_text() == "earlier report"


def test_fuzz_check_selection(capsys):
    code, out, _ = run(
        capsys,
        "fuzz",
        "--dim",
        "3",
        "--trials",
        "2",
        "--seed",
        "5",
        "--checks",
        "subspace_demorgan,adjoint_parts",
    )
    assert code == 0
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert names == ["subspace_demorgan", "adjoint_parts"]


def test_fuzz_unknown_check(capsys):
    code, _, err = run(
        capsys, "fuzz", "--trials", "1", "--checks", "not_a_check"
    )
    assert code == 4
    assert json.loads(err) == {
        "code": 4,
        "message": "unknown checks: 'not_a_check'",
        "context": {"checks": ["not_a_check"]},
    }


def test_checks_listing(capsys):
    code, out, _ = run(capsys, "checks")
    assert code == 0
    listing = json.loads(out)
    assert "idempotent_adjoint_triple" in listing


def test_duplicate_keys_are_a_parse_error(tmp_path, capsys):
    # Two "ambient" keys, 2 then 3: no silent choice of the last one.
    dup = tmp_path / "dup.sub"
    dup.write_text(
        '{"kind": "subspace", "version": "1", "ambient": 2, "ambient": 3, '
        '"basis": []}'
    )
    nested = tmp_path / "nested.json"
    nested.write_text(
        '{"kind": "triple", "version": "1", "ambient": 1, '
        '"m": {"ambient": 1, "basis": [], "basis": [["1"]]}, '
        '"n": {"ambient": 1, "basis": []}, "s": {"ambient": 1, "basis": []}}'
    )
    for argv, key in (
        (["inverse", str(dup)], "ambient"),
        (["convert-triple", str(nested)], "basis"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        record = json.loads(err)
        assert record["code"] == 2
        assert repr(key) in record["message"]
        assert record["context"] == {"key": key}


def test_non_ascii_digits_are_a_parse_error(tmp_path, capsys):
    path = write(
        tmp_path / "arabic.sub",
        {"kind": "subspace", "version": "1", "ambient": 2, "basis": [["١", "0"]]},
    )
    code, out, err = run(capsys, "parts", path)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": 2,
        "message": "malformed scalar '١' at $.basis[0][0]",
        "context": {"field": "$.basis[0][0]"},
    }


INTEGER_OPTIONS = ["--dim", "--trials", "--seed", "--max-entry", "--samples"]


@pytest.mark.parametrize("text", ["٤", "４", "1_0", " 1_0 ", "+-1", ""])
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integer_options_take_ascii_digits_only(capsys, option, text):
    # int() reads "٤" as 4 and "1_0" as 10; a CLI integer follows the rule
    # of scalar strings instead.
    argv = ["fuzz", "--trials", "1", "--checks", "subspace_demorgan", option, text]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": 2,
        "message": f"relcalc fuzz: argument {option}: invalid int value: {text!r}",
        "context": {},
    }


@pytest.mark.parametrize("text", ["٧", " 7_0 ", "7_0"])
def test_seed_variable_takes_ascii_digits_only(capsys, monkeypatch, text):
    monkeypatch.setenv("RELCALC_SEED", text)
    argv = ["fuzz", "--dim", "2", "--trials", "1", "--checks", "subspace_demorgan"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": 2,
        "message": f"$RELCALC_SEED must be an integer, got {text!r}",
        "context": {"variable": "RELCALC_SEED"},
    }


def test_integer_options_allow_padding_and_a_sign(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("RELCALC_SEED", " +7 ")
    out = str(tmp_path / "r.json")
    argv = ["fuzz", "--dim", " 2 ", "--trials", "+1", "--max-entry", "\t3\n"]
    assert main([*argv, "--checks", "subspace_demorgan", "-o", out]) == 0
    config = json.loads(open(out).read())["config"]
    assert (config["seed"], config["ambient_dim"], config["trials"]) == (7, 2, 1)
    assert config["max_entry"] == 3
    assert main(["fuzz", "--seed", "-3", "--dim", "2", "--trials", "1",
                 "--checks", "subspace_demorgan", "-o", out]) == 0
    assert json.loads(open(out).read())["config"]["seed"] == -3
    capsys.readouterr()


def test_fuzz_repeated_check(capsys):
    # Like an unknown name: exit 4 before any trial, and the message names it.
    code, out, err = run(
        capsys, "fuzz", "--trials", "1", "--checks",
        "subspace_demorgan,complement_membership,subspace_demorgan",
    )
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "code": 4,
        "message": "repeated checks: 'subspace_demorgan'",
        "context": {"checks": ["subspace_demorgan"]},
    }


@pytest.mark.parametrize(
    "checks, names",
    [
        ("subspace_demorgan,", [""]),
        (",", ["", ""]),
        ("", [""]),
        ("subspace_demorgan, subspace_demorgan", [" subspace_demorgan"]),
        (",subspace_demorgan ,adjoint_parts", ["", "subspace_demorgan "]),
    ],
)
def test_fuzz_empty_or_padded_check_names(capsys, checks, names):
    # No part of --checks is stripped or dropped; the record quotes each
    # unknown name, so an empty or padded one shows.
    code, out, err = run(capsys, "fuzz", "--trials", "1", "--checks", checks)
    assert (code, out) == (4, "")
    assert json.loads(err) == {
        "code": 4,
        "message": "unknown checks: " + ", ".join(map(repr, names)),
        "context": {"checks": names},
    }


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_subcommand_answers_help_and_unknown_options(capsys):
    for name in cli._SUBCOMMANDS:
        code, out, err = _outcome(capsys, [name, "--help"])
        assert (code, err) == (0, "") and out.startswith(f"usage: relcalc {name} [options]")
        code, out, err = _outcome(capsys, [name, "--no-such-option"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and json.loads(err)["code"] == 2
    code, out, err = _outcome(capsys, ["--help"])
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()[4:]] == list(cli._SUBCOMMANDS)


def reference_parser():
    """The standard library's parser, built from ``cli._SUBCOMMANDS``: the
    reference that ``cli._parse`` reads every command line by."""

    class Reference(argparse.ArgumentParser):
        def error(self, message):
            raise ParseError(f"{self.prog}: {message}")

    parser = Reference(prog="relcalc")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, about, arguments) in cli._SUBCOMMANDS.items():
        command = sub.add_parser(name, help=about)
        command.set_defaults(fn=fn)
        for flags, options in [cli._OUTPUT, *arguments]:
            if options.get("type") is cli._integer:
                options = {**options, "type": reference_integer}
            command.add_argument(*flags.split("/"), **options)
    return parser


def reference_integer(text):
    """``cli._integer`` as the reference parser's type: a bad value raises
    the reference's own error, so that it prefixes the argument's name."""
    try:
        return cli._integer(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(exc.message) from None


REFERENCE = reference_parser()
VALUES = [
    "a.rel", "b.rel", "-", "", "--", "-3", "-.5", "-1.", "-1e-9", "1e-9", "nan",
    "+4", "٣", "1_0", " 2 ", "x y", "-x y", "-٣", "pmn", "pmns", "min", "max", "bad",
    "kernel", "range", "kern",
]
JUNK = ["--no-such-option", "-x", "--=x", "-h", "--help", "--he", "-hh", "-ho", "-o", "--"]


def spellings(flags):
    """An option's flags and every prefix of its long flag, unique or not."""
    names = flags.split("/")
    return names + [name[:k] for name in names if name[:2] == "--" for k in range(3, len(name))]


@st.composite
def option_args(draw, flags, options):
    flag = draw(st.sampled_from(spellings(flags)))
    if "action" in options:
        return draw(st.sampled_from([[flag], [flag + "=x"], [flag + "="]]))
    value = draw(st.sampled_from(VALUES))
    form = draw(st.sampled_from(("apart", "apart", "equals", "attached", "missing")))
    if form == "equals":
        return [f"{flag}={value}"]
    if form == "attached" and flag[1] != "-":
        return [flag + value]
    return [flag] if form == "missing" else [flag, value]


@st.composite
def command_lines(draw):
    """A subcommand's arguments in some order, the options repeated or
    misspelt, then a few tokens dropped or inserted."""
    name = draw(st.sampled_from(list(cli._SUBCOMMANDS)))
    arguments = [cli._OUTPUT, *cli._SUBCOMMANDS[name][2]]
    groups = []
    for flags, options in arguments:
        if flags[0] != "-":
            count = draw(st.integers(1, 4)) if "nargs" in options else 1
            values = ["a.rel", "b.rel", "-3", "-", *options.get("choices", ())]
            groups += [[draw(st.sampled_from(values))] for _ in range(count)]
    for flags, options in arguments:
        if flags[0] == "-":
            for _ in range(draw(st.integers(0, 2))):
                at = draw(st.integers(0, len(groups)))
                groups.insert(at, draw(option_args(flags, options)))
    argv = [arg for group in groups for arg in group]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        if draw(st.booleans()) and at < len(argv):
            del argv[at]
        else:
            argv.insert(at, draw(st.sampled_from(VALUES + JUNK)))
    head = draw(st.sampled_from(([name],) * 6 + ([], ["-x", name], ["--", name], ["bogus"],
                                                  ["-h", name], ["--he"], ["--help=x"])))
    return head + argv


def quirk(argv):
    """The command lines on which ``cli._parse`` differs from the reference
    on purpose: a ``--`` given as a value (after the first ``--``, or as the
    text of an option such as ``-o--`` or ``--tol=--``), which the reference
    drops, leaving an empty list as the value; and ``-h`` with characters
    after it, which the reference splits into more short options."""
    after = argv[argv.index("--") + 1:] if "--" in argv else []
    return "--" in after or any(
        arg != "--" and (arg.partition("=")[2] == "--" or arg == "-o--")
        or arg[:2] == "-h" and len(arg) > 2 for arg in argv)


def outcome(parse, argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = parse(list(argv))
    except SystemExit as exc:  # the reference's help
        return "help", exc.code
    except ParseError as exc:
        return "error", exc.message
    return ("help", 0) if args is None else ("ok", vars(args))


@settings(max_examples=800, derandomize=True, deadline=None)
@given(argv=command_lines())
def test_parser_reads_argv_as_the_standard_parser(argv):
    """Both parsers accept or reject alike, with the same values or the same
    usage-error message, or both print help; ``cli._parse`` raises nothing
    but ``ParseError`` on any command line."""
    mine = outcome(cli._parse, argv)
    if quirk(argv):
        assert mine[0] in ("ok", "error", "help")
    else:
        assert mine == outcome(REFERENCE.parse_args, argv)


def test_parser_quirks():
    """The deliberate differences of ``quirk``: a literal ``--`` is a value,
    and ``-h`` takes no characters after it."""
    assert cli._parse(["compose", "a", "--", "--"]).right == "--"
    assert cli._parse(["classify", "x", "-o--"]).output == "--"
    with pytest.raises(ParseError, match="invalid float value: '--'"):
        cli._parse(["angles", "a", "b", "--tol=--"])
    for argv in (["classify", "x", "-hh"], ["-hh"], ["build", "-ho", "f", "pmn", "a"]):
        with pytest.raises(ParseError, match="ignored explicit argument"):
            cli._parse(argv)
