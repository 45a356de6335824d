"""Command-line behavior: outputs, determinism, exit codes."""

import json
import random
import sys

import pytest

from relcalc import Subspace, semi_projection
from relcalc.cli import main
from relcalc.documents import parse_document


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
    for path in (str(bad), long_literal, oversized):
        code, _, err = run(capsys, "classify", path)
        assert code == 2
        assert json.loads(err)["code"] == 2

    monkeypatch.setenv("RELCALC_SEED", "abc")
    code, _, err = run(capsys, "fuzz", "--dim", "2", "--trials", "1")
    assert code == 2
    assert json.loads(err)["code"] == 2

    # Ill-typed options: argparse errors become records, not usage text.
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


def test_checks_listing(capsys):
    code, out, _ = run(capsys, "checks")
    assert code == 0
    listing = json.loads(out)
    assert "idempotent_adjoint_triple" in listing
