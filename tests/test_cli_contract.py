"""The CLI contract as a property: for valid documents and for mutated ones,
every subcommand exits 0, 2, 3 or 4; an error prints exactly one JSON
record whose code is the exit code and leaves no output file; and an
output at exit 0 reads back."""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from relcalc.cli import main
from relcalc.documents import load_document, parse_document

DIGIT_LIMIT = sys.get_int_max_str_digits() or 4300


@st.composite
def scalars(draw, real):
    p = draw(st.integers(-3, 3))
    q = draw(st.sampled_from((1, 1, 2, 3)))
    text = str(p) if q == 1 else f"{p}/{q}"
    if not real and draw(st.booleans()):
        r = draw(st.integers(1, 3))
        text += draw(st.sampled_from(("+", "-"))) + f"{r}i"
    return text


@st.composite
def subspace_bodies(draw, n, real):
    shape = draw(st.sampled_from(("zero", "full", "random", "random")))
    if shape == "zero":
        basis = []
    elif shape == "full":
        basis = [["1" if j == i else "0" for j in range(n)] for i in range(n)]
    else:
        vector = st.lists(scalars(real), min_size=n, max_size=n)
        basis = draw(st.lists(vector, max_size=n))
    return {"ambient": n, "basis": basis}


@st.composite
def relation_bodies(draw, n, real):
    basis = draw(subspace_bodies(2 * n, real))["basis"]
    return {"dim_in": n, "dim_out": n, "generators": [[v[:n], v[n:]] for v in basis]}


@st.composite
def triple_bodies(draw, n, real):
    names = draw(st.sampled_from(("mns", "xyz")))
    return {"ambient": n, **{k: draw(subspace_bodies(n, real)) for k in names}}


# Per case: the subcommand's fixed arguments and the kinds of its inputs.
COMMANDS = {
    "classify": ([], ["relation"]),
    "parts": ([], ["relation"]),
    "adjoint": ([], ["relation"]),
    "inverse": ([], ["relation"]),
    "one-minus": ([], ["relation"]),
    "triple-kernel": (["--kind", "kernel"], ["relation"]),
    "triple-range": (["--kind", "range"], ["relation"]),
    "compose": ([], ["relation", "relation"]),
    "hat-sum": ([], ["relation", "relation"]),
    "meet": ([], ["relation", "relation"]),
    "plus": ([], ["relation", "relation"]),
    "build-pmn": (["pmn"], ["subspace"] * 2),
    "build-pmns": (["pmns"], ["subspace"] * 3),
    "build-min": (["min"], ["subspace"] * 3),
    "build-max": (["max"], ["subspace"] * 3),
    "ic": ([], ["subspace"] * 3),
    "angles": ([], ["subspace"] * 2),
    "convert-triple": ([], ["triple"]),
    "fuzz": (["--dim", "2", "--trials", "1", "--checks", "subspace_demorgan"], []),
    "checks": ([], []),
}
DOCUMENT_OUTPUT = {
    "adjoint", "inverse", "one-minus", "triple", "compose", "hat-sum", "meet",
    "plus", "build", "convert-triple", "fuzz",
}


@st.composite
def inputs(draw, kinds):
    """Valid documents for ``kinds`` that share one dimension, so that most
    combinations are well formed: relations are square and subspaces share
    their ambient."""
    n = draw(st.integers(0, 4))
    real = draw(st.booleans())
    bodies = {"relation": relation_bodies, "subspace": subspace_bodies,
              "triple": triple_bodies}
    return [{"kind": kind, "version": "1", **draw(bodies[kind](n, real))}
            for kind in kinds]


def dumps_pairs(pairs):
    return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"


def scalar_paths(value, path=()):
    """The paths to the scalar strings of a document: strings in lists."""
    if isinstance(value, str):
        return [path] if path and isinstance(path[-1], int) else []
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    return [p for key, item in items for p in scalar_paths(item, path + (key,))]


def spoil_scalar(draw, doc, bad):
    """Put ``bad`` in place of one scalar, or in a new vector if none."""
    paths = scalar_paths(doc)
    if paths:
        target = doc
        *keys, last = draw(st.sampled_from(paths))
        for key in keys:
            target = target[key]
        target[last] = bad
        return
    body = next(v for v in (doc, *doc.values()) if isinstance(v, dict)
                and ("basis" in v or "generators" in v))
    if "basis" in body:
        body["basis"] = [[bad]]
    else:
        body["generators"] = [[[bad], []]]


def pad_scalar(draw, doc):
    """Surround one scalar with spaces, or put a padded one in place."""
    paths = scalar_paths(doc)
    if not paths:
        return spoil_scalar(draw, doc, " 1 ")
    target = doc
    *keys, last = draw(st.sampled_from(paths))
    for key in keys:
        target = target[key]
    target[last] = draw(st.sampled_from((" {} ", "{} ", " {}", "\t{}\n"))).format(target[last])


def drop_key(draw, doc):
    del doc[draw(st.sampled_from(sorted(doc)))]


def duplicate_key(draw, doc):
    key = draw(st.sampled_from(sorted(doc)))
    return dumps_pairs([*doc.items(), (key, doc[key])]).encode()


def rename_key(draw, doc):
    key = draw(st.sampled_from(sorted(doc)))
    doc[draw(st.sampled_from((key.upper(), key + "s", key[:-1], "_" + key)))] = doc.pop(key)


def wrong_type(draw, doc):
    key = draw(st.sampled_from(sorted(doc)))
    doc[key] = draw(st.sampled_from((None, 1.5, "3", [], {}, True, [[1]])))


def wrong_dimension(draw, doc):
    counts = [k for k in ("ambient", "dim_in", "dim_out") if k in doc]
    key = draw(st.sampled_from(counts))
    doc[key] = max(0, doc[key] + draw(st.sampled_from((-1, 1, 2))))


def bad_scalar(*choices):
    def mutate(draw, doc):
        spoil_scalar(draw, doc, draw(st.sampled_from(choices)))

    return mutate


def wrong_field(key, *choices):
    def mutate(draw, doc):
        doc[key] = draw(st.sampled_from(choices))

    return mutate


# Each mutation edits a copy of a valid document in place, or returns the
# bytes to write instead.
MUTATIONS = {
    "drop-key": drop_key,
    "rename-key": rename_key,
    "duplicate-key": duplicate_key,
    "wrong-type": wrong_type,
    "zero-denominator": bad_scalar("1/0", "1/0i", "2+1/0i"),
    "negative-denominator": bad_scalar("1/-2", "-1/-2", "1/-2i", "1+1/-2i"),
    "padded-scalar": pad_scalar,
    "non-ascii-digits": bad_scalar("١", "1/٢", "٣i", "１"),
    "past-digit-limit": bad_scalar("1" * (DIGIT_LIMIT + 1), "1/" + "2" * (DIGIT_LIMIT + 1)),
    "not-a-scalar-string": bad_scalar("0.5", "1e3", 2, "", " "),
    "wrong-dimension": wrong_dimension,
    "wrong-kind": wrong_field("kind", "subspace", "relation", "triple", "report", "x"),
    "wrong-version": wrong_field("version", "2", 1, None, ""),
    "not-utf8": lambda draw, doc: b"\xff\xfe" + json.dumps(doc).encode(),
    "deep-nesting": lambda draw, doc: b"[" * 100_000,
}
DOCUMENT_COMMANDS = sorted(name for name, (_, kinds) in COMMANDS.items() if kinds)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(name, texts, mutate=None):
    """Run the case ``name`` on input files holding ``texts``, with its
    command line edited by ``mutate``; check the exit code, stderr and the
    output file."""
    flags, _ = COMMANDS[name]
    command = name.split("-")[0] if name.startswith(("triple-", "build-")) else name
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, text in enumerate(texts):
            path = os.path.join(tmp, f"in{i}.json")
            with open(path, "wb") as fh:
                fh.write(text)
            paths.append(path)
        output = os.path.join(tmp, "out.json")
        if command == "build":
            argv = [command, *flags, *paths]
        else:
            argv = [command, *paths, *flags]
        argv += ["-o", output]
        if mutate is not None:
            argv = mutate(argv, tmp)
        code, stdout, stderr = run(argv)
        assert code in (0, 2, 3, 4), (argv, stderr)
        assert stdout == ""
        written = None
        if os.path.exists(output):
            with open(output, encoding="utf-8") as fh:
                written = fh.read()
    if code == 0:
        assert stderr == ""
        if command == "ic":
            assert written.strip() == "IC: holds"
        elif command in DOCUMENT_OUTPUT:
            parse_document(written)
        else:
            json.loads(written)
        return code
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    record = json.loads(lines[0])
    assert record["code"] == code and isinstance(record["message"], str)
    # ``ic`` prints its verdict before it exits 4 on a violated condition;
    # no other error leaves an output file behind.
    if command == "ic" and code == 4:
        assert written.strip() == "IC: violated"
    else:
        assert written is None, (argv, written)
    return code


SETTINGS = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(SETTINGS, max_examples=8)
@given(data=st.data())
def test_valid_documents_keep_the_contract(name, data):
    docs = data.draw(inputs(COMMANDS[name][1]))
    check_contract(name, [json.dumps(doc).encode() for doc in docs])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@settings(SETTINGS, max_examples=15)
@given(data=st.data())
def test_mutated_documents_keep_the_contract(mutation, data):
    name = data.draw(st.sampled_from(DOCUMENT_COMMANDS))
    docs = data.draw(inputs(COMMANDS[name][1]))
    texts = [json.dumps(doc).encode() for doc in docs]
    i = data.draw(st.integers(0, len(docs) - 1))
    doc = json.loads(texts[i])
    texts[i] = MUTATIONS[mutation](data.draw, doc) or json.dumps(doc).encode()
    check_contract(name, texts)


def insert_args(*choices):
    """Put one of ``choices`` (a list of arguments) somewhere after the
    subcommand."""

    def mutate(draw, argv, tmp):
        at = draw(st.integers(1, len(argv)))
        return argv[:at] + [a.format(tmp=tmp) for a in draw(st.sampled_from(choices))] + argv[at:]

    return mutate


# Each edits a valid command line: a list of arguments goes in somewhere.
ARGV_MUTATIONS = {
    "unknown-option": insert_args(["--no-such-option"], ["-x"], ["--output-file=x"]),
    "option-without-value": lambda draw, argv, tmp: argv + [
        draw(st.sampled_from(("-o", "--output", "--tol", "--kind", "--dim", "--checks")))],
    "non-ascii-dim": insert_args(["--dim", "٣"], ["--dim=٤"], ["--dim", "１"]),
    "tol-nan": insert_args(["--tol", "nan"], ["--tol=NaN"]),
    "tol-negative": insert_args(["--tol=-1"], ["--tol", "-1"], ["--tol=-1e-9"]),
    "extra-positional": insert_args(["{tmp}/extra.json"], ["extra"], ["-3"]),
}


@pytest.mark.parametrize("mutation", sorted(ARGV_MUTATIONS))
@settings(SETTINGS, max_examples=15)
@given(data=st.data())
def test_mutated_command_lines_keep_the_contract(mutation, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)))
    docs = data.draw(inputs(COMMANDS[name][1]))
    mutate = ARGV_MUTATIONS[mutation]
    check_contract(name, [json.dumps(doc).encode() for doc in docs],
                   lambda argv, tmp: mutate(data.draw, argv, tmp))


# P = 2^61 - 31, the prime of the tests' kernel certificate
# (tests/test_certificate.py).  It divides a minor of the rows (P, 1), (0, 1),
# whose rank is 2, so an answer read modulo P would be wrong on these
# documents; the exact answer must come out.
P = (1 << 61) - 31
HOSTILE = {
    "s": {"ambient": 2, "basis": [[str(P), "1"], ["0", "1"]]},
    "t": {"ambient": 2, "basis": [[str(P), "1"]]},
    "a": {"dim_in": 2, "dim_out": 2, "generators": [
        [[str(P), "1"], ["0", "1"]], [["0", "1"], [str(P), f"{2 * P}i"]]]},
    "b": {"dim_in": 2, "dim_out": 2, "generators": [
        [[str(P), "1"], [str(P), "1"]], [["0", "1"], ["0", "1"]]]},
}


def _hostile_api(command, a, b, s, t):
    from relcalc.angles import angles_record
    from relcalc.documents import plain
    from relcalc.idempotents import classify

    if command == "parts":
        return plain({**a.parts()._asdict(), "graph_dim": a.graph.dim})
    if command == "classify":
        return plain(classify(a)._asdict())
    if command == "meet":
        return a.meet(b)
    return angles_record(s, t)


@pytest.mark.parametrize("command, names", [
    ("parts", "a"), ("classify", "a"), ("meet", "ab"), ("angles", "st")])
def test_entries_that_p_divides_keep_the_contract(command, names):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, body in HOSTILE.items():
            kind = "subspace" if "ambient" in body else "relation"
            paths[name] = os.path.join(tmp, f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump({"kind": kind, "version": "1", **body}, fh)
        code, stdout, stderr = run([command, *(paths[n] for n in names)])
        docs = {n: load_document(p).payload for n, p in paths.items()}
    assert (code, stderr) == (0, ""), stderr
    expected = _hostile_api(command, **docs)
    if command == "meet":
        assert parse_document(stdout).payload == expected
    else:
        assert json.loads(stdout) == expected
    # The exact ranks: S is the plane, and each graph has dimension 2.
    assert docs["s"].dim == 2 and docs["a"].graph.dim == docs["b"].graph.dim == 2
