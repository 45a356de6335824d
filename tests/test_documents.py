"""Document format: parsing, serialization, round-trip stability."""

import json
import random

import pytest

from relcalc import (
    DimensionError,
    GaussianRational,
    IdempotentTriple,
    LinearRelation,
    ParseError,
    RangeTriple,
    Subspace,
)
from relcalc.documents import (
    MAX_DOCUMENT_DIM,
    DocumentEnvelope,
    document_dict,
    load_document,
    parse_document,
    serialize_document,
    wrap,
)


def e(k, n):
    v = [0] * n
    v[k] = 1
    return v


def test_subspace_round_trip():
    s = Subspace.span([[1, GaussianRational(0, 1)], [0, 0]], 2)
    env = wrap(s)
    text = serialize_document(env)
    back = parse_document(text)
    assert back.kind == "subspace"
    assert back.payload == s
    assert serialize_document(back) == text


def test_full_plane_doc():
    text = json.dumps(
        {
            "kind": "subspace",
            "version": "1",
            "ambient": 2,
            "basis": [["1", "0"], ["0", "1"]],
        }
    )
    env = parse_document(text)
    assert env.payload == Subspace.full(2)


def test_relation_doc_rank_one():
    text = json.dumps(
        {
            "kind": "relation",
            "version": "1",
            "dim_in": 2,
            "dim_out": 2,
            "generators": [[["1", "0"], ["1", "0"]]],
        }
    )
    env = parse_document(text)
    assert env.payload.graph.dim == 1


def test_relation_canonicalized_on_load():
    # duplicated generators collapse to the canonical graph
    doc = {
        "kind": "relation",
        "version": "1",
        "dim_in": 1,
        "dim_out": 1,
        "generators": [[["1"], ["2"]], [["2"], ["4"]]],
    }
    env = parse_document(json.dumps(doc))
    assert env.payload.graph.dim == 1


def test_scalar_strings_in_docs():
    doc = {
        "kind": "subspace",
        "version": "1",
        "ambient": 1,
        "basis": [["1/2-3/4i"]],
    }
    env = parse_document(json.dumps(doc))
    assert env.payload.dim == 1


def test_triple_kernel_round_trip():
    t = IdempotentTriple(
        Subspace.span([e(0, 3)], 3),
        Subspace.span([e(1, 3)], 3),
        Subspace.span([e(2, 3)], 3),
    )
    back = parse_document(serialize_document(wrap(t)))
    assert back.payload == t


def test_triple_range_round_trip():
    t = RangeTriple(
        Subspace.span([e(0, 2)], 2),
        Subspace.span([e(1, 2)], 2),
        Subspace.full(2),
    )
    back = parse_document(serialize_document(wrap(t)))
    assert back.payload == t


def test_triple_ic_rechecked_on_load():
    doc = {
        "kind": "triple",
        "version": "1",
        "ambient": 2,
        "m": {"ambient": 2, "basis": [["1", "0"]]},
        "n": {"ambient": 2, "basis": [["0", "1"]]},
        "s": {"ambient": 2, "basis": [["1", "1"]]},
    }
    from relcalc import ICViolationError

    with pytest.raises(ICViolationError):
        parse_document(json.dumps(doc))


def test_parse_error_contexts():
    with pytest.raises(ParseError) as err:
        parse_document("{not json")
    assert "line" in err.value.context

    with pytest.raises(ParseError) as err:
        parse_document(json.dumps({"kind": "nope", "version": "1"}))
    assert err.value.context["field"] == "$.kind"

    doc = {
        "kind": "subspace",
        "version": "1",
        "ambient": 2,
        "basis": [["1", "0.5"]],
    }
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(doc))
    assert "basis[0][1]" in err.value.context["field"]

    doc["basis"] = [["1", "9" * 5000]]
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(doc))
    assert "basis[0][1]" in err.value.context["field"]

    doc = {
        "kind": "subspace",
        "version": "1",
        "ambient": 2,
        "basis": [["1", "0", "0"]],
    }
    with pytest.raises(DimensionError):
        parse_document(json.dumps(doc))

    with pytest.raises(ParseError):
        parse_document(json.dumps({"kind": "subspace", "version": "2", "ambient": 1, "basis": []}))


def _subspace_doc(ambient):
    return {"kind": "subspace", "version": "1", "ambient": ambient, "basis": []}


# Each is rejected before any vector or subspace is built.
OVERSIZED = [
    (_subspace_doc(257), "$.ambient"),
    (_subspace_doc(10**9), "$.ambient"),
    (
        {"kind": "relation", "version": "1", "dim_in": 257, "dim_out": 1,
         "generators": []},
        "$.dim_in",
    ),
    (
        {"kind": "relation", "version": "1", "dim_in": 1, "dim_out": 10**9,
         "generators": []},
        "$.dim_out",
    ),
    (
        {"kind": "triple", "version": "1", "ambient": 10**9,
         "m": _subspace_doc(1), "n": _subspace_doc(1), "s": _subspace_doc(1)},
        "$.ambient",
    ),
    (
        {"kind": "triple", "version": "1", "ambient": 1,
         "m": _subspace_doc(1), "n": _subspace_doc(257), "s": _subspace_doc(1)},
        "$.n.ambient",
    ),
]


@pytest.mark.parametrize("doc, field", OVERSIZED)
def test_oversized_dimension_rejected(doc, field):
    with pytest.raises(ParseError) as err:
        parse_document(json.dumps(doc))
    assert err.value.context == {"field": field}


def test_dimension_limit_is_inclusive():
    env = parse_document(json.dumps(_subspace_doc(MAX_DOCUMENT_DIM)))
    assert env.payload == Subspace.zero(MAX_DOCUMENT_DIM)


@pytest.mark.parametrize(
    "text",
    [
        # a number literal past Python's 4300-digit int limit
        '{"kind": "subspace", "version": "1", "ambient": ' + "9" * 5000 + "}",
        # nesting deeper than the JSON decoder's recursion limit
        '{"kind": "subspace", "version": "1", "basis": '
        + "[" * 100000
        + "]" * 100000
        + "}",
    ],
)
def test_hostile_document_text_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_document(text)


def test_report_passthrough():
    body = {"checks": [], "pass": True, "config": {}}
    env = DocumentEnvelope("report", "1", body)
    back = parse_document(serialize_document(env))
    assert back.kind == "report"
    assert back.payload["pass"] is True


def test_load_document_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_document(str(tmp_path / "nope.json"))


def test_random_documents_round_trip_bytes():
    rng = random.Random(2024)
    for _ in range(150):
        n = rng.randint(1, 4)
        kind = rng.randrange(3)
        if kind == 0:
            vecs = [
                [
                    GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
                    for _ in range(n)
                ]
                for _ in range(rng.randint(0, n))
            ]
            obj = Subspace.span(vecs, n)
        elif kind == 1:
            pairs = [
                (
                    [GaussianRational(rng.randint(-5, 5)) for _ in range(n)],
                    [
                        GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
                        for _ in range(n)
                    ],
                )
                for _ in range(rng.randint(0, 2 * n))
            ]
            obj = LinearRelation.from_generators(pairs, n, n)
        else:
            def rand_sub():
                return Subspace.span(
                    [
                        [GaussianRational(rng.randint(-3, 3)) for _ in range(n)]
                        for _ in range(rng.randint(0, n))
                    ],
                    n,
                )

            a, b, c = rand_sub(), rand_sub(), rand_sub()
            obj = IdempotentTriple(
                b.intersect(c), a.intersect(c), a.intersect(b)
            )
        text = serialize_document(wrap(obj))
        env = parse_document(text)
        assert env.payload == obj
        assert serialize_document(env) == text


def test_document_dict_keys_are_sorted_stably():
    s = Subspace.full(2)
    d1 = serialize_document(wrap(s))
    d2 = serialize_document(wrap(s))
    assert d1 == d2
