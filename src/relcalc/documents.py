"""Document envelopes: the single structured text format of the toolkit.

Every document is a JSON object with "kind" (subspace | relation | triple |
report) and "version" fields plus the kind-specific body.  All exact values
travel as scalar strings ("1/2-3/4i"); floats appear only inside angle and
report payloads.  Serialization is canonical (sorted keys, fixed separators,
trailing newline) so equal values produce identical bytes.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import DimensionError, ParseError
from .idempotents import IdempotentTriple, RangeTriple
from .relations import LinearRelation
from .scalars import format_scalar, parse_scalar
from .subspaces import Subspace

FORMAT_VERSION = "1"

KINDS = ("subspace", "relation", "triple", "report")

# Largest ambient, dim_in or dim_out a document may declare: far beyond what
# the exact engine answers in reasonable time, and small enough that a tiny
# file cannot ask for a huge allocation (perp() of a zero subspace builds an
# ambient-sized basis).
MAX_DOCUMENT_DIM = 256


class DocumentEnvelope(NamedTuple):
    """A document's kind and value.  ``FORMAT_VERSION`` is the one accepted
    version: parsing checks it and serialization writes it."""

    kind: str
    payload: object


# -- payload builders ---------------------------------------------------------


def vector_payload(vec) -> list[str]:
    return [format_scalar(z) for z in vec]


def subspace_payload(s: Subspace) -> dict:
    return {
        "ambient": s.ambient_dim,
        "basis": [vector_payload(v) for v in s.basis_vectors()],
    }


def relation_payload(t: LinearRelation) -> dict:
    n = t.dim_in
    return {
        "dim_in": t.dim_in,
        "dim_out": t.dim_out,
        "generators": [
            [vector_payload(v[:n]), vector_payload(v[n:])]
            for v in t.graph.basis_vectors()
        ],
    }


def triple_payload(t: IdempotentTriple | RangeTriple) -> dict:
    """Ambient plus one subspace body per component (m/n/s or x/y/z); the
    components share the ambient, which the triple's condition checks."""
    body = {k: subspace_payload(v) for k, v in zip(t._fields, t)}
    return {"ambient": t[0].ambient_dim, **body}


def wrap(obj) -> DocumentEnvelope:
    """Envelope for any documentable value."""
    if isinstance(obj, Subspace):
        return DocumentEnvelope("subspace", obj)
    if isinstance(obj, LinearRelation):
        return DocumentEnvelope("relation", obj)
    if isinstance(obj, (IdempotentTriple, RangeTriple)):
        return DocumentEnvelope("triple", obj)
    if isinstance(obj, dict):
        return DocumentEnvelope("report", obj)
    raise ParseError(f"cannot wrap {type(obj).__name__} in a document")


def document_dict(env: DocumentEnvelope) -> dict:
    body: dict
    if env.kind == "subspace":
        body = subspace_payload(env.payload)
    elif env.kind == "relation":
        body = relation_payload(env.payload)
    elif env.kind == "triple":
        body = triple_payload(env.payload)
    elif env.kind == "report":
        body = dict(env.payload)
    else:
        raise ParseError(f"unknown document kind {env.kind!r}")
    return {"kind": env.kind, "version": FORMAT_VERSION, **body}


def serialize_document(env: DocumentEnvelope) -> str:
    return json.dumps(document_dict(env), sort_keys=True, indent=2) + "\n"


# -- parsing -------------------------------------------------------------------


def _parse_scalar_at(text, where: str):
    try:
        return parse_scalar(text)
    except ParseError as exc:
        raise ParseError(f"{exc.message} at {where}", field=where) from None


def _parse_vector(data, length: int | None, where: str):
    if not isinstance(data, list):
        raise ParseError(f"expected a vector at {where}", field=where)
    vec = [
        _parse_scalar_at(entry, f"{where}[{k}]") for k, entry in enumerate(data)
    ]
    if length is not None and len(vec) != length:
        raise DimensionError(
            f"vector at {where} has length {len(vec)}, expected {length}",
            field=where,
        )
    return vec


def _require_count(doc: dict, key: str, where: str) -> int:
    value = doc.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ParseError(
            f"field {key!r} at {where} must be a nonnegative integer",
            field=f"{where}.{key}",
        )
    if value > MAX_DOCUMENT_DIM:
        raise ParseError(
            f"field {key!r} at {where} is {value}, above the limit "
            f"{MAX_DOCUMENT_DIM}",
            field=f"{where}.{key}",
        )
    return value


def parse_subspace_body(doc: dict, where: str = "$") -> Subspace:
    ambient = _require_count(doc, "ambient", where)
    basis = doc.get("basis")
    if not isinstance(basis, list):
        raise ParseError(f"field 'basis' at {where} must be a list", field=where)
    vectors = [
        _parse_vector(v, ambient, f"{where}.basis[{i}]") for i, v in enumerate(basis)
    ]
    return Subspace.span(vectors, ambient)


def parse_relation_body(doc: dict, where: str = "$") -> LinearRelation:
    dim_in = _require_count(doc, "dim_in", where)
    dim_out = _require_count(doc, "dim_out", where)
    gens = doc.get("generators")
    if not isinstance(gens, list):
        raise ParseError(
            f"field 'generators' at {where} must be a list", field=where
        )
    pairs = []
    for i, pair in enumerate(gens):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(
                f"generator at {where}.generators[{i}] must be an "
                "[input, output] pair",
                field=f"{where}.generators[{i}]",
            )
        pairs.append(
            (
                _parse_vector(pair[0], dim_in, f"{where}.generators[{i}][0]"),
                _parse_vector(pair[1], dim_out, f"{where}.generators[{i}][1]"),
            )
        )
    return LinearRelation.from_generators(pairs, dim_in, dim_out)


def parse_triple_body(doc: dict, where: str = "$"):
    ambient = _require_count(doc, "ambient", where)
    for triple in (IdempotentTriple, RangeTriple):
        if all(k in doc for k in triple._fields):
            break
    else:
        raise ParseError(
            f"triple at {where} needs either m/n/s or x/y/z components",
            field=where,
        )
    spaces = []
    for key in triple._fields:
        body = doc[key]
        if not isinstance(body, dict):
            raise ParseError(
                f"triple component {key!r} at {where} must be an object",
                field=f"{where}.{key}",
            )
        space = parse_subspace_body(body, f"{where}.{key}")
        if space.ambient_dim != ambient:
            raise DimensionError(
                f"component {key!r} ambient {space.ambient_dim} != {ambient}",
                field=f"{where}.{key}",
            )
        spaces.append(space)
    # Triple constructors re-check their validity condition on load.
    return triple(*spaces)


def parse_document(text: str) -> DocumentEnvelope:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid document text: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from None
    except ValueError as exc:
        # int() refuses number literals past the interpreter's digit limit.
        raise ParseError(f"number literal out of range: {exc}") from None
    except RecursionError:
        raise ParseError("document text nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}", field="$.kind")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(
            f"unsupported format version {version!r}", field="$.version"
        )
    if kind == "subspace":
        payload = parse_subspace_body(doc)
    elif kind == "relation":
        payload = parse_relation_body(doc)
    elif kind == "triple":
        payload = parse_triple_body(doc)
    else:
        payload = {
            k: v for k, v in doc.items() if k not in ("kind", "version")
        }
    return DocumentEnvelope(kind, payload)


def load_document(path: str) -> DocumentEnvelope:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}", path=path) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}", path=path) from None
