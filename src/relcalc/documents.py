"""Document envelopes: the single structured text format of the toolkit.

Every document is a JSON object with "kind" (subspace | relation | triple |
report) and "version" fields plus the kind-specific body.  All exact values
travel as scalar strings ("1/2-3/4i"); floats appear only inside angle and
report payloads.  Serialization is canonical (sorted keys, fixed separators,
trailing newline) so equal values produce identical bytes.

Scalar strings go straight to and from the integer rows ``(den, re, im)`` of
:mod:`relcalc._rowops`: this module holds the one scalar grammar and the one
formatter, and :mod:`relcalc.scalars` builds its public parse and format on
them.
"""

from __future__ import annotations

import json
import re
import sys
from math import gcd, lcm
from typing import NamedTuple

from .errors import DimensionError, ParseError
from .relations import LinearRelation
from .subspaces import Subspace

FORMAT_VERSION = "1"

KINDS = ("subspace", "relation", "triple", "report")

# Largest ambient, dim_in or dim_out a document may declare: far beyond what
# the exact engine answers in reasonable time, and small enough that a tiny
# file cannot ask for a huge allocation (perp() of a zero subspace builds an
# ambient-sized basis).
MAX_DOCUMENT_DIM = 256

# "p", "p/q", "p/q+r/si", or a pure imaginary "r/si"; ASCII digits only.
_SCALAR_RE = re.compile(
    r"(?P<re>[+-]?\d+)(?:/(?P<re_den>\d+))?"
    r"(?:(?P<im>[+-]\d+)(?:/(?P<im_den>\d+))?i)?"
    r"|(?P<pure>[+-]?\d+)(?:/(?P<pure_den>\d+))?i",
    re.ASCII,
)


class DocumentEnvelope(NamedTuple):
    """A document's kind and value.  ``FORMAT_VERSION`` is the one accepted
    version: parsing checks it and serialization writes it."""

    kind: str
    payload: object


# -- scalar text ----------------------------------------------------------------


def _ratio(num: str, den: str | None) -> tuple[int, int]:
    """``(int(num), int(den))``, converted in that order; a zero ``den``
    raises ZeroDivisionError."""
    n, d = int(num), 1 if den is None else int(den)
    if not d:
        raise ZeroDivisionError
    return n, d


def parse_entry(text) -> tuple[int, int, int, int]:
    """The scalar string p/q + (r/s)i as ``(p, q, r, s)``: q and s positive,
    the fractions not reduced.

    Raises :class:`ParseError` on floats, zero denominators, integers too
    long to convert, or anything else that is not an exact scalar literal.
    """
    if not isinstance(text, str):
        raise ParseError(f"scalar must be a string, got {type(text).__name__}")
    m = _SCALAR_RE.fullmatch(text.strip())
    if m is None:
        raise ParseError(f"malformed scalar {text!r}")
    try:
        if m["pure"] is not None:
            return (0, 1, *_ratio(m["pure"], m["pure_den"]))
        p, q = _ratio(m["re"], m["re_den"])
        r, s = (0, 1) if m["im"] is None else _ratio(m["im"], m["im_den"])
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {text!r}") from None
    except ValueError as exc:
        # int() refuses literals past the interpreter's digit limit.
        raise ParseError(f"scalar literal out of range: {exc}") from None
    return p, q, r, s


def _format_ratio(num: int, den: int) -> str:
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_entry(p: int, q: int, r: int = 0, s: int = 1) -> str:
    """Canonical text of p/q + (r/s)i for positive q and s, each fraction
    reduced by one gcd; :func:`parse_entry` reads it back."""
    try:
        text = _format_ratio(p, q)
        if r:
            text += ("+" if r > 0 else "-") + _format_ratio(abs(r), s) + "i"
        return text
    except ValueError:
        # Past the interpreter's int->str digit limit.  Exact results of
        # small inputs can be that long, and they are printed in full.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return format_entry(p, q, r, s)
        finally:
            sys.set_int_max_str_digits(limit)


def format_row(row) -> list[str]:
    """The scalar strings of one integer row ``(den, re, im)``."""
    den, re_, im = row
    return [format_entry(x, den, y, den) for x, y in zip(re_, im)]


def _int_row(entries) -> tuple:
    """One integer row of parsed entries, over one lcm of their denominators."""
    den = lcm(*(q for _, q, _, _ in entries), *(s for _, _, _, s in entries))
    re_ = tuple(p * (den // q) for p, q, _, _ in entries)
    im = tuple(r * (den // s) for _, _, r, s in entries)
    return (den, re_, im)


# -- payload builders ---------------------------------------------------------


def subspace_payload(s: Subspace) -> dict:
    return {"ambient": s.ambient_dim, "basis": [format_row(r) for r in s._rows]}


def plain(value):
    """``value`` as JSON-encodable data: a subspace becomes its document
    body, tuples become lists, dict keys strings, and any other object its
    ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    return subspace_payload(value) if isinstance(value, Subspace) else str(value)


def relation_payload(t: LinearRelation) -> dict:
    n = t.dim_in
    rows = [format_row(r) for r in t.graph._rows]
    return {
        "dim_in": t.dim_in,
        "dim_out": t.dim_out,
        "generators": [[v[:n], v[n:]] for v in rows],
    }


def triple_payload(t) -> dict:
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
    if isinstance(obj, dict):
        return DocumentEnvelope("report", obj)
    from .idempotents import IdempotentTriple, RangeTriple

    if isinstance(obj, (IdempotentTriple, RangeTriple)):
        return DocumentEnvelope("triple", obj)
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


def _parse_vector(data, length: int | None, where: str) -> list:
    """The parsed entries of one vector, as :func:`parse_entry` gives them."""
    if not isinstance(data, list):
        raise ParseError(f"expected a vector at {where}", field=where)
    vec = []
    for k, entry in enumerate(data):
        try:
            vec.append(parse_entry(entry))
        except ParseError as exc:
            at = f"{where}[{k}]"
            raise ParseError(f"{exc.message} at {at}", field=at) from None
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
    rows = [
        _int_row(_parse_vector(v, ambient, f"{where}.basis[{i}]"))
        for i, v in enumerate(basis)
    ]
    return Subspace.from_int_rows(rows, ambient)


def parse_relation_body(doc: dict, where: str = "$") -> LinearRelation:
    dim_in = _require_count(doc, "dim_in", where)
    dim_out = _require_count(doc, "dim_out", where)
    gens = doc.get("generators")
    if not isinstance(gens, list):
        raise ParseError(
            f"field 'generators' at {where} must be a list", field=where
        )
    rows = []
    for i, pair in enumerate(gens):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(
                f"generator at {where}.generators[{i}] must be an "
                "[input, output] pair",
                field=f"{where}.generators[{i}]",
            )
        x = _parse_vector(pair[0], dim_in, f"{where}.generators[{i}][0]")
        y = _parse_vector(pair[1], dim_out, f"{where}.generators[{i}][1]")
        rows.append(_int_row(x + y))
    graph = Subspace.from_int_rows(rows, dim_in + dim_out)
    return LinearRelation(dim_in, dim_out, graph)


def parse_triple_body(doc: dict, where: str = "$"):
    from .idempotents import IdempotentTriple, RangeTriple

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


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key that occurs twice is a parse error, not a
    silent choice of its last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"duplicate key {key!r} in document", key=key)
        obj[key] = value
    return obj


def parse_document(text: str) -> DocumentEnvelope:
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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
