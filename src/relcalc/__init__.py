"""Exact calculus of linear relations on finite-dimensional inner-product
spaces over the Gaussian rationals, with a randomized identity verifier."""

from .errors import (
    DimensionError,
    ICViolationError,
    InternalCheckError,
    NotIdempotentError,
    ParseError,
    PreconditionError,
    RelcalcError,
)
from .idempotents import (
    Classification,
    IdempotentTriple,
    RangeTriple,
    adjoint_idempotent,
    build_from_range_triple,
    build_pmns,
    classify,
    ic_holds,
    kernel_triple,
    maximal_idempotent,
    minimal_idempotent,
    range_condition_holds,
    range_to_kernel,
    range_triple,
    semi_projection,
    square,
    sub_form,
    super_form,
    triple_convert,
)
from .relations import LinearRelation, RelationParts
from .scalars import GaussianRational, format_scalar, parse_scalar
from .subspaces import Subspace

__all__ = [
    "Classification",
    "DimensionError",
    "GaussianRational",
    "ICViolationError",
    "IdempotentTriple",
    "InternalCheckError",
    "LinearRelation",
    "NotIdempotentError",
    "ParseError",
    "PreconditionError",
    "RangeTriple",
    "RelationParts",
    "RelcalcError",
    "Subspace",
    "adjoint_idempotent",
    "build_from_range_triple",
    "build_pmns",
    "classify",
    "format_scalar",
    "ic_holds",
    "kernel_triple",
    "maximal_idempotent",
    "minimal_idempotent",
    "parse_scalar",
    "range_condition_holds",
    "range_to_kernel",
    "range_triple",
    "semi_projection",
    "square",
    "sub_form",
    "super_form",
    "triple_convert",
]

__version__ = "0.1.0"
