"""Exact calculus of linear relations on finite-dimensional inner-product
spaces over the Gaussian rationals, with a randomized identity verifier.

The public names load their modules on first use, so ``import relcalc``
and each CLI subcommand load only the modules they run."""

from importlib import import_module

# Module -> the public names it defines.
_EXPORTS = {
    "errors": (
        "DimensionError",
        "ICViolationError",
        "InternalCheckError",
        "NotIdempotentError",
        "ParseError",
        "PreconditionError",
        "RelcalcError",
    ),
    "idempotents": (
        "Classification",
        "IdempotentTriple",
        "RangeTriple",
        "adjoint_idempotent",
        "build_from_range_triple",
        "build_pmns",
        "classify",
        "ic_holds",
        "kernel_triple",
        "maximal_idempotent",
        "minimal_idempotent",
        "range_condition_holds",
        "range_to_kernel",
        "range_triple",
        "semi_projection",
        "square",
        "sub_form",
        "super_form",
        "triple_convert",
    ),
    "relations": ("LinearRelation", "RelationParts"),
    "scalars": ("GaussianRational", "format_scalar", "parse_scalar"),
    "subspaces": ("Subspace",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)

__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
