"""Exception taxonomy shared by the library and the CLI.

Exit codes: 0 ok, 2 parse error, 3 dimension error, 4 violated mathematical
precondition, 5 breached internal invariant.
"""

from __future__ import annotations


class RelcalcError(Exception):
    """Base class for all library errors."""

    exit_code = 1

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.message = message
        self.context = context

    def record(self) -> dict:
        """Machine-readable error record ``{code, message, context}``."""
        return {
            "code": self.exit_code,
            "message": self.message,
            "context": {k: _plain(v) for k, v in self.context.items()},
        }


class ParseError(RelcalcError):
    """Malformed scalar string or document."""

    exit_code = 2


class DimensionError(RelcalcError):
    """Mismatched ambient dimensions, vector lengths, or matrix shapes, and a
    non-square relation where a square one is needed."""

    exit_code = 3


class PreconditionError(RelcalcError):
    """A mathematical precondition does not hold (IC violation,
    non-idempotent input, division by zero)."""

    exit_code = 4


class ICViolationError(PreconditionError):
    """The triple fails (M+N) ∩ S = M ∩ N; carries both sides."""


class NotIdempotentError(PreconditionError):
    """The relation is not idempotent; carries classification witnesses."""


class InternalCheckError(RelcalcError):
    """Two routes that must agree by construction disagreed. Always a bug."""

    exit_code = 5


def _plain(value):
    """Best-effort conversion of context values to JSON-encodable data; a
    subspace becomes its document body."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    from .documents import subspace_payload
    from .subspaces import Subspace

    return subspace_payload(value) if isinstance(value, Subspace) else str(value)
