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
        from .documents import plain

        return {
            "code": self.exit_code,
            "message": self.message,
            "context": plain(self.context),
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
    """A triple fails its condition; carries both sides."""


class NotIdempotentError(PreconditionError):
    """The relation is not idempotent; carries classification witnesses."""


class InternalCheckError(RelcalcError):
    """Two routes that must agree by construction disagreed. Always a bug."""

    exit_code = 5
