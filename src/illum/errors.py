"""Exception types shared across the library."""


class IllumError(Exception):
    """Base class for all library errors."""


class PreconditionViolation(IllumError, ValueError):
    """An operation was called with inputs outside its contract."""


class DomainError(IllumError, ValueError):
    """A parameter is outside the mathematical domain of the operation."""


class UnsupportedBody(IllumError, TypeError):
    """The body kind is not handled by this operation."""


class ConstructionFailure(IllumError, RuntimeError):
    """A construction failed its own verification.

    Carries a ``report`` attribute with the failing verification report
    (or None) for diagnostics.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class GeometryInternalError(IllumError, RuntimeError):
    """An internal geometric step degenerated (should not happen for valid input)."""
