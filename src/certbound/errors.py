"""Exception hierarchy shared across the library.

Every error raised by certbound derives from :class:`CertboundError` so
callers (and the CLI) can map failures to exit codes in one place.
"""


class CertboundError(Exception):
    """Base class for all certbound errors."""


class IntervalError(CertboundError):
    """Invalid interval construction or operation."""


class DivisionByZeroInterval(IntervalError):
    """Division by an interval that contains zero."""


class DomainError(IntervalError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateSplit(CertboundError):
    """Attempt to bisect a box along a zero-width dimension."""


class ParseError(CertboundError):
    """Text that does not conform to the grammar, at ``offset`` if any."""

    def __init__(self, message: str, offset: int | None = None, expected: tuple[str, ...] = ()):
        detail = message if offset is None else f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


class NonDifferentiable(CertboundError):
    """Symbolic derivative does not exist or cannot be certified."""


class UnboundVariable(CertboundError):
    """Evaluation point or box does not cover a free variable."""


class DimensionMismatch(CertboundError):
    """Matrix/vector dimensions are inconsistent with the model."""


class InvalidDimension(CertboundError):
    """Operation requires a larger dimension than supplied."""


class MissingBounds(CertboundError):
    """Model definition lacks required variable bounds."""


class PreconditionViolated(CertboundError):
    """A documented precondition of an operation does not hold."""

    def __init__(self, condition: str, detail: str = ""):
        message = f"precondition violated: {condition}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)
        self.condition = condition


class NecessaryConditionViolated(CertboundError):
    """Constant pair cannot arise from any quadratically inner-bounded map."""


class EvaluationError(CertboundError):
    """Objective evaluation failed during optimization, or its enclosure
    stayed unbounded.  The run is abandoned: no sandwich is returned."""
