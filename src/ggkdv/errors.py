"""Exception types shared across the package."""


class GGKdVError(Exception):
    """Base class for all package errors; ``exit_code`` is the exit code
    of a run that fails with one (3, numerical failure, unless overridden)."""

    exit_code = 3


class ConstraintViolation(GGKdVError, ValueError):
    """A parameter or input violates a model constraint."""


class NumericalError(GGKdVError, RuntimeError):
    """A solve failed numerically (singular system, NaN/Inf detected)."""

    def __init__(self, message, time_level=None):
        if time_level is not None:
            message = f"{message} (time level {time_level})"
        super().__init__(message)
        self.time_level = time_level


class NonConvergence(GGKdVError, RuntimeError):
    """An iteration failed to converge within its cap.

    Carries the residual/contraction history so the caller can inspect
    how the iteration behaved before giving up.
    """

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class FeasibilityError(GGKdVError, RuntimeError):
    """A three-control configuration failed its coefficient condition."""

    exit_code = 4


class ExpressionError(GGKdVError, ValueError):
    """An analytic expression failed to parse or evaluate.

    ``position`` is the 0-based character offset of the offending token.
    """

    exit_code = 2

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ScenarioError(GGKdVError, ValueError):
    """A scenario file failed to parse or validate."""

    exit_code = 2

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field
