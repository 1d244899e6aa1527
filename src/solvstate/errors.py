"""Exception types shared across the package, and the input check that raises one."""

import cmath


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A series or iteration failed to meet its tolerance.

    Carries the partial result so callers can still inspect it.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def require_finite(**values) -> None:
    """Raise DomainError naming the first value that is NaN or infinite.

    Values may be real or complex; None (an absent optional label) passes.
    """
    for name, value in values.items():
        if value is not None and not cmath.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
