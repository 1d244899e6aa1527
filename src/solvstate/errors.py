"""Exception types shared across the package, and the input checks that raise one."""

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


def require_photon_number(k) -> None:
    """Raise DomainError unless k is a nonnegative integer (an int or an
    integral float): the number of added excitations."""
    if k < 0:
        raise DomainError(f"photon number k must be nonnegative, got {k}")
    if not float(k).is_integer():
        raise DomainError(f"photon number k must be an integer, got {k}")


def require_lam(lam) -> None:
    """Raise DomainError unless the Poschl-Teller lam is finite and positive."""
    if not (cmath.isfinite(lam) and lam > 0.0):
        raise DomainError(f"lam must be positive and finite, got {lam}")
