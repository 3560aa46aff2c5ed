"""Exception types shared across the package, and the integer and number
checks of the config classes.

The CLI maps invalid input (ConfigError, DomainError,
DimensionMismatchError, NonFiniteError) to exit code 2 and
NumericalError (and its subclasses) to exit code 3; everything else is
a plain bug.
"""

import numbers
import sys


class HeadfxError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HeadfxError, ValueError):
    """A vector argument has the wrong length; the message names it."""


class DomainError(HeadfxError, ValueError):
    """A parameter or input violates its documented domain."""


class NonFiniteError(HeadfxError, ValueError):
    """An input contains NaN or infinity where finite values are required."""


class NumericalError(HeadfxError, RuntimeError):
    """A numerical procedure failed (divergence, bad bracket, ...)."""


class DivergenceError(NumericalError):
    """State blew up or left its admissible box during integration."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class BracketError(NumericalError):
    """A bisection bracket does not straddle the classification threshold."""


class ConfigError(HeadfxError, ValueError):
    """A scenario/sweep config file is malformed; the message names the key."""


def require_integers(obj, names) -> None:
    """Raise DomainError unless each named attribute of obj is an integer
    that numpy can size an array with (at most sys.maxsize, the intp maximum)."""
    # bool is an Integral too, but a count of True is a config mistake.
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise DomainError(f"{name} must be an integer, got {value!r}")
        if value > sys.maxsize:
            raise DomainError(f"{name} must be at most {sys.maxsize}, got {value}")


def require_numbers(obj, names) -> None:
    """Raise DomainError unless each named attribute of obj is a real number;
    NaN and infinities pass, for the range checks to name."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise DomainError(f"{name} must be a number, got {value!r}")
