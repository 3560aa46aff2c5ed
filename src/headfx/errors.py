"""Exception types shared across the package, and the one check of a
scalar input's domain.

The CLI maps invalid input (ConfigError, DomainError and its subclass
NonFiniteError, DimensionMismatchError) to exit code 2 and
NumericalError (and its subclasses) to exit code 3; everything else is
a plain bug.

require is the one home of the rule for a valid number: each config
class and solver control states its scalar domains as a table of
Domain values (checked by require_fields) or as require calls.
"""

import math
import numbers
import sys
from typing import NamedTuple


class HeadfxError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(HeadfxError, ValueError):
    """A vector argument has the wrong length; the message names it."""


class DomainError(HeadfxError, ValueError):
    """A parameter or input violates its documented domain."""


class NonFiniteError(DomainError):
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


class Domain(NamedTuple):
    """The arguments of require after the value, as one table entry."""

    low: float | None = None
    high: float | None = None
    ends: str = "[]"
    integer: bool = False


def require(name, value, low=None, high=None, ends="[]", integer=False) -> None:
    """Raise DomainError unless value lies between low and high.

    ends holds the interval's brackets, "[" or "(" then "]" or ")"; a
    bound of None is absent. bool is never a number. An integer must be
    an Integral no larger than sys.maxsize, the intp maximum numpy sizes
    arrays with. Any other value must be a Real whose float is finite,
    so an int too large for a float fails, and NaN fails every domain; a
    non-finite value raises NonFiniteError.
    """
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise DomainError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    # str() refuses an int of over 4300 digits, so a long int is shown by its size
    shown = value
    if isinstance(value, int) and value.bit_length() > 64:
        shown = f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    if integer and value > sys.maxsize:
        raise DomainError(f"{name} must be at most {sys.maxsize}, got {shown}")
    try:
        x = value if integer else float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    finite = integer or math.isfinite(x)
    if (
        finite
        and (low is None or (x >= low if ends[0] == "[" else x > low))
        and (high is None or (x <= high if ends[1] == "]" else x < high))
    ):
        return
    if low is not None and high is not None:
        rule = f"lie in {ends[0]}{low}, {high}{ends[1]}"
    else:
        parts = [] if integer else ["finite"]
        if low is not None:
            parts.append(f"{'>=' if ends[0] == '[' else '>'} {low}")
        if high is not None:
            parts.append(f"{'<=' if ends[1] == ']' else '<'} {high}")
        rule = "be " + " and ".join(parts)
    raise (DomainError if finite else NonFiniteError)(f"{name} must {rule}, got {shown}")


def require_fields(obj, table) -> None:
    """require each attribute of obj that table names, in the table's Domain."""
    for name, domain in table.items():
        require(name, getattr(obj, name), *domain)
