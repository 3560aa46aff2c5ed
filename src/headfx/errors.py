"""Exception types shared across the package, the one check of an
input's domain, scalar or array, and the one way to run independent
blocks of work on threads.

The CLI maps invalid input (ConfigError, DomainError and its subclasses
NonFiniteError and DimensionMismatchError) to exit code 2 and
NumericalError (and its subclasses) to exit code 3; everything else is
a plain bug.

require is the one home of the rule for a valid number: each config
class and solver control states its scalar domains as a table of
Domain values (checked by require_fields) or as require calls.
require_array is the one home of the rule for a valid array: the same
rule for each entry, plus a shape. Every public vector argument (audiences,
qualities, promotion shares, prices, metric inputs) goes through it.

cpu_count decides how many threads a kernel may use (1 in a pool
worker, so a command runs in parallel across runs or inside a run, not
both), and map_in_threads runs the grid oracle's column blocks and the
ABM round kernel's viewer blocks on that many: a failing block stops
the blocks after it, and its error is the one raised. Both live here
because this is the one module every layer already imports.
"""

import math
import numbers
import os
import sys
from typing import NamedTuple

import numpy as np


class HeadfxError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HeadfxError, ValueError):
    """A parameter or input violates its documented domain."""


class DimensionMismatchError(DomainError):
    """An array argument has the wrong shape; the message names it."""


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
    rule = _rule(low, high, ends, integer)
    raise (DomainError if finite else NonFiniteError)(f"{name} must {rule}, got {shown}")


def _rule(low, high, ends, integer=False) -> str:
    """The domain as a message states it, after "must"."""
    if low is not None and high is not None:
        return f"lie in {ends[0]}{low}, {high}{ends[1]}"
    parts = [] if integer else ["finite"]
    if low is not None:
        parts.append(f"{'>=' if ends[0] == '[' else '>'} {low}")
    if high is not None:
        parts.append(f"{'<=' if ends[1] == ']' else '<'} {high}")
    return "be " + " and ".join(parts)


def _holds_numbers(value, a: np.ndarray) -> bool:
    """Whether every entry of value, read by numpy as a, is a real number."""
    if a.dtype.kind in "iuf":
        if isinstance(value, np.ndarray):
            return True
        # numpy reads a bool among numbers as 0 or 1: look at the entries
        a = np.array(value, dtype=object)
    elif a.dtype.kind != "O":
        return False
    return all(
        issubclass(t, numbers.Real) and not issubclass(t, (bool, np.bool_))
        for t in set(map(type, a.flat))
    )


def require_array(name, value, low=None, high=None, ends="[]", shape=(None,)) -> np.ndarray:
    """value as a float array, if each entry passes require(name, entry,
    low, high, ends) and the array has shape and at least one entry.

    shape gives each axis's length, None for any length. A bool or str
    entry fails, also inside a list of numbers. A wrong shape raises
    DimensionMismatchError; otherwise the first entry outside the domain
    is named by its index, and a non-finite one raises NonFiniteError.
    A float64 array comes back as it is, not copied.
    """
    try:
        a = np.asarray(value)
    except ValueError:  # a ragged nest of lists
        a = None
    if a is None or not _holds_numbers(value, a):
        raise DomainError(f"{name} must be an array of numbers, got {value!r}")
    try:
        a = np.asarray(a, dtype=float)
    except OverflowError:
        raise NonFiniteError(f"{name} must be finite, got an int too large for a float") from None
    if a.ndim != len(shape) or any(n not in (None, d) for n, d in zip(shape, a.shape)):
        want = ", ".join("any" if n is None else str(n) for n in shape)
        raise DimensionMismatchError(
            f"{name} must have shape ({want}{',' if len(shape) == 1 else ''}), got {a.shape}"
        )
    if a.size == 0:
        raise DimensionMismatchError(f"{name} must have at least one entry")
    ok = np.isfinite(a)
    if low is not None:
        ok &= a >= low if ends[0] == "[" else a > low
    if high is not None:
        ok &= a <= high if ends[1] == "]" else a < high
    if not ok.all():
        at = np.unravel_index(np.argmin(ok), a.shape)
        x = float(a[at])
        error = DomainError if math.isfinite(x) else NonFiniteError
        index = ", ".join(map(str, at))
        raise error(f"{name}[{index}] must {_rule(low, high, ends)}, got {x!r}")
    return a


def require_fields(obj, table) -> None:
    """require each attribute of obj that table names, in the table's Domain."""
    for name, domain in table.items():
        require(name, getattr(obj, name), *domain)


def cpu_count() -> int:
    """The threads a kernel may use: 1 in a process that multiprocessing
    started (a pool worker), else the CPUs this process may run on."""
    # looked up, not imported: a run in process never loads multiprocessing
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_in_threads(func, items, workers: int) -> list:
    """[func(item) for item in items] on a pool of workers threads that
    start the items in order, each item in a copy of the caller's context
    (which holds np.errstate). Once an item raises, no further item
    starts, and the error raised is that of the first failing item in
    order, as in the loop, which one worker runs in the calling thread."""
    if workers == 1:
        return [func(item) for item in items]
    # imported here, so runs on one thread never load concurrent.futures
    from concurrent.futures import ThreadPoolExecutor
    from contextvars import copy_context
    from threading import Event

    failed = Event()

    def run(item):
        if failed.is_set():
            return None
        try:
            return func(item)
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(copy_context().run, run, item) for item in items]
    # the items start in order, so a failure precedes every skipped item
    return [future.result() for future in futures]
