"""Exception types shared across the package.

The split mirrors the CLI exit codes: validation problems (bad input data),
infeasible machine parameters (the request is well-formed but no unitary
exists), and numerical failures (a solver could not meet its contract).

Batched calls return one *outcome* per row: the row's value, or the
exception the unbatched call would have raised for it.  :func:`capture`
makes an outcome from a call and :func:`unwrap` turns one back into a
value or a raise.
"""

from __future__ import annotations


class CloneKitError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CloneKitError, ValueError):
    """Malformed or out-of-range input data."""


class InfeasibleError(CloneKitError):
    """Machine parameters admit no unitary realization."""


class NumericalError(CloneKitError):
    """A numerical routine failed to meet its contract."""


def capture(fn, *args):
    """The outcome of ``fn(*args)``: its value, or the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def unwrap(outcome):
    """The value of an outcome; raises it when it is an exception."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
