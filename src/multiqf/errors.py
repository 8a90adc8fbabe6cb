"""Exception types shared across the package, and the input checks that raise
one: ``check_real``, ``check_int`` and ``check_type``.  The number checks
reject bools, which would otherwise pass every range as 0 or 1."""

from numbers import Integral, Real
from sys import float_info

import numpy as np

#: The ends of the float range: a finite number lies between them.
_MAX = float_info.max


class MultiqfError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(MultiqfError, ValueError):
    """Multiport dimension is smaller than 2 or otherwise unusable."""


class LayoutError(MultiqfError, ValueError):
    """Circuit layout contains a malformed element (bad ports, bad kind)."""


class DecompositionError(MultiqfError, ValueError):
    """Mesh decomposition cannot proceed (non-unitary input or residuals)."""


class ParameterError(MultiqfError, ValueError):
    """A parameter has the wrong type or lies outside its admissible range."""


class FeasibilityError(MultiqfError, ValueError):
    """The gain inequality required by a referee strategy is violated."""


class ValidityError(MultiqfError, ValueError):
    """The small-photon-number regime assumption is violated."""


class ConvergenceError(MultiqfError, RuntimeError):
    """An iterative search ran out of budget before converging."""


def check_real(name: str, x, lo=-_MAX, hi=_MAX, ends: str = "[]", *, array=False, why=None):
    """Raise ``ParameterError`` unless ``x`` is a real number from ``lo`` to
    ``hi`` (by default the ends of the float range, so ``x`` is finite), each
    end closed or open as ``ends`` says: "[]", "[)", "(]" or "()".

    Python and numpy ints and floats pass; bools, strings, NaN, +-inf and
    ints beyond the float range do not.  With ``array``, so does a nonempty
    int or float ndarray whose elements all pass.  ``why`` replaces the
    message's statement of the range.
    """
    t = type(x)
    if (t is float or t is int) and lo < x < hi:  # the fast path
        return
    if t is float or t is int or isinstance(x, Real) and t is not bool:
        # as a Python number: a numpy one compares in its dtype (float32 overflows)
        low = high = x.item() if isinstance(x, np.generic) else x
    elif array and t is np.ndarray and x.dtype.kind in "iuf" and x.size:
        low, high = x.min().item(), x.max().item()
    else:
        low = high = None
    if low is not None and (lo < low if ends[0] == "(" else lo <= low) and (
            high < hi if ends[1] == ")" else high <= hi):
        return
    if why is None:
        left = "(-inf" if lo == -_MAX else f"{ends[0]}{lo:g}"
        right = "inf)" if hi == _MAX else f"{hi:g}{ends[1]}"
        finite = " and finite" if _MAX in (-lo, hi) else ""
        why = f"{name} must be a real number in {left}, {right}{finite}"
    raise ParameterError(why if isinstance(x, np.ndarray) else f"{why}, got {x!r}")


def check_int(name: str, x, lo: int = 0, hi: int | None = None, error=ParameterError) -> None:
    """Raise ``error`` unless ``x`` is a Python or numpy integer, not a bool,
    from ``lo`` to ``hi`` (no upper end if None): seeds, counts, indices."""
    integer = type(x) is int or isinstance(x, Integral) and type(x) is not bool
    if integer and lo <= x and (hi is None or x <= hi):
        return
    need = f"an integer in {lo}..{hi}" if hi is not None else (
        "a nonnegative integer" if lo == 0 else f"an integer >= {lo}")
    raise error(f"{name} must be {need}, got {x!r}")


def check_type(name: str, x, cls: type) -> None:
    """Raise ``ParameterError`` unless ``x`` is a ``cls``: a parameter record."""
    if not isinstance(x, cls):
        raise ParameterError(f"{name} must be a {cls.__name__}, got {x!r}")
