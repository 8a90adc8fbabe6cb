"""Exception types shared across the package, and the integer check that
raises one for seeds, counts and indices."""

from numbers import Integral


class MultiqfError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(MultiqfError, ValueError):
    """Multiport dimension is smaller than 2 or otherwise unusable."""


class LayoutError(MultiqfError, ValueError):
    """Circuit layout contains a malformed element (bad ports, bad kind)."""


class DecompositionError(MultiqfError, ValueError):
    """Mesh decomposition cannot proceed (non-unitary input or residuals)."""


class ParameterError(MultiqfError, ValueError):
    """A numeric parameter is outside its admissible range."""


class FeasibilityError(MultiqfError, ValueError):
    """The gain inequality required by a referee strategy is violated."""


class ValidityError(MultiqfError, ValueError):
    """The small-photon-number regime assumption is violated."""


class ConvergenceError(MultiqfError, RuntimeError):
    """An iterative search ran out of budget before converging."""


def check_nonnegative_int(name: str, value) -> None:
    """Raise ``ParameterError`` unless ``value`` is a nonnegative integer (not a bool).

    Seeds, realization counts and realization indices are checked up front
    with it: numpy's ``SeedSequence`` takes only nonnegative integers, and a
    bad value is a typed error rather than numpy's ``ValueError`` or
    ``TypeError`` at the first draw (or ``True`` taken as 1).
    """
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ParameterError(f"{name} must be a nonnegative integer, got {value!r}")
