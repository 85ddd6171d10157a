"""Exception types shared across the simulator modules, and the checks of numeric inputs."""

import math
import numbers
import operator

import numpy as np


class SimulatorError(Exception):
    """Base class for every error raised by this package, and the class of a runtime fault."""


class ConfigError(SimulatorError, ValueError):
    """A config that cannot be read, parsed or run.

    key names the config key at fault; it is None for an unreadable file, a
    malformed line or a link budget without finite rows.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


class ConstraintViolated(SimulatorError, ValueError):
    """A phase-shift matrix lies outside its architecture's feasible set.

    Carries the (row, col) location of the first violated entry and the
    numerical residual of the violated constraint.
    """

    def __init__(self, location, residual, reason):
        self.location = tuple(int(i) for i in location)
        self.residual = float(residual)
        self.reason = reason
        super().__init__(f"{reason} at {self.location} (residual {self.residual:.3e})")


class InvalidInput(SimulatorError, ValueError):
    """A bad argument: an input outside its domain, or shapes that do not agree.

    A non-positive distance, carrier, power or element count, altitudes that
    do not put the satellite above the relay above ground, an unknown
    architecture or fading model, a bool or text where a number belongs, or
    array shapes and element counts that disagree.
    """


def finite_float(value) -> float:
    """value as a finite Python float: any real number, numpy's included, but a bool.

    Anything else raises ValueError, whose message follows the field's name.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"must be a real number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def number_array(value) -> np.ndarray:
    """np.asarray(value) if it is a rectangular array of integers, floats or complex numbers.

    A ragged, bool, text or object array raises ValueError, whose message follows the field's name.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # numpy's inhomogeneous-shape error
        raise ValueError("must be a rectangular array of numbers") from None
    if array.dtype.kind == "b":  # True is not a gain
        raise ValueError("must hold numbers, not booleans")
    if array.dtype.kind not in "iufc":
        raise ValueError(f"must hold numbers, got dtype {array.dtype}")
    return array


def positive_float(value) -> float:
    """finite_float(value), which must also be positive, else ValueError."""
    value = finite_float(value)
    if not value > 0:
        raise ValueError(f"must be positive, got {value!r}")
    return value


def exact_int(value) -> int:
    """value as a Python int: any integer operator.index accepts, numpy's included, but a bool.

    Anything else, 1.5 too, raises ValueError, whose message follows the field's name.
    """
    # bool is an int subclass, but True is not a count or a seed
    if isinstance(value, bool):
        raise ValueError("must be an integer, not a boolean")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"must be an integer, got {type(value).__name__}") from None


def linear_from_db(value, per_decade: float) -> float:
    """10 ** (value / per_decade): per_decade is 10 for a power ratio and 20 for an amplitude.

    value must pass finite_float; one whose linear value overflows a float
    raises ValueError too, whose message follows the field's name.
    """
    value = finite_float(value)
    try:
        return 10.0 ** (value / per_decade)
    except OverflowError:
        raise ValueError(f"must be finite on the linear scale, but 10 ** ({value!r} / "
                         f"{per_decade:g}) overflows a float") from None


def checked_args(check, **args) -> list:
    """check(value) of each keyword argument in order; a ValueError is an InvalidInput naming it."""
    values = []
    for name, value in args.items():
        try:
            values.append(check(value))
        except ValueError as exc:
            raise InvalidInput(f"{name} {exc}") from None
    return values
