"""Exception types shared across the simulator modules, and the check of real-valued fields."""

import math
import numbers


class SimulatorError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SimulatorError, ValueError):
    """A config that cannot be read, parsed or run.

    key names the config key at fault; it is None for an unreadable file, a
    malformed line or a link budget without finite rows.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


class DimensionMismatch(SimulatorError, ValueError):
    """Array shapes or element counts do not agree."""


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
    """An input lies outside its domain.

    A non-positive distance, carrier, power or element count, or altitudes
    that do not put the satellite above the relay above ground.
    """


class SweepError(SimulatorError, RuntimeError):
    """Failure inside a sweep, annotated with (arch, elements, trial) context."""


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


def finite_float_fields(instance, names) -> None:
    """Store each named field of a frozen dataclass as its finite_float; a ValueError names it."""
    for name in names:
        try:
            object.__setattr__(instance, name, finite_float(getattr(instance, name)))
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
