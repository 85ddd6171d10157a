"""Exception types shared across the simulator modules."""


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
