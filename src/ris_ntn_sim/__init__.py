"""Simulator and phase-shift optimizer for a relay-surface-assisted satellite downlink."""

__version__ = "0.23.0"

import importlib

from .config import (KA_BAND_HZ, SPEED_OF_LIGHT, Architecture, FadingSpec, LinkGeometry, SimConfig, build_geometry,
                     dbm_to_watts, format_config, fspl_amplitude, link_columns, parse_config, path_loss_db)
from .errors import ConfigError, ConstraintViolated, InvalidInput, SimulatorError

# The numeric names, by the module that defines them. Each module, and numpy with it, loads on
# the first access to one of its names (PEP 562), so building and checking configs loads no numpy.
_LAZY = {
    **dict.fromkeys(("ChannelSet", "generate_channels"), "channel_model"),
    **dict.fromkeys(("UNIT_TOLERANCE", "OptimizeResult", "PhaseShiftMatrix", "optimize", "validate"),
                    "phase_optimizer"),
    **dict.fromkeys(("CSV_HEADER", "SweepRecord", "SweepRecords", "emit_csv", "run_sweep"), "sweep"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *_LAZY})


__all__ = [
    "__version__",
    "Architecture", "PhaseShiftMatrix", "ChannelSet", "UNIT_TOLERANCE", "validate",
    "SPEED_OF_LIGHT", "KA_BAND_HZ", "LinkGeometry", "FadingSpec",
    "fspl_amplitude", "path_loss_db", "build_geometry", "generate_channels",
    "OptimizeResult", "optimize",
    "dbm_to_watts", "link_columns",
    "SimConfig", "parse_config", "format_config", "ConfigError",
    "SweepRecord", "SweepRecords", "run_sweep", "emit_csv", "CSV_HEADER",
    "SimulatorError", "ConstraintViolated", "InvalidInput",
]
