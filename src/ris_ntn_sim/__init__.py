"""Simulator and phase-shift optimizer for a relay-surface-assisted satellite downlink."""

__version__ = "0.21.0"

from .channel_model import (
    KA_BAND_HZ,
    SPEED_OF_LIGHT,
    ChannelSet,
    FadingSpec,
    LinkGeometry,
    fspl_amplitude,
    generate_channels,
    path_loss_db,
)
from .config import SimConfig, build_geometry, dbm_to_watts, format_config, link_columns, parse_config
from .errors import ConfigError, ConstraintViolated, InvalidInput, SimulatorError
from .phase_optimizer import (UNIT_TOLERANCE, Architecture, OptimizeResult, PhaseShiftMatrix, optimize,
                              validate)
from .sweep import CSV_HEADER, SweepRecord, SweepRecords, emit_csv, run_sweep

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
