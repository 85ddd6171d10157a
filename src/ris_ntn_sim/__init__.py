"""Simulator and phase-shift optimizer for a relay-surface-assisted satellite downlink."""

__version__ = "0.6.0"

from .channel_model import (
    KA_BAND_HZ,
    SPEED_OF_LIGHT,
    FadingSpec,
    LinkGeometry,
    build_geometry,
    fspl_amplitude,
    generate_channels,
    path_loss_db,
)
from .config import ConfigError, SimConfig, format_config, parse_config
from .errors import (
    ConstraintViolated,
    DimensionMismatch,
    InvalidInput,
    SimulatorError,
    SweepError,
)
from .link_metrics import (
    RfConfig,
    dbm_to_watts,
    energy_efficiency,
    link_columns,
    noise_power_dbm,
    noise_power_watts,
    rate_bps,
    snr_db,
    snr_linear,
)
from .phase_optimizer import (
    OptimizeResult,
    closed_form_objective,
    optimize,
)
from .ris_core import (
    UNIT_TOLERANCE,
    Architecture,
    ChannelSet,
    PhaseShiftMatrix,
    effective_channel,
    validate,
)
from .sweep import CSV_HEADER, SweepRecord, SweepRecords, derive_trial_seed, emit_csv, run_sweep

__all__ = [
    "__version__",
    "Architecture", "PhaseShiftMatrix", "ChannelSet", "UNIT_TOLERANCE",
    "validate", "effective_channel",
    "SPEED_OF_LIGHT", "KA_BAND_HZ", "LinkGeometry", "FadingSpec",
    "fspl_amplitude", "path_loss_db", "build_geometry", "generate_channels",
    "OptimizeResult", "optimize", "closed_form_objective",
    "RfConfig", "dbm_to_watts", "noise_power_dbm", "noise_power_watts",
    "snr_linear", "snr_db", "rate_bps", "energy_efficiency", "link_columns",
    "SimConfig", "parse_config", "format_config", "ConfigError",
    "SweepRecord", "SweepRecords", "run_sweep", "emit_csv", "derive_trial_seed", "CSV_HEADER",
    "SimulatorError", "DimensionMismatch", "ConstraintViolated", "InvalidInput", "SweepError",
]
