"""The package's public names are pinned, so any addition or removal is deliberate."""

import ris_ntn_sim

PUBLIC_NAMES = [
    "Architecture", "CSV_HEADER", "ChannelSet", "ConfigError", "ConstraintViolated",
    "DimensionMismatch", "FadingSpec", "InvalidInput", "KA_BAND_HZ", "LinkGeometry",
    "OptimizeResult", "PhaseShiftMatrix", "RfConfig", "SPEED_OF_LIGHT", "SimConfig",
    "SimulatorError", "SweepError", "SweepRecord", "SweepRecords", "UNIT_TOLERANCE",
    "__version__", "build_geometry", "closed_form_objective", "dbm_to_watts",
    "derive_trial_seed", "effective_channel", "emit_csv", "format_config", "fspl_amplitude",
    "generate_channels", "link_columns", "noise_power_watts", "optimize", "parse_config",
    "path_loss_db", "run_sweep", "validate",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 37
    assert sorted(ris_ntn_sim.__all__) == PUBLIC_NAMES


def test_every_public_exception_is_a_simulator_error():
    errors = [getattr(ris_ntn_sim, name) for name in PUBLIC_NAMES
              if isinstance(getattr(ris_ntn_sim, name), type)
              and issubclass(getattr(ris_ntn_sim, name), Exception)]
    assert len(errors) == 6
    assert all(issubclass(e, ris_ntn_sim.SimulatorError) for e in errors)
    assert issubclass(ris_ntn_sim.ConfigError, ValueError)
