"""The package's public names and constructors are pinned, so any change to them is deliberate."""

import inspect

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

# constructor parameters of every public class that is not an exception
CONSTRUCTOR_FIELDS = {
    "Architecture": ("kind", "groups"),
    "ChannelSet": ("h", "g", "h_d"),
    "FadingSpec": ("model", "k_factor_db"),
    "LinkGeometry": ("leo_altitude_m", "haps_altitude_m", "carrier_hz"),
    "OptimizeResult": ("phi", "objective", "degenerate"),
    "PhaseShiftMatrix": ("matrix", "arch"),
    "RfConfig": ("tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz", "static_power_w"),
    "SimConfig": ("carrier_hz", "tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz",
                  "leo_altitude_m", "haps_altitude_m", "elements_sweep", "architectures",
                  "fading_model", "rician_k_db", "fading_phase_mode", "direct_link", "trials",
                  "seed", "tx_gain_dbi", "ris_element_gain_dbi", "rx_gain_dbi", "static_power_w"),
    "SweepRecord": ("arch", "elements", "trial", "h_eff_mag", "snr_db", "rate_bps",
                    "ee_bits_per_joule", "seed"),
    "SweepRecords": ("cfg", "cells"),
}


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


def test_constructor_fields_are_the_pinned_ones():
    public = (getattr(ris_ntn_sim, name) for name in PUBLIC_NAMES)
    fields = {cls.__name__: tuple(inspect.signature(cls).parameters) for cls in public
              if isinstance(cls, type) and not issubclass(cls, Exception)}
    assert fields == CONSTRUCTOR_FIELDS
