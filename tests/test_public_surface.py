"""The package's public names, constructors and knobs are pinned, so changing one is deliberate."""

import argparse
import ast
import inspect
from pathlib import Path

import ris_ntn_sim
from ris_ntn_sim import cli

SOURCE = Path(__file__).parents[1] / "src" / "ris_ntn_sim"

PUBLIC_NAMES = [
    "Architecture", "CSV_HEADER", "ChannelSet", "ConfigError", "ConstraintViolated",
    "DimensionMismatch", "FadingSpec", "InvalidInput", "KA_BAND_HZ", "LinkGeometry",
    "OptimizeResult", "PhaseShiftMatrix", "SPEED_OF_LIGHT", "SimConfig",
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
    "SimConfig": ("carrier_hz", "tx_power_dbm", "bandwidth_hz", "noise_psd_dbm_hz",
                  "leo_altitude_m", "haps_altitude_m", "elements_sweep", "architectures",
                  "fading_model", "rician_k_db", "fading_phase_mode", "direct_link", "trials",
                  "seed", "tx_gain_dbi", "ris_element_gain_dbi", "rx_gain_dbi", "static_power_w"),
    "SweepRecord": ("arch", "elements", "trial", "h_eff_mag", "snr_db", "rate_bps",
                    "ee_bits_per_joule", "seed"),
    "SweepRecords": ("cfg", "cells"),
}

# option strings of the command line, by subcommand ("" for the program itself)
CLI_OPTIONS = {
    "": ("-h", "--help"),
    "sweep": ("-h", "--help", "--config", "--out", "--trials", "--seed", "--arch"),
    "validate": ("-h", "--help", "--config"),
    "budget": ("-h", "--help", "--distance-m", "--freq-hz"),
}


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 36
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


def option_strings(parser: argparse.ArgumentParser) -> tuple:
    return tuple(option for action in parser._actions for option in action.option_strings)


def test_cli_options_are_the_pinned_ones():
    parser = cli.build_parser()
    [subparsers] = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    options = {name: option_strings(sub) for name, sub in subparsers.choices.items()}
    assert {"": option_strings(parser), **options} == CLI_OPTIONS


def test_no_source_file_reads_the_environment():
    # a setting that only an environment variable reaches would bypass the config and its echo
    names = {"environ", "environb", "getenv", "getenvb"}
    files = sorted(SOURCE.glob("*.py"))
    assert len(files) >= 10
    reads = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                used = {node.attr}
            elif isinstance(node, ast.Name):
                used = {node.id}
            elif isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
            else:
                continue
            reads += [f"{path.name}:{node.lineno}: {name}" for name in sorted(used & names)]
    assert reads == []
