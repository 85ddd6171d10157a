"""The package's public names, constructors and knobs are pinned, so changing one is deliberate."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import ris_ntn_sim
from ris_ntn_sim import (
    Architecture,
    ChannelSet,
    ConfigError,
    FadingSpec,
    InvalidInput,
    LinkGeometry,
    PhaseShiftMatrix,
    SimConfig,
    build_geometry,
    cli,
    dbm_to_watts,
    fspl_amplitude,
    generate_channels,
    link_columns,
    path_loss_db,
)

SOURCE = Path(__file__).parents[1] / "src" / "ris_ntn_sim"

PUBLIC_NAMES = [
    "Architecture", "CSV_HEADER", "ChannelSet", "ConfigError", "ConstraintViolated",
    "FadingSpec", "InvalidInput", "KA_BAND_HZ", "LinkGeometry",
    "OptimizeResult", "PhaseShiftMatrix", "SPEED_OF_LIGHT", "SimConfig",
    "SimulatorError", "SweepRecord", "SweepRecords", "UNIT_TOLERANCE",
    "__version__", "build_geometry", "dbm_to_watts", "emit_csv",
    "format_config", "fspl_amplitude", "generate_channels", "link_columns",
    "optimize", "parse_config", "path_loss_db", "run_sweep", "validate",
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
    "SweepRecords": ("cfg",),
}

# option strings of the command line, by subcommand ("" for the program itself)
CLI_OPTIONS = {
    "": ("-h", "--help"),
    "sweep": ("-h", "--help", "--config", "--out", "--trials", "--seed", "--arch"),
    "validate": ("-h", "--help", "--config"),
    "budget": ("-h", "--help", "--distance-m", "--freq-hz"),
}


def test_all_is_the_pinned_list():
    assert len(PUBLIC_NAMES) == 30
    assert sorted(ris_ntn_sim.__all__) == PUBLIC_NAMES


def test_every_public_exception_is_a_simulator_error():
    errors = [getattr(ris_ntn_sim, name) for name in PUBLIC_NAMES
              if isinstance(getattr(ris_ntn_sim, name), type)
              and issubclass(getattr(ris_ntn_sim, name), Exception)]
    assert len(errors) == 4
    assert all(issubclass(e, ris_ntn_sim.SimulatorError) for e in errors)
    assert issubclass(ris_ntn_sim.ConfigError, ValueError)


def test_constructor_fields_are_the_pinned_ones():
    public = (getattr(ris_ntn_sim, name) for name in PUBLIC_NAMES)
    fields = {cls.__name__: tuple(inspect.signature(cls).parameters) for cls in public
              if isinstance(cls, type) and not issubclass(cls, Exception)}
    assert fields == CONSTRUCTOR_FIELDS


GEOMETRY = {"leo_altitude_m": 600e3, "haps_altitude_m": 15e3, "carrier_hz": 18.7e9}
HOP = {"distance_m": 600e3, "freq_hz": 18.7e9}
DRAW = {"elements": 4, "seed": 1, "tx_gain_dbi": 0.0, "ris_element_gain_dbi": 0.0, "rx_gain_dbi": 0.0}
CONFIG_NUMBERS = [f.name for f in dataclasses.fields(SimConfig) if f.type in ("float", "int")]


def with_true(values: dict, key: str) -> dict:
    return {**values, key: True}


# (entry point and argument, error class, text its message holds, call with True for that number)
TRUE_FOR_A_NUMBER = [
    ("Architecture.groups", InvalidInput, "group count", lambda: Architecture("gc", True)),
    ("Architecture.block_size", InvalidInput, "elements",
     lambda: Architecture("fc").block_size(True)),
    ("FadingSpec.k_factor_db", InvalidInput, "k_factor_db", lambda: FadingSpec(k_factor_db=True)),
    *((f"ChannelSet.{key}", InvalidInput, f"^{key} must hold numbers",
       lambda key=key: ChannelSet(**{"h": [1.0], "g": [1.0], "h_d": 0.0, key: True}))
      for key in ("h", "g", "h_d")),
    ("PhaseShiftMatrix.matrix", InvalidInput, "^matrix must hold numbers",
     lambda: PhaseShiftMatrix([[True]], Architecture("sc"))),
    ("link_columns.h_eff", InvalidInput, "^h_eff must hold numbers", lambda: link_columns(True, SimConfig())),
    ("dbm_to_watts", InvalidInput, "p_dbm", lambda: dbm_to_watts(True)),
    *((f"{call.__name__}.{key}", InvalidInput, key, lambda call=call, key=key: call(**with_true(HOP, key)))
      for call in (fspl_amplitude, path_loss_db) for key in HOP),
    *((f"LinkGeometry.{key}", InvalidInput, key,
       lambda key=key: LinkGeometry(**with_true(GEOMETRY, key))) for key in GEOMETRY),
    *((f"SimConfig.{key}", ConfigError, key, lambda key=key: SimConfig(**{key: True}))
      for key in CONFIG_NUMBERS),
    ("SimConfig.elements_sweep", ConfigError, "elements_sweep",
     lambda: SimConfig(elements_sweep=(8, True))),
    *((f"generate_channels.{key}", InvalidInput, key,
       lambda key=key: generate_channels(LinkGeometry(**GEOMETRY), FadingSpec(), **with_true(DRAW, key)))
      for key in DRAW),
]


def test_every_config_number_is_covered():
    assert len(CONFIG_NUMBERS) == 13


def test_a_bad_argument_outside_a_config_is_an_invalid_input():
    assert {case[1] for case in TRUE_FOR_A_NUMBER if not case[0].startswith("SimConfig.")} == {InvalidInput}


@pytest.mark.parametrize("error, text, call", [case[1:] for case in TRUE_FOR_A_NUMBER],
                         ids=[case[0] for case in TRUE_FOR_A_NUMBER])
def test_true_is_refused_for_every_number(error, text, call):
    # a bool is an int to Python, but never a count, a seed, a level or a length
    assert issubclass(error, ValueError)
    with pytest.raises(error, match=text) as info:
        call()
    assert type(info.value) is error


# (check, text its message starts with, call that fails it)
BAD_ARGUMENTS = [
    ("Architecture.kind", "unknown architecture kind", lambda: Architecture("xc")),
    ("Architecture.groups", "group-connected architecture needs", lambda: Architecture("gc", 0)),
    ("Architecture.groups.unused", "architecture 'fc' takes no group count", lambda: Architecture("fc", 2)),
    ("Architecture.from_label.groups", "bad group count", lambda: Architecture.from_label("gc:04")),
    ("Architecture.from_label", "unknown architecture label", lambda: Architecture.from_label("xc")),
    *((f"Architecture.from_label.{type(label).__name__}", "architecture label must be a string",
       lambda label=label: Architecture.from_label(label)) for label in (3, b"sc")),
    ("ChannelSet.finite", "channel entries must be finite",
     lambda: ChannelSet(h=[float("nan")], g=[1.0], h_d=0.0)),
    *((f"ChannelSet.{key}.{name}", f"{key} must hold numbers, got dtype",
       lambda key=key, value=value: ChannelSet(**{"h": [1.0], "g": [1.0], "h_d": 0.0, key: value}))
      for key, name, value in (("h_d", "text", "1+2j"), ("h", "text", ["1"]), ("g", "bytes", [b"1"]),
                               ("h", "none", [None]), ("h_d", "none", None), ("g", "dict", [{}]),
                               ("h", "fraction", [Fraction(1, 2)]), ("h", "int_past_int64", [2**70]))),
    *((f"PhaseShiftMatrix.matrix.{name}", "matrix must hold numbers, got dtype",
       lambda value=value: PhaseShiftMatrix(value, Architecture("sc")))
      for name, value in (("text", [["1"]]), ("none", [[None]]))),
    *((f"ChannelSet.h_d.{name}", r"h_d must be a scalar, got shape \(1,\)",
       lambda value=value: ChannelSet(h=[1.0], g=[1.0], h_d=value))
      for name, value in (("list", [1.0]), ("array", np.array([1.0])))),
    # optimize reads its objective from a ChannelSet, so an empty surface stops here
    ("ChannelSet.empty", r"h and g must be 1-D vectors of equal positive length, got \(0,\) and \(0,\)",
     lambda: ChannelSet(h=[], g=[], h_d=0.0)),
    ("ChannelSet.h.ragged", "h must be a rectangular array of numbers$",
     lambda: ChannelSet(h=[[1], [1, 2]], g=[1.0], h_d=0.0)),
    ("link_columns.h_eff", "h_eff must hold numbers, not booleans", lambda: link_columns(True, SimConfig())),
    # an object with every attribute of a SimConfig is not one: its values were never checked
    ("link_columns.cfg", "cfg must be a SimConfig, got SimpleNamespace",
     lambda: link_columns(1.0, SimpleNamespace(**vars(SimConfig())))),
    ("build_geometry.cfg", "cfg must be a SimConfig, got SimpleNamespace",
     lambda: build_geometry(SimpleNamespace(**vars(SimConfig())))),
    *((f"{name}.cfg.{type(cfg).__name__}", f"cfg must be a SimConfig, got {type(cfg).__name__}",
       lambda call=call, cfg=cfg: call(cfg))
      for name, call in (("link_columns", lambda cfg: link_columns(1.0, cfg)), ("build_geometry", build_geometry))
      for cfg in (vars(SimConfig()), None)),
    # a truthy non-bool must not pick the direct link: "False" would block it
    *((f"generate_channels.direct_blocked.{name}", f"direct_blocked must be a bool, got {name}",
       lambda value=value: generate_channels(LinkGeometry(**GEOMETRY), FadingSpec(), **DRAW,
                                             direct_blocked=value))
      for name, value in (("str", "False"), ("NoneType", None), ("int", 1), ("int64", np.int64(0)),
                          ("float", 1.0))),
    ("FadingSpec.model", "unknown fading model", lambda: FadingSpec(model="rayleigh")),
    ("FadingSpec.k_factor_db", "k_factor_db must be finite", lambda: FadingSpec(k_factor_db=float("nan"))),
]


@pytest.mark.parametrize("text, call", [case[1:] for case in BAD_ARGUMENTS],
                         ids=[case[0] for case in BAD_ARGUMENTS])
def test_every_bad_argument_is_an_invalid_input(text, call):
    with pytest.raises(InvalidInput, match=f"^{text}") as info:
        call()
    assert type(info.value) is InvalidInput


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
    loaded = {name.partition(".")[2] or "__init__" for name in sys.modules
              if name.partition(".")[0] == "ris_ntn_sim"}
    assert loaded | {"_csv"} <= {path.stem for path in files}
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


def test_no_source_file_imports_threading():
    # draws keep no per-thread state: each Rician draw makes and checks its own generator
    imports = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] == "threading"]
    assert imports == []


def package_imports(name: str) -> list:
    """(enclosing function or None, module) of each package module that module name imports."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ris_ntn_sim")):
            found.extend((function, node.module or alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((function, alias.name) for alias in node.names
                         if alias.name.startswith("ris_ntn_sim"))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8")), None)
    return found


def test_errors_is_a_leaf_module():
    assert package_imports("errors") == []


# The package's modules besides __init__ and the leaf _csv, in the one order they import in.
IMPORT_ORDER = ("errors", "channel_model", "phase_optimizer", "config", "sweep", "cli")


def test_each_module_imports_only_the_modules_before_it():
    assert sorted(path.stem for path in SOURCE.glob("*.py")) == sorted(("__init__", "_csv", *IMPORT_ORDER))
    assert package_imports("_csv") == []
    assert {module for _, module in package_imports("__init__")} <= set(IMPORT_ORDER)
    later = []
    for rank, name in enumerate(IMPORT_ORDER):
        for function, module in package_imports(name):
            # sweep reads the package's version, and loads the formatter on first use
            exempt = name == "sweep" and (module == "__version__" or (module == "_csv" and function))
            if not exempt and module not in IMPORT_ORDER[:rank]:
                later.append((name, function, module))
    assert later == []


def test_channel_model_does_not_know_the_config():
    assert "SimConfig" not in (SOURCE / "channel_model.py").read_text(encoding="utf-8")


def test_only_the_csv_formatter_is_imported_inside_a_function():
    # an import inside a function can hide a cycle; _csv waits for its first use to keep
    # the package's import fast
    late = [(path.stem, function, module) for path in sorted(SOURCE.glob("*.py"))
            for function, module in package_imports(path.stem)
            if function is not None and module != "_csv"]
    assert late == []


def run_module(*args) -> subprocess.CompletedProcess:
    """python -m ris_ntn_sim.cli with args, on this source tree, in a process of its own."""
    paths = [str(SOURCE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run([sys.executable, "-m", "ris_ntn_sim.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)})


def test_the_module_entry_point_validates_and_warns_once(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("carrier_hz = 1e10\n")
    done = run_module("validate", "--config", cfg_file)
    assert done.returncode == 0
    assert done.stdout.startswith("config ok\ncarrier_hz = 10000000000.0\n")
    assert done.stderr == "carrier 1e+10 Hz is outside the Ka band 1.77e+10-1.97e+10 Hz\n"


def test_validate_and_sweep_log_the_same_skipped_cell_once(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("architectures = sc, gc:3\nelements_sweep = 8, 9\ntrials = 2\n")
    validated = run_module("validate", "--config", cfg_file)
    swept = run_module("sweep", "--config", cfg_file, "--out", tmp_path / "out.csv")
    assert validated.returncode == swept.returncode == 0
    assert validated.stderr == swept.stderr == (
        "skipping arch=gc:3 elements=8: group count 3 does not divide element count 8\n")


def test_a_refused_config_prints_only_its_error(tmp_path):
    # the skip warning is logged after the last check, so a refused config never reaches it
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("architectures = sc, gc:3\nelements_sweep = 8\ntrials = 0\n")
    done = run_module("validate", "--config", cfg_file)
    assert done.returncode == 2
    assert done.stderr == ("ris-ntn-sim: error: config: ConfigError: key 'trials': "
                           "must be an integer in [1, 2147483647]\n")


def test_the_console_script_is_cli_main():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^\[\n].*\n)*)", pyproject, re.MULTILINE)
    assert scripts is not None
    entries = re.findall(r'^(\S+) = "([^"]+)"$', scripts.group(1), re.MULTILINE)
    assert entries == [("ris-ntn-sim", "ris_ntn_sim.cli:main")]
    module, _, attribute = entries[0][1].partition(":")
    assert getattr(importlib.import_module(module), attribute) is cli.main
