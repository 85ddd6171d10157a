"""Golden output: a fixed small sweep must keep its exact bytes.

An intended output change bumps the package version, replaces these values
and says why in CHANGES.md.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ris_ntn_sim
from ris_ntn_sim import SimConfig, _csv, emit_csv, format_config, run_sweep
from ris_ntn_sim.sweep import _metadata_path

GOLDEN_CONFIG = SimConfig(trials=50, architectures=("sc", "fc", "gc:4"), seed=42)

GOLDEN_CSV_SHA256 = "0977ae3f19a81b7103ec6a86db1c72d12bb1d7c5e70e2a790384a18a7450bf9e"

GOLDEN_META_TAIL = """\
software = ris-ntn-sim 0.23.0
records = 1248
noise_psd_note = noise_psd_dbm_hz is a power spectral density in dBm/Hz; total noise power is noise_psd_dbm_hz + 10*log10(bandwidth_hz)

[resolved config]
carrier_hz = 18700000000.0
tx_power_dbm = 50.0
bandwidth_hz = 20000000.0
noise_psd_dbm_hz = -170.0
leo_altitude_m = 600000.0
haps_altitude_m = 15000.0
elements_sweep = 8, 16, 24, 32, 40, 48, 56, 64
architectures = sc, fc, gc:4
fading_model = rician
rician_k_db = 10.0
fading_phase_mode = iid_uniform
direct_link = blocked
trials = 50
seed = 42
tx_gain_dbi = 0.0
ris_element_gain_dbi = 0.0
rx_gain_dbi = 0.0
static_power_w = 0.0
"""


# Pins what the first config leaves out: the direct link's fades, the inert
# fading_phase_mode key, a single-element surface and skipped gc cells.
GOLDEN_DIRECT_CONFIG = SimConfig(trials=40, architectures=("sc", "gc:2"),
                                 elements_sweep=(1, 6, 8, 33), fading_phase_mode="common_los",
                                 direct_link="clear", seed=7)

GOLDEN_DIRECT_CSV_SHA256 = "5b6198e350ac87b4c60afd842f35773800aa53a7382e3068221ed5ca7b90f3a6"
GOLDEN_DIRECT_RECORDS = 252

# Pins pure line of sight, which neither config above draws: every trial of
# a cell carries the same values, over two chunks of trials and a skipped gc cell.
GOLDEN_LOS_CONFIG = SimConfig(trials=1500, architectures=("sc", "fc", "gc:4"),
                              elements_sweep=(6, 8, 64), fading_model="pure_los",
                              direct_link="clear", seed=11)

GOLDEN_LOS_CSV_SHA256 = "7e3b2afb231ee5142da3d6aa7100361dbfe3551e0ab3862d7e2a4d4a8f5353e4"
GOLDEN_LOS_RECORDS = 12016

# Pins Rician cells over three chunks of trials, written at several batch
# sizes: at 2101 rows a batch ends between a cell's mean and stderr rows.
GOLDEN_CHUNKS_CONFIG = SimConfig(trials=2100, architectures=("sc", "fc", "gc:4"),
                                 elements_sweep=(4, 64), seed=5)

GOLDEN_CHUNKS_CSV_SHA256 = "e69eb9514a08bfeffc66c119ef733623bad331932f739cba7e67982b6a3708e9"
GOLDEN_CHUNKS_RECORDS = 12612


def test_golden_csv_and_metadata(tmp_path):
    path = tmp_path / "golden.csv"
    emit_csv(run_sweep(GOLDEN_CONFIG), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256
    timestamp, tail = _metadata_path(path).read_text(encoding="utf-8").split("\n", 1)
    assert timestamp.startswith("generated_at = ")
    assert tail == GOLDEN_META_TAIL


def test_golden_direct_link_csv(tmp_path):
    path = tmp_path / "golden_direct.csv"
    count = emit_csv(run_sweep(GOLDEN_DIRECT_CONFIG), path)
    assert count == GOLDEN_DIRECT_RECORDS
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DIRECT_CSV_SHA256


# 1502 rows per cell: at 7 and 47 rows batches end inside runs, at 1501
# between a cell's mean and stderr rows; from 1502 up a cell fits in a batch.
@pytest.mark.parametrize("batch_rows", [7, 47, 1501, 1502, 1503, None])
def test_golden_pure_los_csv(tmp_path, monkeypatch, batch_rows):
    if batch_rows is not None:
        monkeypatch.setattr(_csv, "BATCH_ROWS", batch_rows)
    # every batch joins, so the array path never spells a float
    monkeypatch.setattr(_csv, "_exact_fields", None)
    path = tmp_path / "golden_los.csv"
    count = emit_csv(run_sweep(GOLDEN_LOS_CONFIG), path)
    assert count == GOLDEN_LOS_RECORDS
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_LOS_CSV_SHA256


@pytest.mark.parametrize("batch_rows", [7, 47, 2101, 2102, 2103, None])
def test_golden_chunked_csv_at_every_batch_size(tmp_path, monkeypatch, batch_rows):
    if batch_rows is not None:
        monkeypatch.setattr(_csv, "BATCH_ROWS", batch_rows)
    path = tmp_path / "golden_chunks.csv"
    count = emit_csv(run_sweep(GOLDEN_CHUNKS_CONFIG), path)
    assert count == GOLDEN_CHUNKS_RECORDS
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CHUNKS_CSV_SHA256


def dispatch_above_x86_v3() -> list:
    """numpy's SIMD dispatch targets above X86_V3 that this CPU has, in numpy's order."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy before 2.0 keeps them elsewhere
        return []
    if "X86_V3" not in __cpu_dispatch__:
        return []
    return [target for target in __cpu_dispatch__[__cpu_dispatch__.index("X86_V3") + 1:]
            if __cpu_features__.get(target)]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: numpy's AVX-512 log kernels round unlike its AVX2 ones")
def test_golden_csv_without_avx512_dispatch(tmp_path):
    # numpy reads the variable at import, so the sweep runs in a process of its own
    targets = dispatch_above_x86_v3()
    if not targets:
        pytest.skip("numpy dispatches no target above X86_V3 on this CPU")
    cfg_file, path = tmp_path / "golden.cfg", tmp_path / "golden.csv"
    cfg_file.write_text(format_config(GOLDEN_CONFIG) + "\n", encoding="utf-8")
    source = str(Path(__file__).parents[1] / "src")
    paths = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths),
           "NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    subprocess.run([sys.executable, "-m", "ris_ntn_sim.cli", "sweep", "--config", str(cfg_file),
                    "--out", str(path)], check=True, capture_output=True, timeout=120, env=env)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256


def test_package_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert version is not None and version.group(1) == ris_ntn_sim.__version__
