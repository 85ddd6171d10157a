"""Golden output: a fixed small sweep must keep its exact bytes.

An intended output change bumps the package version, replaces these values
and says why in CHANGES.md.
"""

import hashlib
import re
from pathlib import Path

import ris_ntn_sim
from ris_ntn_sim import SimConfig, emit_csv, run_sweep
from ris_ntn_sim.sweep import _metadata_path

GOLDEN_CONFIG = SimConfig(trials=50, architectures=("sc", "fc", "gc:4"), seed=42)

GOLDEN_CSV_SHA256 = "01f3e304a3dc96825e5da243ed1ce9b6943de20a52176ae6c71297a73cf02199"

GOLDEN_META_TAIL = """\
software = ris-ntn-sim 0.4.0
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


# Pins what the first config leaves out: the direct-link streams, common_los
# fading, a single-element surface and skipped gc cells.
GOLDEN_DIRECT_CONFIG = SimConfig(trials=40, architectures=("sc", "gc:2"),
                                 elements_sweep=(1, 6, 8, 33), fading_phase_mode="common_los",
                                 direct_link="clear", seed=7)

GOLDEN_DIRECT_CSV_SHA256 = "8fa8c949c0ea57a24f418e3608fd586b08e5395679bfa84198c88e8c17431a1f"
GOLDEN_DIRECT_RECORDS = 252


def test_golden_csv_and_metadata(tmp_path):
    path = tmp_path / "golden.csv"
    emit_csv(run_sweep(GOLDEN_CONFIG), path, GOLDEN_CONFIG)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256
    timestamp, tail = _metadata_path(path).read_text(encoding="utf-8").split("\n", 1)
    assert timestamp.startswith("generated_at = ")
    assert tail == GOLDEN_META_TAIL


def test_golden_direct_link_csv(tmp_path):
    path = tmp_path / "golden_direct.csv"
    count = emit_csv(run_sweep(GOLDEN_DIRECT_CONFIG), path, GOLDEN_DIRECT_CONFIG)
    assert count == GOLDEN_DIRECT_RECORDS
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_DIRECT_CSV_SHA256


def test_package_version_matches_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert version is not None and version.group(1) == ris_ntn_sim.__version__
