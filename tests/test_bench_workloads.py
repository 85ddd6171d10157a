"""The benchmark's inputs: each workload's config parses, and a short sweep of it passes the benchmark's check.

bench/workloads.py and bench/check.py are read as they are, so a package
change that breaks a benchmark workload fails here first.
"""

import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ris_ntn_sim import _csv, emit_csv, parse_config, run_sweep
from ris_ntn_sim.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where dataclasses looks its module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
check = _load("check")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_sweep_passes_the_bench_check(tmp_path, workload):
    text = workloads.config_text(workload, 42)
    cfg = dataclasses.replace(parse_config(text), trials=3)
    cfg_file, out_csv = tmp_path / "run.cfg", tmp_path / "out.csv"
    cfg_file.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv), "--trials", "3"]) == 0
    result = check.check_csv(out_csv.read_text(encoding="utf-8"), cfg)
    assert result.failed == 0, result.problems
    assert result.trial_rows == 3 * len(check.cells(cfg))


# The benchmark's pure line-of-sight CSV: every batch joins, its trial and seed
# texts built once per sweep.
LOS_GC_CSV_SHA256 = {
    42: "31a2d0a8a7b498440803a781be2b4b15a7c1aca4841cd46ea82b79fb50e12951",
    7: "733a5561775f3dcb11d393fd93a96b7a5aca1dee71384acdbe692a10b3342023",
    11: "d749bb6e80740329e2d9a153c5b27dacd207758a92e19ff552413c7d90b39ef4",
}


@pytest.mark.parametrize("seed", sorted(LOS_GC_CSV_SHA256))
def test_los_gc_csv_keeps_its_bytes(tmp_path, seed):
    path = tmp_path / "los_gc.csv"
    emit_csv(run_sweep(parse_config(workloads.config_text("los_gc", seed))), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LOS_GC_CSV_SHA256[seed]


# Calls of the array path's float spelling per emitted CSV: pure line-of-sight
# batches and large_m's 24-row batch join, default's 832-row batch does not.
@pytest.mark.parametrize("workload, calls", [("default", 1), ("large_m", 0), ("los_gc", 0)])
def test_which_batches_take_the_array_path(tmp_path, monkeypatch, workload, calls):
    spelled, exact_fields = [], _csv._exact_fields
    monkeypatch.setattr(_csv, "_exact_fields",
                        lambda *args: spelled.append(1) or exact_fields(*args))
    emit_csv(run_sweep(parse_config(workloads.config_text(workload, 42))), tmp_path / "run.csv")
    assert len(spelled) == calls
