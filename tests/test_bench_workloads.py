"""The benchmark's inputs: each workload's config parses, and a short sweep of it passes the benchmark's check.

bench/workloads.py and bench/check.py are read as they are, so a package
change that breaks a benchmark workload fails here first.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from ris_ntn_sim import parse_config
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
