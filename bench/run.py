"""Sweep benchmark: run one workload and print its metrics as one JSON line.

usage: python3 bench/run.py --workload {default,large_m,los_gc}
                            [--seed 42] [--seconds 10] [--trace 0|1]

Run from the repository root (or any checkout of it); the program is imported
from ./src, nothing is installed. Steps:

1. setup_s: median over SETUP_PROBES fresh interpreters of the time to import
   the package, parse the workload config and build the geometry.
2. A fresh worker process (worker.py) runs the `sweep` command in a closed loop
   for --seconds; its peak resident memory is peak_rss_mb.
3. Every CSV the worker wrote goes through check.py; a sweep that raised or
   exited non-zero counts all its rows as failed. All CSVs of one run, and of
   earlier runs of the same code, workload and seed, must have one digest.

With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of the traced sweeps. Work files go to .bench_work/ in the
checkout. The last stdout line is the result; the line before it records the
run environment, the CSV digest and the exact counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import reference
import workloads
from check import cells, check_csv
from spans import EXACT_COUNTS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 150

# argv: config file, bench directory. Prints set-up seconds, then the
# seconds of the "calls" reference job run right after it.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
from ris_ntn_sim import build_geometry, parse_config
with open(sys.argv[1], encoding="utf-8") as f:
    build_geometry(parse_config(f.read()))
setup_s = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import reference
print(setup_s, reference.calls())
"""

# Per-layer times are per traced sweep, medians over the traced sweeps of a run.
LAYER_UNITS = {
    "config.parse_s": "s",
    "channel_model.calls": "count",
    "channel_model.busy_s": "s",
    "channel_model.call_us_p50": "us",
    "channel_model.call_us_p99": "us",
    "channel_model.elements_drawn": "count",
    "phase_optimizer.calls": "count",
    "phase_optimizer.self_s": "s",
    "phase_optimizer.call_us_p50": "us",
    "phase_optimizer.call_us_p99": "us",
    "phase_optimizer.matrix_bytes": "bytes",
    "phase_optimizer.degenerate": "count",
    "ris_core.validate_calls": "count",
    "ris_core.validate_s": "s",
    "link_metrics.calls": "count",
    "link_metrics.busy_s": "s",
    "link_metrics.nonfinite": "count",
    "sweep.seed_calls": "count",
    "sweep.seed_s": "s",
    "sweep.run_self_s": "s",
    "sweep.emit_s": "s",
    "sweep.records": "count",
    "sweep.csv_bytes": "bytes",
    "sweep.skipped_cells": "count",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.absent_layers": "count",
}


def child_env() -> dict[str, str]:
    # BLAS threads capped at the CPUs this process may use
    return dict(os.environ, PYTHONPATH=str(SRC),
                OPENBLAS_NUM_THREADS=str(len(os.sched_getaffinity(0))))


def setup_seconds(config: Path) -> float:
    """Median set-up time over fresh interpreters, scaled to the nominal machine."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(config), str(HERE)],
                             env=child_env(), cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        setup_s, reference_s = map(float, out.stdout.split())
        times.append(setup_s * reference.NOMINAL_S["calls"] / reference_s)
    return statistics.median(times)


def inputs_digest(config: Path) -> str:
    """Digest of the program's source and the config it ran."""
    digest = hashlib.sha256(config.read_bytes())
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def known_digest(key: str, csv_digest: str) -> str:
    """The digest earlier runs recorded under key, recording csv_digest if none did."""
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    known.setdefault(key, csv_digest)
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return known[key]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ris_ntn_sim" / "__init__.py").is_file():
        print(f"bench: no program to run: {SRC / 'ris_ntn_sim'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from ris_ntn_sim import parse_config

    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / f"{args.workload}.cfg"
    config.write_text(workloads.config_text(args.workload, args.seed), encoding="utf-8")
    cfg = parse_config(config.read_text(encoding="utf-8"))

    job = workloads.REFERENCE[args.workload]
    setup_s = setup_seconds(config) if not args.trace else None
    worker = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--config", str(config), "--out", str(run_dir),
         "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", str(args.trace),
         "--reference", job],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if worker.returncode != 0:
        print(worker.stderr, file=sys.stderr)
        return 1
    report = json.loads(worker.stdout.strip().splitlines()[-1])
    (run_dir / "report.json").write_text(json.dumps(report, indent=1))

    attempted = failed = 0
    correct = True
    digests, rates, raw_rates, problems = [], [], [], []
    verdicts = {}
    for sweep in report["sweeps"]:
        if sweep["exit"] != 0:
            rows = (cfg.trials + 2) * len(cells(cfg))
            attempted, failed = attempted + rows, failed + rows
            problems.append(f"sweep exited {sweep['exit']}: {sweep['error']}")
            continue
        data = Path(sweep["csv"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in verdicts:  # identical bytes get an identical verdict
            verdicts[digest] = check_csv(data.decode("utf-8"), cfg)
            problems += verdicts[digest].problems
        result = verdicts[digest]
        attempted, failed = attempted + result.rows, failed + result.failed
        digests.append(digest)
        if not sweep["traced"]:
            raw_rates.append(result.trial_rows / sweep["wall_s"])
            rates.append(raw_rates[-1] * sweep["reference_s"] / reference.NOMINAL_S[job])

    key = f"{args.workload} seed={args.seed} inputs={inputs_digest(config)}"
    if len(set(digests)) > 1 or (digests and known_digest(key, digests[0]) != digests[0]):
        correct = False
        problems.append(f"CSV digests differ between runs of {key}")

    traced = [s for s in report["sweeps"] if s["traced"]]
    counts = [{k: s["counts"].get(k, 0) for k in EXACT_COUNTS} for s in traced]
    if any(c != counts[0] for c in counts):
        correct = False
        problems.append(f"exact counts differ between traced sweeps: {counts}")

    correct = correct and failed == 0 and attempted > 0
    if args.trace:
        def scaled_wall(traced_sweeps):
            return statistics.median(s["wall_s"] / s["reference_s"] for s in report["sweeps"]
                                     if s["traced"] == traced_sweeps)
        values = {name: statistics.median(s["layers"][name] for s in traced)
                  for name in traced[0]["layers"]}
        values.update(counts[0])
        values["trace.overhead_frac"] = scaled_wall(True) / scaled_wall(False) - 1.0
        values["trace.absent_layers"] = len(report["absent"])
        metrics = {name: {"value": int(values[name]) if unit in ("count", "bytes") else values[name],
                          "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "trials_per_s": {"value": statistics.median(rates) if rates else 0.0,
                             "unit": "trials/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }

    for line in problems[:20]:
        print(f"bench: FAIL {line}", file=sys.stderr)
    print(json.dumps({"env": report["env"], "workload": args.workload, "sweeps": len(report["sweeps"]),
                      "csv_sha256": digests[0] if digests else None,
                      "wall_trials_per_s": [round(r, 2) for r in raw_rates],
                      "exact_counts": counts[:1],
                      "absent_layers": report["absent"],
                      "failed_frac": failed / attempted if attempted else 1.0}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
