"""Run one workload's sweeps in this process and print a JSON report.

run.py starts this in a fresh interpreter, so the process's peak resident
memory is that of the sweeps alone. Each sweep drives the user's entry point,
`ris_ntn_sim.cli.main(["sweep", ...])`, in-process on one thread, in a closed
loop: the next sweep starts when the previous one ends.

usage: python3 worker.py --config FILE --out DIR --seconds S --seed N --trace 0|1
                         --reference {calls,lapack}

The reference job (reference.py) runs before the first sweep and after each
one; each sweep records the mean of the two around it.

With --trace 1 it alternates an untraced and a traced sweep, at least twice,
and writes the traced spans to DIR/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import time
from pathlib import Path

import numpy as np

import reference
import spans


def run_cli(main, argv) -> tuple[int, str]:
    """One CLI invocation with its stdout swallowed; returns (exit code, error)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return int(main(argv)), ""
        except SystemExit as exc:
            return int(exc.code or 0), ""
        except Exception as exc:  # a crashing sweep is reported, not fatal
            return -1, f"{type(exc).__name__}: {exc}"


def environment(seed: int) -> dict:
    """Software and machine facts that the timings depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        from ris_ntn_sim import channel_model
        rng = type(channel_model._stream(0, 0, 0).bit_generator).__name__
    except (ImportError, AttributeError, TypeError):
        rng = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "rng": rng,
        "seed": seed,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", choices=sorted(reference.JOBS), required=True)
    args = parser.parse_args()

    from ris_ntn_sim import cli

    def argv(index: int) -> list[str]:
        out = args.out / f"sweep-{index}.csv"
        return ["sweep", "--config", str(args.config), "--out", str(out)]

    sweeps = []
    tracer = spans.Tracer()
    start = time.perf_counter()
    job = reference.JOBS[args.reference]
    after_s = job()
    while len(sweeps) < 2 * (1 + args.trace) or time.perf_counter() - start < args.seconds:
        index = len(sweeps) + 1
        traced = bool(args.trace) and index % 2 == 0
        t0 = time.perf_counter()
        if traced:
            with tracer:
                code, error = tracer.call(spans.ROOT_SPAN, run_cli, cli.main, argv(index))
        else:
            code, error = run_cli(cli.main, argv(index))
        wall_s = time.perf_counter() - t0
        before_s, after_s = after_s, job()
        record = {"csv": argv(index)[4], "wall_s": wall_s, "reference_s": (before_s + after_s) / 2,
                  "exit": code, "error": error, "traced": traced}
        if traced:
            record["layers"] = spans.layer_metrics(tracer.spans, tracer.run_id)
            record["counts"] = tracer.counts
        sweeps.append(record)
    if args.trace:
        spans.write_spans(tracer.spans, args.out / "spans.jsonl")

    print(json.dumps({
        "env": environment(args.seed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "absent": tracer.absent,
        "sweeps": sweeps,
    }))


if __name__ == "__main__":
    main()
