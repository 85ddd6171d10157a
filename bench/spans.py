"""Runtime span tracing around the names the sweep calls through.

`Tracer` replaces, for the duration of a `with` block, each module attribute
listed in `WRAPPED` by a wrapper that records one span per call: name, start,
end, parent span and run id. Spans stay in memory; `layer_metrics` turns the
spans of one run into per-layer metrics, and `write_spans` writes them out.
A name that no longer exists in its module is reported as absent instead of
being wrapped, so a later refactor degrades the trace instead of crashing it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from pathlib import Path

import numpy as np

# (module, attribute the caller looks up, span name). The attribute is the
# name in the *calling* module, because that is the binding a call goes through.
WRAPPED = (
    ("ris_ntn_sim.cli", "parse_config", "config.parse_config"),
    ("ris_ntn_sim.cli", "run_sweep", "sweep.run_sweep"),
    ("ris_ntn_sim.cli", "emit_csv", "sweep.emit_csv"),
    ("ris_ntn_sim.sweep", "derive_trial_seed", "sweep.derive_trial_seed"),
    ("ris_ntn_sim.sweep", "generate_channels", "channel_model.generate_channels"),
    ("ris_ntn_sim.sweep", "optimize", "phase_optimizer.optimize"),
    ("ris_ntn_sim.phase_optimizer", "validate", "ris_core.validate"),
    ("ris_ntn_sim.sweep", "link_report", "link_metrics.link_report"),
)

ROOT_SPAN = "cli.main"

# Counters that must repeat exactly between runs of the same config.
EXACT_COUNTS = (
    "channel_model.elements_drawn",
    "phase_optimizer.matrix_bytes",
    "ris_core.validate_calls",
    "sweep.records",
    "sweep.csv_bytes",
    "sweep.skipped_cells",
    "phase_optimizer.degenerate",
    "link_metrics.nonfinite",
)


class Tracer:
    """Installs span-recording wrappers on enter and restores the originals on exit."""

    def __init__(self, wrapped=WRAPPED):
        self.wrapped = wrapped
        self.spans: list = []  # (name, start_ns, end_ns, parent index, run id)
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        self.absent = []
        for module_name, attr, span_name in self.wrapped:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(span_name)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, _HOOKS.get(span_name)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def call(self, name, fn, *args):
        """Call fn(*args) as the root span of a new run; `counts` then holds that run's counts."""
        self.run_id += 1
        self.counts = dict.fromkeys(EXACT_COUNTS, 0)
        return self._wrap(name, fn, None)(*args)


def _add(counts, key, amount):
    counts[key] = counts.get(key, 0) + int(amount)


def _count_channels(counts, args, ch):
    _add(counts, "channel_model.elements_drawn", ch.h.size)


def _count_optimize(counts, args, result):
    _add(counts, "phase_optimizer.matrix_bytes", result.phi.matrix.nbytes)
    _add(counts, "phase_optimizer.degenerate", bool(result.degenerate))


def _count_validate(counts, args, result):
    _add(counts, "ris_core.validate_calls", 1)


def _count_link(counts, args, report):
    _add(counts, "link_metrics.nonfinite",
         not (math.isfinite(report.snr_db) and math.isfinite(report.rate_bps)))


def _count_records(counts, args, records):
    cfg = args[0]
    cells = {(r.arch, r.elements) for r in records}
    _add(counts, "sweep.records", len(records))
    _add(counts, "sweep.skipped_cells",
         len(cfg.architectures) * len(cfg.elements_sweep) - len(cells))


def _count_csv(counts, args, result):
    _add(counts, "sweep.csv_bytes", Path(args[1]).stat().st_size)


_HOOKS = {
    "channel_model.generate_channels": _count_channels,
    "phase_optimizer.optimize": _count_optimize,
    "ris_core.validate": _count_validate,
    "link_metrics.link_report": _count_link,
    "sweep.run_sweep": _count_records,
    "sweep.emit_csv": _count_csv,
}


def layer_metrics(spans, run_id: int) -> dict[str, float]:
    """Per-layer times of one run, from its spans, in seconds and microseconds.

    A span's self time is its duration minus the durations of its direct
    children; the children of one span never overlap on a single thread.
    """
    run = [s for s in spans if s is not None and s[4] == run_id]
    first = next(i for i, s in enumerate(spans) if s is not None and s[4] == run_id)
    dur: dict[str, list[float]] = {}
    self_s: dict[str, float] = {}
    child_ns = [0] * len(run)
    for s in run:
        if s[3] >= 0:
            child_ns[s[3] - first] += s[2] - s[1]
    for i, (name, start, end, _, _) in enumerate(run):
        dur.setdefault(name, []).append((end - start) * 1e-9)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns[i]) * 1e-9

    def calls(name):
        return len(dur.get(name, ()))

    def busy(name):
        return float(sum(dur.get(name, ())))

    def pct_us(name, q):
        values = dur.get(name)
        return float(np.percentile(values, q)) * 1e6 if values else 0.0

    wall = busy(ROOT_SPAN)
    sweep_wall = wall - busy("config.parse_config")
    layer_self = sum(self_s.get(n, 0.0) for n in (
        "channel_model.generate_channels", "phase_optimizer.optimize", "ris_core.validate",
        "link_metrics.link_report", "sweep.derive_trial_seed", "sweep.run_sweep",
        "sweep.emit_csv"))
    return {
        "wall_s": wall,
        "config.parse_s": busy("config.parse_config"),
        "channel_model.calls": calls("channel_model.generate_channels"),
        "channel_model.busy_s": busy("channel_model.generate_channels"),
        "channel_model.call_us_p50": pct_us("channel_model.generate_channels", 50),
        "channel_model.call_us_p99": pct_us("channel_model.generate_channels", 99),
        "phase_optimizer.calls": calls("phase_optimizer.optimize"),
        "phase_optimizer.self_s": self_s.get("phase_optimizer.optimize", 0.0),
        "phase_optimizer.call_us_p50": pct_us("phase_optimizer.optimize", 50),
        "phase_optimizer.call_us_p99": pct_us("phase_optimizer.optimize", 99),
        "ris_core.validate_s": busy("ris_core.validate"),
        "link_metrics.calls": calls("link_metrics.link_report"),
        "link_metrics.busy_s": busy("link_metrics.link_report"),
        "sweep.seed_calls": calls("sweep.derive_trial_seed"),
        "sweep.seed_s": busy("sweep.derive_trial_seed"),
        "sweep.run_self_s": self_s.get("sweep.run_sweep", 0.0),
        "sweep.emit_s": busy("sweep.emit_csv"),
        "cli.self_s": self_s.get(ROOT_SPAN, 0.0),
        "trace.coverage_frac": layer_self / sweep_wall if sweep_wall > 0 else 0.0,
    }


def write_spans(spans, path: Path) -> None:
    """Write spans as JSON lines: name, start_ns, end_ns, parent index, run id."""
    with open(path, "w", encoding="utf-8") as out:
        for s in spans:
            out.write(json.dumps(s) + "\n")
