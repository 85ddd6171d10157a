"""Output check for one sweep CSV against the config that produced it.

Checked, row by row, so a failure counts the rows it affects:

- the header, and the row count: trials x non-skipped cells + 2 per cell;
- each row's arch, element count, trial index and seed column, in canonical order;
- every trial row is finite, and its snr_db, rate_bps and ee_bits_per_joule
  follow from its own h_eff_mag by the link equations;
- each cell's mean and stderr rows equal the mean and the ddof=1 standard
  error of its trial rows;
- for a seeded sample of trial rows per cell, the channel regenerated from the
  row's seed column through `generate_channels` gives, by plain numpy, the
  row's h_eff_mag, snr_db and rate_bps, and sc <= gc:4 <= fc on that channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HEADER = "arch,elements,trial,h_eff_mag,snr_db,rate_bps,ee_bits_per_joule,seed"

REL_TOL = 1e-9  # regenerated and derived values
MEAN_REL_TOL = 1e-12  # summation order only
SAMPLES_PER_CELL = 16


@dataclass
class CheckResult:
    rows: int  # rows checked
    failed: int  # rows that fail any check
    trial_rows: int  # trial rows present
    problems: list[str] = field(default_factory=list)  # the first few failures


def cells(cfg) -> list[tuple[str, int]]:
    """(arch label, element count) of every non-skipped cell, in canonical order."""
    out = []
    for label in sorted(cfg.architectures):
        for m in sorted(cfg.elements_sweep):
            if label.startswith("gc:") and m % int(label[3:]):
                continue
            out.append((label, m))
    return out


def closed_form(label: str, g: np.ndarray, h: np.ndarray, h_d: complex) -> float:
    """Optimal |g^T Phi h + h_d| for one architecture, computed independently."""
    if label == "sc":
        gain = np.sum(np.abs(g) * np.abs(h))
    elif label == "fc":
        gain = np.sqrt(np.sum(np.abs(g) ** 2) * np.sum(np.abs(h) ** 2))
    else:
        groups = int(label[3:])
        gu = np.sqrt(np.sum(np.abs(g.reshape(groups, -1)) ** 2, axis=1))
        hu = np.sqrt(np.sum(np.abs(h.reshape(groups, -1)) ** 2, axis=1))
        gain = np.sum(gu * hu)
    return abs(h_d) + float(gain)


class _Link:
    """The link equations, from the config's RF keys."""

    def __init__(self, cfg):
        self.bandwidth = cfg.bandwidth_hz
        self.tx_w = 10.0 ** ((cfg.tx_power_dbm - 30.0) / 10.0)
        self.noise_w = 10.0 ** ((cfg.noise_psd_dbm_hz + 10.0 * math.log10(cfg.bandwidth_hz)
                                 - 30.0) / 10.0)
        self.power_w = self.tx_w + cfg.static_power_w

    def derived(self, h_eff_mag: np.ndarray) -> np.ndarray:
        """(snr_db, rate_bps, ee_bits_per_joule) columns for given |h_eff| values."""
        snr = self.tx_w * h_eff_mag ** 2 / self.noise_w
        rate = self.bandwidth * np.log1p(snr) / math.log(2.0)
        return np.stack([10.0 * np.log10(snr), rate, rate / self.power_w], axis=-1)


def _close(a, b, rel, scale=0.0):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) <= rel * np.maximum(np.abs(a), np.abs(b)) + scale


def check_csv(text: str, cfg, samples_per_cell: int = SAMPLES_PER_CELL) -> CheckResult:
    """Check one sweep's CSV text; cfg is the SimConfig the sweep ran."""
    from ris_ntn_sim import build_geometry, generate_channels

    expected = sum(cfg.trials + 2 for _ in cells(cfg))
    lines = text.split("\n")
    if lines[0] != HEADER or lines[-1] != "":
        return CheckResult(expected, expected, 0, ["bad header or missing final newline"])
    rows = [line.split(",") for line in lines[1:-1]]
    if len(rows) != expected:
        return CheckResult(max(len(rows), expected), max(len(rows), expected), 0,
                           [f"{len(rows)} rows, expected {expected}"])

    geom = build_geometry(cfg)
    link = _Link(cfg)
    failed = np.zeros(expected, dtype=bool)
    problems: list[str] = []
    trial_rows = 0

    def fail(index, reason):
        failed[index] = True
        if len(problems) < 10:
            problems.append(f"row {index + 2}: {reason}")

    offset = 0
    for cell_index, (label, m) in enumerate(cells(cfg)):
        block = rows[offset:offset + cfg.trials + 2]
        values = np.full((cfg.trials, 4), np.nan)
        aggregates = np.full((2, 4), np.nan)  # the mean and stderr rows
        seeds = [0] * cfg.trials
        for t, row in enumerate(block):
            tag = str(t) if t < cfg.trials else ("mean", "stderr")[t - cfg.trials]
            try:
                ok = len(row) == 8 and row[:3] == [label, str(m), tag]
                numbers = [float(x) for x in row[3:7]]
                seed = int(row[7])
            except ValueError:
                ok = False
            if not ok or (t >= cfg.trials and seed != cfg.seed):
                fail(offset + t, f"expected {label},{m},{tag}: {','.join(row)[:80]}")
                continue
            if t < cfg.trials:
                values[t], seeds[t] = numbers, seed
                trial_rows += 1
            else:
                aggregates[t - cfg.trials] = numbers

        finite = np.isfinite(values).all(axis=1)
        consistent = _close(values[:, 1:], link.derived(values[:, 0]), REL_TOL).all(axis=1)
        for t in np.flatnonzero(~(finite & consistent)):
            fail(offset + t, "non-finite, or snr/rate/ee do not follow from h_eff_mag")

        mean = values.mean(axis=0)
        stderr = (values.std(axis=0, ddof=1) / math.sqrt(cfg.trials) if cfg.trials > 1
                  else np.zeros(4))
        if not _close(aggregates[0], mean, MEAN_REL_TOL).all():
            fail(offset + cfg.trials, f"mean row {aggregates[0]} != mean of trials {mean}")
        if not _close(aggregates[1], stderr, REL_TOL, MEAN_REL_TOL * np.abs(mean)).all():
            fail(offset + cfg.trials + 1, f"stderr row {aggregates[1]} != stderr of trials {stderr}")

        rng = np.random.default_rng([abs(cfg.seed), cell_index])
        sample = rng.choice(cfg.trials, size=min(samples_per_cell, cfg.trials), replace=False)
        for t in sorted(int(t) for t in sample):
            if failed[offset + t]:
                continue
            ch = generate_channels(
                geom, cfg.fading_spec, m, seeds[t],
                tx_gain_dbi=cfg.tx_gain_dbi,
                ris_element_gain_dbi=cfg.ris_element_gain_dbi,
                rx_gain_dbi=cfg.rx_gain_dbi,
                direct_blocked=cfg.direct_link == "blocked",
            )
            g, h = np.asarray(ch.g), np.asarray(ch.h)
            h_eff = closed_form(label, g, h, ch.h_d)
            want = np.concatenate([[h_eff], link.derived(np.array(h_eff))[:2]])
            if not _close(values[t, :3], want, REL_TOL).all():
                fail(offset + t, f"{values[t, :3]} != regenerated {want}")
                continue
            sc, fc = closed_form("sc", g, h, ch.h_d), closed_form("fc", g, h, ch.h_d)
            gc = closed_form("gc:4", g, h, ch.h_d) if m % 4 == 0 else sc
            if not (sc <= gc * (1 + REL_TOL) and gc <= fc * (1 + REL_TOL)):
                fail(offset + t, f"ordering sc {sc} <= gc:4 {gc} <= fc {fc} violated")
        offset += len(block)

    return CheckResult(expected, int(failed.sum()), trial_rows, problems)
