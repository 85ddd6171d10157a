"""Trial-major Monte-Carlo sweep over element counts and architectures, with CSV output.

Each trial draws one fade per hop, at the largest element count, from a seed
derived from (run seed, trial) alone; a chunk of trials is drawn in one call.
Every (architecture, element count) cell evaluates its closed form on an
element prefix of that same draw, so all cells share their random numbers.
The sweep is a pure function of the config: identical configs give
byte-identical CSV.
"""

from __future__ import annotations

import errno
import io
import logging
import math
import os
import tempfile
import weakref
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel_model import build_geometry, channel_set, draw_fades
from .config import LINK_BUDGET_KEYS, MAX_TRIALS, SimConfig, format_config
from .errors import DimensionMismatch, SimulatorError, SweepError
from .link_metrics import RfConfig, link_columns
from .phase_optimizer import certify_cells, closed_form_cells
from .ris_core import UNIT_TOLERANCE, Architecture

logger = logging.getLogger(__name__)

CSV_HEADER = "arch,elements,trial,h_eff_mag,snr_db,rate_bps,ee_bits_per_joule,seed"

# Channel entries (trials x largest element count) drawn and evaluated at a
# time. Memory follows this, not the trial count; every benchmark workload
# fits in one chunk.
CHUNK_ELEMENTS = 1 << 16

# Largest relative gap allowed between |g^T Phi h + h_d| of the designed
# matrix and the closed-form objective it certifies.
CERTIFICATE_RTOL = 1e-9

# A spool of at most this many bytes is held in memory, a larger one in a temporary file.
_SPOOL_MEMORY_BYTES = 1 << 24

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 output step; decorrelates the trial seeds of different run seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_seeds(run_seed: int, trials: np.ndarray) -> np.ndarray:
    """The seeds of an int64 array of trial indices, as one uint64 array.

    Each trial index is XORed with splitmix64(run seed), so for a fixed run
    seed no two trials in [0, 2^31) share a channel stream.
    """
    if trials.size and not (trials.min() >= 0 and trials.max() <= MAX_TRIALS):
        raise ValueError(f"trial indices must lie in [0, 2^31), got {trials.min()}..{trials.max()}")
    return trials.astype(np.uint64) ^ np.uint64(_splitmix64(run_seed & _MASK64))


def derive_trial_seed(run_seed: int, trial: int) -> int:
    """Deterministic seed of one trial, shared by every cell of the sweep."""
    return int(_trial_seeds(run_seed, np.array([trial]))[0])


class SweepRecord(NamedTuple):
    """One output row: a single trial, or a per-cell 'mean'/'stderr' aggregate."""

    arch: str
    elements: int
    trial: int | str
    h_eff_mag: float
    snr_db: float
    rate_bps: float
    ee_bits_per_joule: float
    seed: int


class SweepRecords:
    """The records of one sweep in canonical order, streamed from a spool.

    The spool holds exactly the CSV's value rows, in CSV order. With T
    trials, row i belongs to cell i // (T + 2) at position i % (T + 2):
    trial r, then 'mean', then 'stderr'. Its four float64 values sit at bytes
    [32 i, 32 i + 32). The final size is known at construction, so the spool
    is in memory up to _SPOOL_MEMORY_BYTES and a temporary file beyond. Trial
    seeds are derived again on read. The records can be iterated front to
    back any number of times; close() releases the spool, and they cannot be
    read after it.
    """

    def __init__(self, cfg: SimConfig, cells: list[tuple[str, Architecture, int]],
                 chunk_trials: int):
        self._run_seed = cfg.seed
        self._trials = cfg.trials
        self._chunk_trials = chunk_trials
        self._labels = [(label, m) for label, _, m in cells]
        self._spool = (io.BytesIO() if 32 * len(self) <= _SPOOL_MEMORY_BYTES
                       else tempfile.TemporaryFile())
        self._release = weakref.finalize(self, self._spool.close)

    def __len__(self) -> int:
        return len(self._labels) * (self._trials + 2)

    def __iter__(self):
        for cells, trials, values, seeds in self._rows(self._chunk_trials):
            for c, trial, row, seed in zip(cells.tolist(), trials.tolist(), values.tolist(),
                                           seeds.tolist()):
                label, m = self._labels[c]
                trial = trial if trial >= 0 else ("mean", "stderr")[trial]
                yield SweepRecord(label, m, trial, *row, seed)

    def _rows(self, max_rows: int):
        """(cell, trial, values, seeds) columns of at most max_rows consecutive rows, in CSV order.

        A cell's 'mean' and 'stderr' rows have trial -2 and -1, and the run seed.
        """
        period = self._trials + 2
        for start in range(0, len(self), max_rows):
            cells, trials = np.divmod(np.arange(start, min(len(self), start + max_rows)), period)
            self._spool.seek(32 * start)
            values = np.frombuffer(self._spool.read(32 * len(cells)), dtype=np.float64)
            seeds = np.full(len(cells), self._run_seed, dtype=np.uint64)
            trial_rows = trials < self._trials
            seeds[trial_rows] = _trial_seeds(self._run_seed, trials[trial_rows])
            trials[~trial_rows] -= period
            yield cells, trials, values.reshape(-1, 4), seeds

    def close(self) -> None:
        self._release()

    def __enter__(self) -> "SweepRecords":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write(self, values: np.ndarray, position: int) -> None:
        """Spool C-contiguous (cells, n, 4) float64 values as rows position onward of every cell."""
        for c, block in enumerate(values):
            self._spool.seek(32 * (c * (self._trials + 2) + position))
            self._spool.write(block)


def _cells(cfg: SimConfig) -> list[tuple[str, Architecture, int]]:
    """(label, architecture, element count) of every evaluated cell, in canonical order."""
    cells = []
    for label in sorted(cfg.architectures):
        arch = Architecture.from_label(label)
        for elements in sorted(cfg.elements_sweep):
            try:
                arch.block_size(elements)
            except DimensionMismatch as exc:
                logger.warning("skipping arch=%s elements=%d: %s", label, elements, exc)
                continue
            cells.append((label, arch, elements))
    return cells


class _Moments:
    """Per-cell trial count, mean and sum of squared deviations of the four value columns.

    Chunks merge by the pairwise update of Chan, Golub and LeVeque, so a
    single chunk gives exactly numpy's mean and ddof=1 variance.
    """

    def __init__(self, cells: int):
        self.count = 0
        self.mean = np.zeros((cells, 4))
        self.m2 = np.zeros((cells, 4))

    def add(self, values: np.ndarray) -> None:
        """Merge a (cells, trials, 4) block of trial values."""
        n = values.shape[1]
        chunk_mean = values.mean(axis=1)
        chunk_m2 = ((values - chunk_mean[:, None, :]) ** 2).sum(axis=1)
        delta = chunk_mean - self.mean
        total = self.count + n
        self.mean = self.mean + delta * (n / total)
        self.m2 = self.m2 + chunk_m2 + delta ** 2 * (self.count * n / total)
        self.count = total

    def stderr(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.mean)
        return np.sqrt(self.m2 / (self.count - 1)) / math.sqrt(self.count)


def _check_cells(cells, values: np.ndarray, certificates, trials: range) -> None:
    """Raise SweepError naming the first cell, in canonical order, that fails a check.

    values are a chunk's (cells, n, 4) trial values; certificates, given for
    the chunk of trial 0, are certify_cells' (achieved, bound) arrays.
    """
    faulty = ~np.isfinite(values).all(axis=(1, 2))
    if certificates is not None:
        (achieved, bound), objective = certificates, values[:, 0, 0]
        # "not <=" instead of ">" so NaN fails closed, also where inf - inf makes one
        with np.errstate(invalid="ignore"):
            faulty |= ~((bound <= UNIT_TOLERANCE)
                        & (np.abs(achieved - objective) <= CERTIFICATE_RTOL * objective))
    if faulty.any():
        c = int(faulty.argmax())
        if not np.isfinite(values[c]).all():
            reason = (f"non-finite link metrics in trials {trials.start}..{trials.stop - 1}; "
                      f"check {LINK_BUDGET_KEYS}")
        elif not bound[c] <= UNIT_TOLERANCE:
            reason = (f"trial 0: matrix is not unitary to {UNIT_TOLERANCE:g} "
                      f"(residual bound {float(bound[c])!r})")
        else:
            reason = (f"trial 0: matrix reaches {float(achieved[c])!r}, "
                      f"closed form gives {float(objective[c])!r}")
        raise SweepError(f"arch={cells[c][0]} elements={cells[c][2]}: {reason}")


def run_sweep(cfg: SimConfig) -> SweepRecords:
    """Run the full sweep and return its records in canonical order.

    Canonical order is architecture label (lexicographic), then element
    count, then trial index, with the 'mean' and 'stderr' aggregates after
    each cell's trials. Group-connected cells whose group count does not
    divide the element count are skipped with a warning.

    Each chunk of trials is one array step in real arithmetic: one fade draw
    at the largest element count, every cell's cascade gain on its element
    prefix of the fade powers (phase_optimizer.closed_form_cells), scaled
    once by the hop magnitudes of cfg.link_budget to |h_eff| = a_d |f_d| +
    a_g a_h gain, as one (cells, n) array, and one link_columns call giving
    the (cells, n, 4) trial values that go to the records' spool. A pure
    line-of-sight draw ignores its seed, so such a chunk draws and evaluates
    a single row and repeats its values over the n trials. After the last
    chunk, every cell's 'mean' and 'stderr' rows go to the spool from moments
    merged chunk by chunk (_Moments). Trial 0's design is certified for
    every cell on the complex channel of its fades (channel_set), from its
    factors, without any M x M matrix (phase_optimizer.certify_cells): its
    unitarity bound must be within UNIT_TOLERANCE, and |g^T Phi h + h_d|
    must match the closed form. All cells of a chunk are checked at once;
    SweepError names the first faulty cell in canonical order, its
    non-finite values before its certificate.
    """
    geom = build_geometry(cfg)
    a_d, a_h, a_g = magnitudes = cfg.link_budget(geom)  # raises ConfigError before any draw
    fading = cfg.fading_spec
    rf = RfConfig(cfg.tx_power_dbm, cfg.bandwidth_hz, cfg.noise_psd_dbm_hz,
                  cfg.static_power_w)
    cells = _cells(cfg)
    designs = [(arch, m) for _, arch, m in cells]
    m_max = max((m for _, m in designs), default=1)
    chunk_trials = max(1, CHUNK_ELEMENTS // m_max)
    records = SweepRecords(cfg, cells, chunk_trials)
    if not cells:
        return records
    moments = _Moments(len(cells))
    # a pure line-of-sight draw ignores its seed, so one row stands for every trial
    one_row = fading.model == "pure_los"

    try:
        for start in range(0, cfg.trials, chunk_trials):
            trials = range(start, min(cfg.trials, start + chunk_trials))
            try:
                seeds = _trial_seeds(cfg.seed, np.arange(start, trials.stop))
                fades = draw_fades(fading, m_max, seeds[:1] if one_row else seeds)
                re, im = fades[..., 0], fades[..., 1]
                power = re * re + im * im
                h_eff = a_g * a_h * closed_form_cells(power[:, 2::2], power[:, 1::2], designs)
                h_eff += a_d * np.sqrt(power[:, 0])
                certificates = (certify_cells(channel_set(geom, fades[0], magnitudes), designs)
                                if start == 0 else None)
                values = link_columns(h_eff, rf)
            except (SimulatorError, ValueError, ArithmeticError) as exc:
                raise SweepError(f"trials {trials.start}..{trials.stop - 1}: {exc}") from exc
            if one_row:
                # a real array, not a broadcast view: the moments reduce the layout they always have
                values = np.repeat(values, len(trials), axis=1)
            _check_cells(cells, values, certificates, trials)
            moments.add(values)
            records._write(values, start)
        records._write(np.stack([moments.mean, moments.stderr()], axis=1), cfg.trials)
    except BaseException:
        records.close()
        raise
    return records


def _metadata_path(destination: Path) -> Path:
    if destination.suffix:
        return destination.with_suffix(".meta.txt")
    return destination.with_name(destination.name + ".meta.txt")


def _temporary_path(path: Path) -> Path:
    # same directory as path, so os.replace is an atomic rename
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def emit_csv(records: SweepRecords, destination, cfg: SimConfig) -> int:
    """Write a sweep's records as CSV plus a metadata sidecar next to it; return the record count.

    Records stream from their spool into a temporary file beside the
    destination, read and formatted _csv.BATCH_ROWS rows at a time, so memory
    does not grow with the record count. Each line has the bytes that
    formatting its record with ``%s,%d,%s,%.17g,%.17g,%.17g,%.17g,%d`` gives.
    The sidecar is moved into place first and the CSV last, so a failure at
    any point leaves no partial CSV and never a CSV without its sidecar; a
    destination that is a directory is refused (IsADirectoryError) before
    anything is written, so it leaves no sidecar either. The
    sidecar records the resolved config, the software version and the
    noise-density interpretation; only its first line (the timestamp) varies
    between identical runs.
    """
    destination = Path(destination)
    # the CSV's move comes last: into a directory it would fail after the sidecar's
    if destination.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(destination))
    metadata = _metadata_path(destination)
    csv_tmp, meta_tmp = _temporary_path(destination), _temporary_path(metadata)
    # imported here, so importing the package does not load the formatter:
    # without cached bytecode, compiling it takes about 3 ms
    from . import _csv

    count = 0
    try:
        with open(csv_tmp, "wb") as out:
            out.write(CSV_HEADER.encode() + b"\n")
            heads = [f"{label},{m},".encode() for label, m in records._labels]
            for cells, trials, values, seeds in records._rows(_csv.BATCH_ROWS):
                out.write(_csv.format_batch(heads, cells, trials, values, seeds))
                count += len(seeds)
        meta = [
            f"generated_at = {datetime.now(timezone.utc).isoformat()}",
            f"software = ris-ntn-sim {__version__}",
            f"records = {count}",
            "noise_psd_note = noise_psd_dbm_hz is a power spectral density in dBm/Hz; "
            "total noise power is noise_psd_dbm_hz + 10*log10(bandwidth_hz)",
            "",
            "[resolved config]",
            format_config(cfg),
        ]
        meta_tmp.write_text("\n".join(meta) + "\n", encoding="utf-8")
        os.replace(meta_tmp, metadata)
        os.replace(csv_tmp, destination)
    except BaseException:
        csv_tmp.unlink(missing_ok=True)
        meta_tmp.unlink(missing_ok=True)
        raise
    return count
