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
import functools
import io
import math
import os
import tempfile
import weakref
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel_model import _MASK64, channel_set, draw_fades
from .config import LINK_BUDGET_KEYS, MAX_TRIALS, SimConfig, format_config, link_columns
from .errors import InvalidInput, SimulatorError
from .phase_optimizer import UNIT_TOLERANCE, certify_cells, closed_form_cells

# Channel entries (trials x largest element count) drawn and evaluated at a
# time. Memory follows this, not the trial count; every benchmark workload
# fits in one chunk.
CHUNK_ELEMENTS = 1 << 16

# Largest relative gap allowed between |g^T Phi h + h_d| of the designed
# matrix and the closed-form objective it certifies.
CERTIFICATE_RTOL = 1e-9

# A spool of at most this many bytes is held in memory, a larger one in a temporary file.
_SPOOL_MEMORY_BYTES = 1 << 24


def _splitmix64(x: int) -> int:
    """One splitmix64 output step; decorrelates the trial seeds of different run seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _trial_seeds(run_seed: int, trials: np.ndarray) -> np.ndarray:
    """The seeds of an int64 array of trial indices, as one uint64 array: the CSV's seed column.

    Each trial index is XORed with splitmix64(run seed), so for a fixed run
    seed no two trials in [0, 2^31) share a channel stream; an index outside it is an InvalidInput.
    """
    if trials.size and not (trials.min() >= 0 and trials.max() <= MAX_TRIALS):
        raise InvalidInput(f"trial indices must lie in [0, 2^31), got {trials.min()}..{trials.max()}")
    return trials.astype(np.uint64) ^ np.uint64(_splitmix64(run_seed & _MASK64))


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


CSV_HEADER = ",".join(SweepRecord._fields)


class SweepRecords:
    """The records of one sweep in canonical order: building one runs the sweep of cfg.

    Canonical order is architecture label (lexicographic), then element
    count, then trial index, with the 'mean' and 'stderr' aggregates after
    each cell's trials. The cells are cfg.cells, which skip the
    group-connected ones whose group count does not divide the element count.

    Each chunk of trials is one array step in real arithmetic: one fade draw
    at the largest element count, every cell's cascade gain on its element
    prefix of the fade powers (phase_optimizer.closed_form_cells), scaled
    once by the hop magnitudes cfg.magnitudes to |h_eff| = a_d |f_d| +
    a_g a_h gain, as one (cells, n) array, and one link_columns call giving
    the (cells, n, 4) trial values that go to the spool. A pure
    line-of-sight draw ignores its seed, so such a chunk draws and evaluates
    a single row and repeats its values over the n trials. After the last
    chunk, every cell's 'mean' and 'stderr' rows go to the spool from moments
    merged chunk by chunk (_Moments). Trial 0's design is certified for
    every cell on the complex channel of its fades (channel_set), from its
    factors, without any M x M matrix (phase_optimizer.certify_cells): its
    unitarity bound must be within UNIT_TOLERANCE, and |g^T Phi h + h_d|
    must match the closed form. All cells of a chunk are checked at once;
    SimulatorError names the first faulty cell in canonical order, its
    non-finite values before its certificate. A sweep that raises closes its
    spool before the error leaves the constructor.

    The spool holds exactly the CSV's value rows, in CSV order. With T
    trials, row i belongs to cell i // (T + 2) at position i % (T + 2):
    trial r, then 'mean', then 'stderr'. Its four float64 values sit at bytes
    [32 i, 32 i + 32). The final size is known at construction, so the spool
    is in memory up to _SPOOL_MEMORY_BYTES and a temporary file beyond. Trial
    seeds are derived again on read. The constructor is the spool's only
    writer; every read after it takes its rows at their absolute offset, so
    the records can be iterated front to back any number of times, and
    iterated and emitted from several threads at once, _csv.BATCH_ROWS rows
    read at a time, as emit_csv reads them. close() releases the spool;
    iterating or emitting after it raises ValueError. cfg is the config the
    sweep ran, whose cells the records hold and which emit_csv echoes.
    """

    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self._spool = spool = (io.BytesIO() if 32 * len(self) <= _SPOOL_MEMORY_BYTES
                               else tempfile.TemporaryFile())
        self._release = weakref.finalize(self, spool.close)
        a_d, a_h, a_g = magnitudes = cfg.magnitudes  # cfg checked its link budget when it was built
        fading = cfg.fading_spec
        m_max = max(m for _, m in cfg.cells)
        chunk_trials = max(1, CHUNK_ELEMENTS // m_max)
        moments = _Moments(len(cfg.cells))
        # a pure line-of-sight draw ignores its seed, so one row stands for every trial
        one_row = fading.model == "pure_los"

        def write(values: np.ndarray, position: int) -> None:
            # C-contiguous (cells, n, 4) float64 values, as rows position onward of every cell
            for c, block in enumerate(values):
                spool.seek(32 * (c * (cfg.trials + 2) + position))
                spool.write(block)

        try:
            for start in range(0, cfg.trials, chunk_trials):
                trials = range(start, min(cfg.trials, start + chunk_trials))
                try:
                    seeds = _trial_seeds(cfg.seed, np.arange(start, trials.stop))
                    fades = draw_fades(fading, m_max, seeds[:1] if one_row else seeds)
                    re, im = fades[..., 0], fades[..., 1]
                    power = re * re + im * im
                    h_eff = a_g * a_h * closed_form_cells(power[:, 2::2], power[:, 1::2], cfg.cells)
                    h_eff += a_d * np.sqrt(power[:, 0])
                    certificates = (certify_cells(channel_set(cfg.geometry, fades[0], magnitudes), cfg.cells)
                                    if start == 0 else None)
                    values = link_columns(h_eff, cfg)
                except (SimulatorError, ValueError, ArithmeticError) as exc:
                    raise SimulatorError(f"trials {trials.start}..{trials.stop - 1}: {exc}") from exc
                if one_row:
                    # a real array, not a broadcast view: the moments reduce the layout they always have
                    values = np.repeat(values, len(trials), axis=1)
                _check_cells(cfg.cells, values, certificates, trials)
                moments.add(values)
                write(values, start)
            write(np.stack([moments.mean, moments.stderr()], axis=1), cfg.trials)
            spool.flush()  # os.pread reads only what reached the file
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self.cfg.cells) * (self.cfg.trials + 2)

    def __iter__(self):
        from . import _csv  # imported on use, as in emit_csv

        for columns in self._rows(_csv.BATCH_ROWS):
            for c, trial, row, seed in zip(*(column.tolist() for column in columns)):
                arch, m = self.cfg.cells[c]
                yield SweepRecord(arch.label, m, trial if trial >= 0 else _csv.AGGREGATES[trial],
                                  *row, seed)

    def _rows(self, max_rows: int):
        """(cell, trial, values, seeds) columns of at most max_rows consecutive rows, in CSV order.

        A cell's 'mean' and 'stderr' rows have trial -2 and -1, and the run seed.
        """
        period, spool = self.cfg.trials + 2, self._spool
        for start in range(0, len(self), max_rows):
            stop = min(len(self), start + max_rows)
            # a copy: an array on the buffer itself would keep it exported, and close() would fail
            data = (spool.getbuffer()[32 * start:32 * stop].tobytes() if isinstance(spool, io.BytesIO)
                    else os.pread(spool.fileno(), 32 * (stop - start), 32 * start))
            cells, trials = np.divmod(np.arange(start, stop), period)
            seeds = np.full(len(cells), self.cfg.seed, dtype=np.uint64)
            trial_rows = trials < self.cfg.trials
            seeds[trial_rows] = _trial_seeds(self.cfg.seed, trials[trial_rows])
            trials[~trial_rows] -= period
            yield cells, trials, np.frombuffer(data, dtype=np.float64).reshape(-1, 4), seeds

    def close(self) -> None:
        self._release()

    def __enter__(self) -> "SweepRecords":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
    """Raise SimulatorError naming the first cell, in canonical order, that fails a check.

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
        raise SimulatorError(f"arch={cells[c][0].label} elements={cells[c][1]}: {reason}")


def run_sweep(cfg: SimConfig) -> SweepRecords:
    """Run the full sweep of cfg and return its records: SweepRecords(cfg)."""
    return SweepRecords(cfg)


def _metadata_path(destination: Path) -> Path:
    if destination.suffix:
        return destination.with_suffix(".meta.txt")
    return destination.with_name(destination.name + ".meta.txt")


def _temporary_path(path: Path) -> Path:
    # same directory as path, so os.replace is an atomic rename; a random name per call,
    # created exclusively, so no two calls, in one process or in two, ever share a temporary
    return path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(8).hex()}.tmp")


def emit_csv(records: SweepRecords, destination) -> int:
    """Write a sweep's records as CSV plus a metadata sidecar next to it; return the record count.

    Records stream from their spool into a temporary file beside the
    destination, read and formatted _csv.BATCH_ROWS rows at a time, so memory
    does not grow with the record count. Each line has the bytes that
    formatting its record with ``%s,%d,%s,%.17g,%.17g,%.17g,%.17g,%d`` gives.
    The sidecar is moved into place first and the CSV last, so a failure at
    any point leaves no partial CSV and never a CSV without its sidecar; a
    destination that is a directory is refused (IsADirectoryError) before
    anything is written, so it leaves no sidecar either. The sidecar records
    the config the records were built from (records.cfg), the software
    version and the noise-density interpretation; only its first line (the
    timestamp) varies between identical runs.
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

    try:
        with open(csv_tmp, "xb") as out:
            out.write(CSV_HEADER.encode() + b"\n")
            heads = [f"{arch.label},{m},".encode() for arch, m in records.cfg.cells]
            period = records.cfg.trials + 2
            # a row's trial and seed texts depend only on its position in its cell:
            # where a cell fits in a batch, those of cell 0 serve the whole sweep
            texts = (functools.cache(lambda: _csv.row_texts(*next(records._rows(period))[1::2]))
                     if period <= _csv.BATCH_ROWS else None)
            for cells, trials, values, seeds in records._rows(_csv.BATCH_ROWS):
                out.write(_csv.format_batch(heads, cells, trials, values, seeds, texts))
        meta = [
            f"generated_at = {datetime.now(timezone.utc).isoformat()}",
            f"software = ris-ntn-sim {__version__}",
            f"records = {len(records)}",
            "noise_psd_note = noise_psd_dbm_hz is a power spectral density in dBm/Hz; "
            "total noise power is noise_psd_dbm_hz + 10*log10(bandwidth_hz)",
            "",
            "[resolved config]",
            format_config(records.cfg),
        ]
        with open(meta_tmp, "x", encoding="utf-8") as out:
            out.write("\n".join(meta) + "\n")
        os.replace(meta_tmp, metadata)
        os.replace(csv_tmp, destination)
    except BaseException:
        csv_tmp.unlink(missing_ok=True)
        meta_tmp.unlink(missing_ok=True)
        raise
    return len(records)
