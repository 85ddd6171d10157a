"""Trial-major Monte-Carlo sweep over element counts and architectures, with CSV output.

Each trial draws one channel realization, at the largest element count, from
a seed derived from (run seed, trial) alone. Every (architecture, element
count) cell evaluates its closed form on an element prefix of that same draw,
so all cells share their random numbers. The sweep is a pure function of the
config: identical configs give byte-identical CSV.
"""

from __future__ import annotations

import logging
import math
import os
import tempfile
import weakref
from collections.abc import Iterable, Sequence
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .channel_model import build_geometry, generate_channels
from .config import SimConfig, format_config
from .errors import SimulatorError, SweepError
from .link_metrics import RfConfig, link_columns
from .phase_optimizer import certify, closed_form_objective
from .ris_core import UNIT_TOLERANCE, Architecture, ChannelSet

logger = logging.getLogger(__name__)

CSV_HEADER = "arch,elements,trial,h_eff_mag,snr_db,rate_bps,ee_bits_per_joule,seed"

# Channel entries (trials x largest element count) drawn and evaluated at a
# time. Memory follows this, not the trial count; every benchmark workload
# fits in one chunk.
CHUNK_ELEMENTS = 1 << 16

# Largest relative gap allowed between |g^T Phi h + h_d| of the designed
# matrix and the closed-form objective it certifies.
CERTIFICATE_RTOL = 1e-9

# Per-trial values stay in memory up to this many bytes, then go to a temporary file.
_SPOOL_MEMORY_BYTES = 1 << 24

_MASK64 = (1 << 64) - 1
_TRIAL_LIMIT = 2**31


def _splitmix64(x: int) -> int:
    """One splitmix64 output step; decorrelates the trial seeds of different run seeds."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(run_seed: int, trial: int) -> int:
    """Deterministic seed of one trial, shared by every cell of the sweep.

    The trial index is XORed with splitmix64(run seed), so for a fixed run
    seed no two trials in [0, 2^31) share a channel stream.
    """
    if not 0 <= trial < _TRIAL_LIMIT:
        raise ValueError(f"trial index must be in [0, 2^31), got {trial}")
    return trial ^ _splitmix64(run_seed & _MASK64)


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


class SweepRecords(Sequence):
    """The records of one sweep in canonical order, streamed from a spool.

    The spool holds, per chunk of n trials, the n trial seeds (uint64) and
    then a (cells, n, 4) float64 block of trial values, so every (chunk,
    cell) run of rows sits at an offset computed from the chunk size. Only
    the per-cell mean and stderr rows are held in memory. close() releases
    the spool; the records cannot be read after it.
    """

    def __init__(self, cfg: SimConfig, cells: list[tuple[str, Architecture, int]],
                 chunk_trials: int):
        self._run_seed = cfg.seed
        self._trials = cfg.trials
        self._chunk_trials = chunk_trials
        self._labels = [(label, m) for label, _, m in cells]
        self._spool = tempfile.SpooledTemporaryFile(max_size=_SPOOL_MEMORY_BYTES)
        self._release = weakref.finalize(self, self._spool.close)
        self._aggregates = np.zeros((len(cells), 2, 4))

    def __len__(self) -> int:
        return len(self._labels) * (self._trials + 2)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if not -len(self) <= index < len(self):
            raise IndexError("sweep record index out of range")
        cell, row = divmod(index % len(self), self._trials + 2)
        if row >= self._trials:
            return self._aggregate(cell, row - self._trials)
        j = row % self._chunk_trials
        seeds, values = self._read(cell, row - j)
        label, m = self._labels[cell]
        return SweepRecord(label, m, row, *values[j], seeds[j])

    def __iter__(self):
        for cell, (label, m) in enumerate(self._labels):
            for start in range(0, self._trials, self._chunk_trials):
                seeds, values = self._read(cell, start)
                for j, (seed, row) in enumerate(zip(seeds, values)):
                    yield SweepRecord(label, m, start + j, *row, seed)
            yield self._aggregate(cell, 0)
            yield self._aggregate(cell, 1)

    def close(self) -> None:
        self._release()

    def __enter__(self) -> "SweepRecords":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _write_chunk(self, seeds: list[int], values: np.ndarray) -> None:
        self._spool.write(np.array(seeds, dtype=np.uint64).tobytes())
        self._spool.write(np.ascontiguousarray(values, dtype=np.float64).tobytes())

    def _read(self, cell: int, start: int) -> tuple[list[int], list[list[float]]]:
        """Seeds and trial values of one cell for the chunk starting at trial start."""
        n = min(self._chunk_trials, self._trials - start)
        chunk_bytes = self._chunk_trials * (8 + 32 * len(self._labels))
        offset = start // self._chunk_trials * chunk_bytes
        self._spool.seek(offset)
        seeds = np.frombuffer(self._spool.read(8 * n), dtype=np.uint64)
        self._spool.seek(offset + 8 * n + 32 * n * cell)
        values = np.frombuffer(self._spool.read(32 * n), dtype=np.float64).reshape(n, 4)
        return seeds.tolist(), values.tolist()

    def _aggregate(self, cell: int, which: int) -> SweepRecord:
        label, m = self._labels[cell]
        return SweepRecord(label, m, ("mean", "stderr")[which],
                           *self._aggregates[cell, which].tolist(), self._run_seed)


def _cells(cfg: SimConfig) -> list[tuple[str, Architecture, int]]:
    """(label, architecture, element count) of every evaluated cell, in canonical order."""
    cells = []
    for label in sorted(cfg.architectures):
        arch = Architecture.from_label(label)
        for elements in sorted(cfg.elements_sweep):
            if arch.kind == "gc" and elements % arch.groups:
                logger.warning(
                    "skipping arch=%s elements=%d: group count %d does not divide element count",
                    label, elements, arch.groups,
                )
                continue
            cells.append((label, arch, elements))
    return cells


def _certify(ch: ChannelSet, arch: Architecture, elements: int, objective: float) -> None:
    """Check from its factors that the designed matrix is feasible and reaches the objective."""
    prefix = ChannelSet(h=ch.h[:elements], g=ch.g[:elements], h_d=ch.h_d)
    achieved, unitarity_bound = certify(prefix, arch)
    # "not <=" instead of ">" so NaN fails closed
    if not unitarity_bound <= UNIT_TOLERANCE:
        raise SweepError(f"trial 0: matrix is not unitary to {UNIT_TOLERANCE:g} "
                         f"(residual bound {unitarity_bound!r})")
    if not abs(achieved - objective) <= CERTIFICATE_RTOL * objective:
        raise SweepError(f"trial 0: matrix reaches {achieved!r}, closed form gives {objective!r}")


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


def run_sweep(cfg: SimConfig) -> SweepRecords:
    """Run the full sweep and return its records in canonical order.

    Canonical order is architecture label (lexicographic), then element
    count, then trial index, with the 'mean' and 'stderr' aggregates after
    each cell's trials. Group-connected cells whose group count does not
    divide the element count are skipped with a warning.

    Trials run in chunks: each chunk's channels are drawn once, at the
    largest element count, and every cell is evaluated on them. For trial 0
    of each cell the optimal design is certified from its factors in O(M),
    without building the M x M matrix: a bound on its unitarity residual
    must be within UNIT_TOLERANCE and |g^T Phi h + h_d|, applied through the
    factors, must match the closed form. A cell with a non-finite value, or
    a failed certificate, raises SweepError.
    """
    geom = build_geometry(cfg)
    fading = cfg.fading_spec
    rf = RfConfig(cfg.tx_power_dbm, cfg.bandwidth_hz, cfg.noise_psd_dbm_hz,
                  cfg.static_power_w)
    cells = _cells(cfg)
    m_max = max((m for _, _, m in cells), default=1)
    chunk_trials = max(1, CHUNK_ELEMENTS // m_max)
    records = SweepRecords(cfg, cells, chunk_trials)
    if not cells:
        return records

    moments = _Moments(len(cells))
    try:
        for start in range(0, cfg.trials, chunk_trials):
            trials = range(start, min(cfg.trials, start + chunk_trials))
            seeds = [derive_trial_seed(cfg.seed, t) for t in trials]
            g = np.empty((len(trials), m_max), dtype=np.complex128)
            h = np.empty_like(g)
            h_d = np.empty(len(trials), dtype=np.complex128)
            for i, (trial, seed) in enumerate(zip(trials, seeds)):
                try:
                    ch = generate_channels(
                        geom, fading, m_max, seed,
                        tx_gain_dbi=cfg.tx_gain_dbi,
                        ris_element_gain_dbi=cfg.ris_element_gain_dbi,
                        rx_gain_dbi=cfg.rx_gain_dbi,
                        direct_blocked=cfg.direct_link == "blocked",
                    )
                except (SimulatorError, ValueError, ArithmeticError) as exc:
                    raise SweepError(f"trial={trial}: {exc}") from exc
                g[i], h[i], h_d[i] = ch.g, ch.h, ch.h_d
                if trial == 0:
                    first = ch

            values = np.empty((len(cells), len(trials), 4))
            for c, (label, arch, m) in enumerate(cells):
                try:
                    values[c] = link_columns(closed_form_objective(g[:, :m], h[:, :m], h_d, arch), rf)
                    if not np.isfinite(values[c]).all():
                        raise SweepError(
                            f"non-finite link metrics in trials {trials.start}..{trials.stop - 1}; "
                            f"check tx_power_dbm, noise_psd_dbm_hz and the antenna gains"
                        )
                    if start == 0:
                        _certify(first, arch, m, values[c, 0, 0])
                except (SimulatorError, ValueError, ArithmeticError) as exc:
                    raise SweepError(f"arch={label} elements={m}: {exc}") from exc
            records._write_chunk(seeds, values)
            moments.add(values)
    except BaseException:
        records.close()
        raise
    records._aggregates = np.stack([moments.mean, moments.stderr()], axis=1)
    return records


# Floats carry 17 significant digits, which round-trips any finite double exactly.
_ROW_FORMAT = "%s,%d,%s,%.17g,%.17g,%.17g,%.17g,%d\n"


def _metadata_path(destination: Path) -> Path:
    if destination.suffix:
        return destination.with_suffix(".meta.txt")
    return destination.with_name(destination.name + ".meta.txt")


def _temporary_path(path: Path) -> Path:
    # same directory as path, so os.replace is an atomic rename
    return path.with_name(f".{path.name}.{os.getpid()}.tmp")


def emit_csv(records: Iterable[SweepRecord], destination, cfg: SimConfig) -> int:
    """Write records as CSV plus a metadata sidecar next to it; return the record count.

    Records stream into a temporary file beside the destination. The sidecar
    is moved into place first and the CSV last, so a failure at any point
    leaves no partial CSV and never a CSV without its sidecar. The sidecar
    records the resolved config, the software version and the noise-density
    interpretation; only its first line (the timestamp) varies between
    identical runs.
    """
    destination = Path(destination)
    metadata = _metadata_path(destination)
    csv_tmp, meta_tmp = _temporary_path(destination), _temporary_path(metadata)
    count = 0
    try:
        with open(csv_tmp, "w", encoding="utf-8") as out:
            out.write(CSV_HEADER + "\n")
            for r in records:
                out.write(_ROW_FORMAT % r)
                count += 1
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
