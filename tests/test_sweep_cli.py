"""Sweep orchestration, CSV emission and the command-line interface."""

import argparse
import functools
import io
import itertools
import logging
import math
import os
import re
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ris_ntn_sim import (
    CSV_HEADER,
    Architecture,
    ChannelSet,
    ConfigError,
    FadingSpec,
    InvalidInput,
    SimConfig,
    SimulatorError,
    SweepRecords,
    build_geometry,
    emit_csv,
    format_config,
    generate_channels,
    optimize,
    parse_config,
    run_sweep,
)
from ris_ntn_sim import _csv, channel_model, cli, phase_optimizer, sweep
from ris_ntn_sim.cli import main
from ris_ntn_sim.config import LINK_BUDGET_KEYS
from ris_ntn_sim.sweep import _metadata_path

from _oracles import splitmix64, trial_by_trial_csv

SMALL = SimConfig(trials=6, elements_sweep=(4, 8), architectures=("sc", "fc"), seed=3)


def csv_bytes(tmp_path, records, name="out.csv"):
    path = tmp_path / name
    emit_csv(records, path)
    return path.read_bytes()


def count_resets(monkeypatch):
    """List that receives the key of every Philox reset from now on."""
    resets, restart = [], channel_model._restart

    def counting(generator, key):
        resets.append(list(key))
        return restart(generator, key)

    monkeypatch.setattr(channel_model, "_restart", counting)
    return resets


def count_passes(monkeypatch):
    """List that receives the cell count of every certificate pass from now on."""
    passes, certify_pass = [], phase_optimizer._certify_pass

    def counting(ch, layout):
        passes.append(len(layout.cells))
        return certify_pass(ch, layout)

    monkeypatch.setattr(phase_optimizer, "_certify_pass", counting)
    return passes


class TestRunSweep:
    def test_record_counting_and_order(self):
        records = run_sweep(SMALL)
        trials = [r for r in records if isinstance(r.trial, int)]
        means = [r for r in records if r.trial == "mean"]
        stderrs = [r for r in records if r.trial == "stderr"]
        assert len(trials) == 2 * 2 * 6
        assert len(means) == 4
        assert len(stderrs) == 4
        # canonical order: arch label, then elements, then trials, then aggregates
        keys = [(r.arch, r.elements) for r in records]
        assert keys == sorted(keys)
        per_cell = [r.trial for r in list(records)[:8]]
        assert per_cell == [0, 1, 2, 3, 4, 5, "mean", "stderr"]

    def test_building_records_runs_the_sweep(self, tmp_path):
        cfg = SimConfig(trials=3, elements_sweep=(4,))
        built, ran = SweepRecords(cfg), run_sweep(cfg)
        assert len(built) == len(ran) == 5 * 2
        assert list(built) == list(ran)
        assert csv_bytes(tmp_path, built, "built.csv") == csv_bytes(tmp_path, ran, "ran.csv")

    def test_a_sweep_that_raises_closes_its_spool(self, monkeypatch):
        opened, temporary_file = [], sweep.tempfile.TemporaryFile

        def opening():
            opened.append(temporary_file())
            return opened[-1]

        monkeypatch.setattr(sweep, "_SPOOL_MEMORY_BYTES", 0)
        monkeypatch.setattr(sweep.tempfile, "TemporaryFile", opening)
        monkeypatch.setattr(sweep, "link_columns", lambda h_eff, cfg: np.full(h_eff.shape + (4,), np.nan))
        with pytest.raises(SimulatorError, match="non-finite link metrics"):
            SweepRecords(SMALL)
        assert len(opened) == 1 and opened[0].closed

    @pytest.mark.parametrize("memory_bytes", [sweep._SPOOL_MEMORY_BYTES, 0], ids=["memory", "file"])
    def test_closed_records_cannot_be_read(self, tmp_path, monkeypatch, memory_bytes):
        monkeypatch.setattr(sweep, "_SPOOL_MEMORY_BYTES", memory_bytes)
        records = run_sweep(SMALL)
        reading = iter(records)
        next(reading)
        # no row read before close() holds on to the spool
        records.close()
        with pytest.raises(ValueError):
            list(records)
        with pytest.raises(ValueError):
            emit_csv(records, tmp_path / "run.csv")
        # no CSV, no sidecar and no temporary
        assert list(tmp_path.iterdir()) == []

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a = csv_bytes(tmp_path, run_sweep(SMALL), "a.csv")
        b = csv_bytes(tmp_path, run_sweep(SMALL), "b.csv")
        assert a == b

    def test_fading_phase_mode_selects_nothing(self, tmp_path):
        # no output depends on the phase of a fade's line-of-sight term, so the key is inert
        common, iid = (SimConfig(trials=20, elements_sweep=(1, 4, 8), direct_link="clear",
                                 architectures=("sc", "fc", "gc:2"), fading_phase_mode=mode, seed=3)
                       for mode in ("common_los", "iid_uniform"))
        assert (csv_bytes(tmp_path, run_sweep(common), "common.csv")
                == csv_bytes(tmp_path, run_sweep(iid), "iid.csv"))

    def test_seed_changes_output(self, tmp_path):
        other = SimConfig(trials=6, elements_sweep=(4, 8), architectures=("sc", "fc"), seed=4)
        assert list(run_sweep(SMALL)) != list(run_sweep(other))

    def test_incompatible_gc_cells_are_skipped_with_warning(self, caplog):
        # the config logs the skip when it is built, and the sweep does not log it again
        cfg = SimConfig(trials=2, elements_sweep=(8, 9), architectures=("gc:3",), seed=1)
        assert [(rec.name, rec.message) for rec in caplog.records] == [
            ("ris_ntn_sim.config", "skipping arch=gc:3 elements=8: group count 3 does not divide element count 8")]
        caplog.clear()
        records = run_sweep(cfg)
        assert caplog.records == []
        assert {r.elements for r in records} == {9}

    def test_all_cells_skipped_is_a_config_error(self):
        with pytest.raises(ConfigError, match="no cell to sweep") as err:
            SimConfig(trials=3, elements_sweep=(8, 10), architectures=("gc:3", "gc:7"))
        assert err.value.key == "architectures"

    def test_aggregates_match_trial_statistics(self):
        records = run_sweep(SMALL)
        for arch in ("sc", "fc"):
            for m in (4, 8):
                cell = [r for r in records if r.arch == arch and r.elements == m]
                ees = np.array([r.ee_bits_per_joule for r in cell if isinstance(r.trial, int)])
                mean = next(r for r in cell if r.trial == "mean")
                stderr = next(r for r in cell if r.trial == "stderr")
                assert mean.ee_bits_per_joule == pytest.approx(ees.mean(), rel=1e-12)
                assert stderr.ee_bits_per_joule == pytest.approx(
                    ees.std(ddof=1) / math.sqrt(len(ees)), rel=1e-12
                )

    def test_trial_records_are_reproducible_from_their_seed(self):
        records = run_sweep(SMALL)
        record = next(r for r in records if r.arch == "fc" and r.elements == 8 and r.trial == 2)
        geom = build_geometry(SMALL)
        ch = generate_channels(geom, SMALL.fading_spec, 8, record.seed,
                               direct_blocked=True)
        # the sweep works on fade powers, the library on complex channels: they agree to rounding
        result = optimize(ch, Architecture("fc"))
        assert result.objective == pytest.approx(record.h_eff_mag, rel=1e-12)

    def test_single_trial_has_zero_stderr(self):
        cfg = SimConfig(trials=1, elements_sweep=(4,), architectures=("sc",))
        records = run_sweep(cfg)
        stderr = next(r for r in records if r.trial == "stderr")
        assert stderr.ee_bits_per_joule == 0.0

    def test_every_cell_of_a_trial_shares_one_draw(self):
        cfg = SimConfig(trials=4, elements_sweep=(4, 8), architectures=("sc", "fc", "gc:2"), seed=5)
        records = run_sweep(cfg)
        geom = build_geometry(cfg)
        full = {t: generate_channels(geom, cfg.fading_spec, 8, t ^ splitmix64(5),
                                     direct_blocked=True) for t in range(4)}
        for r in records:
            if isinstance(r.trial, int):
                assert r.seed == r.trial ^ splitmix64(5)
                ch = full[r.trial]
                prefix = ChannelSet(h=ch.h[:r.elements], g=ch.g[:r.elements], h_d=ch.h_d)
                objective = optimize(prefix, Architecture.from_label(r.arch)).objective
                assert objective == pytest.approx(r.h_eff_mag, rel=1e-12)

    def test_records_stream_the_same_rows_every_time(self):
        records = run_sweep(SMALL)
        first, second = list(records), list(records)
        assert len(first) == len(records) == 4 * 8
        assert second == first
        # two live iterators share one spool without disturbing each other
        pairs = list(zip(records, records, strict=True))
        assert [a for a, _ in pairs] == [b for _, b in pairs] == first

    @pytest.mark.parametrize("chunk_trials", [None, 4], ids=["one_chunk", "several_chunks"])
    def test_spool_holds_only_trial_values(self, monkeypatch, chunk_trials):
        if chunk_trials is not None:
            # SMALL's largest surface has 8 elements, so its 6 trials span 2 chunks
            monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", chunk_trials * 8)
        with run_sweep(SMALL) as records:
            records._spool.seek(0)
            spooled = np.frombuffer(records._spool.read(), np.float64)
            # each cell's trial rows and its two aggregate rows, in CSV order, and nothing else
            assert len(spooled) == 4 * len(records) == 4 * 4 * (SMALL.trials + 2)
            assert spooled.tolist() == [value for record in records for value in record[3:7]]

    def test_failed_certificate_is_a_sweep_error(self, monkeypatch):
        # swapped reflectors keep every block unitary but no longer align h with conj(g)
        design = phase_optimizer._design

        def swapped(ch, arch):
            d = design(ch, arch)
            return d._replace(w_u=d.w_v, w_v=d.w_u)

        monkeypatch.setattr(phase_optimizer, "_design", swapped)
        with pytest.raises(SimulatorError) as info:
            run_sweep(SMALL)
        assert type(info.value) is SimulatorError
        # both values print as plain floats, not as numpy scalar reprs
        number = r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?"
        assert re.fullmatch(f"arch=fc elements=4: trial 0: matrix reaches {number}, "
                            f"closed form gives {number}", str(info.value))
        assert "np.float64" not in str(info.value)

    @pytest.mark.parametrize("corrupt", [
        lambda w: w * np.sqrt(1.0 + 1e-8),  # ||w||^2 = 1 + 1e-8
        lambda w: np.full_like(w, np.nan),
    ], ids=["norm_drift", "non_finite"])
    @pytest.mark.parametrize("reflector", [0, 1], ids=["w_u", "w_v"])
    def test_non_unitary_design_is_a_sweep_error(self, monkeypatch, corrupt, reflector):
        # each design computes w_u, then w_v; only the chosen one is corrupted
        reflectors, calls = phase_optimizer._reflectors, itertools.count()

        def corrupted(x, layout):
            w, beta = reflectors(x, layout)
            return (corrupt(w) if next(calls) % 2 == reflector else w), beta

        monkeypatch.setattr(phase_optimizer, "_reflectors", corrupted)
        with pytest.raises(SimulatorError, match="^arch=fc elements=4: trial 0: matrix is not unitary"):
            run_sweep(SMALL)

    @pytest.mark.parametrize("fault, message", [
        ("norm_drift", "matrix is not unitary"),
        ("swapped", "matrix reaches"),
    ])
    def test_only_the_faulty_cell_is_named(self, monkeypatch, fault, message):
        # cells fc 4, fc 8, gc:2 4, gc:2 8, sc 4, sc 8 share one pass; only the
        # segments of gc:2 at M = 8, the fourth cell, are corrupted
        cfg = SimConfig(trials=3, elements_sweep=(4, 8), architectures=("sc", "fc", "gc:2"), seed=3)
        design = phase_optimizer._design

        def corrupted(ch, layout):
            d = design(ch, layout)
            cell = slice(layout.starts[layout.cells[3]], layout.starts[layout.cells[4]])
            w_u, w_v = d.w_u.copy(), d.w_v.copy()
            if fault == "norm_drift":
                w_v[cell] *= np.sqrt(1.0 + 1e-8)
            else:
                w_u[cell], w_v[cell] = d.w_v[cell], d.w_u[cell]
            return d._replace(w_u=w_u, w_v=w_v)

        monkeypatch.setattr(phase_optimizer, "_design", corrupted)
        with pytest.raises(SimulatorError, match=f"^arch=gc:2 elements=8: trial 0: {message}"):
            run_sweep(cfg)

    @pytest.mark.parametrize("nan_cell, swapped_cell, message", [
        (("fc", 8), ("gc:2", 8), "non-finite link metrics"),
        (("gc:2", 8), ("fc", 8), "trial 0: matrix reaches"),
        (("fc", 8), ("fc", 8), "non-finite link metrics"),
    ], ids=["nan_first", "swap_first", "same_cell"])
    def test_first_faulty_cell_is_named(self, monkeypatch, nan_cell, swapped_cell, message):
        # cells fc 4, fc 8, gc:2 4, gc:2 8, sc 4, sc 8 share one chunk and one pass;
        # one cell gets non-finite values, another a failing certificate
        cfg = SimConfig(trials=3, elements_sweep=(4, 8), architectures=("sc", "fc", "gc:2"), seed=3)
        labels = [(label, m) for label in ("fc", "gc:2", "sc") for m in (4, 8)]
        objectives, design = sweep.closed_form_cells, phase_optimizer._design

        def nan_objectives(power_g, power_h, cells):
            out = objectives(power_g, power_h, cells)
            out[cells.index((Architecture.from_label(nan_cell[0]), nan_cell[1]))] *= np.nan
            return out

        def swapped(ch, layout):
            d = design(ch, layout)
            c = labels.index(swapped_cell)
            cell = slice(layout.starts[layout.cells[c]], layout.starts[layout.cells[c + 1]])
            w_u, w_v = d.w_u.copy(), d.w_v.copy()
            w_u[cell], w_v[cell] = d.w_v[cell], d.w_u[cell]
            return d._replace(w_u=w_u, w_v=w_v)

        monkeypatch.setattr(sweep, "closed_form_cells", nan_objectives)
        monkeypatch.setattr(phase_optimizer, "_design", swapped)
        with pytest.raises(SimulatorError, match=f"^arch=fc elements=8: {message}"):
            run_sweep(cfg)

    @pytest.mark.parametrize("fading_model, direct_link", [
        ("rician", "blocked"),  # one stream per trial, the direct link's row included
        ("rician", "clear"),
        ("pure_los", "clear"),  # no stream and no guard
    ])
    def test_philox_resets_once_per_stream_and_trial(self, monkeypatch, fading_model, direct_link):
        resets = count_resets(monkeypatch)
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 7 * 8)  # 30 trials in 5 chunks
        phase_mode = "iid_uniform" if fading_model == "rician" else "common_los"
        cfg = SimConfig(trials=30, elements_sweep=(4, 8), architectures=("sc", "fc", "gc:2"),
                        fading_model=fading_model, fading_phase_mode=phase_mode,
                        direct_link=direct_link, seed=5)
        run_sweep(cfg).close()
        # each chunk's draw opens with the guard's two resets, then resets once per trial
        guard = [list(key) for key in channel_model._KNOWN_NORMALS]
        seeds = sweep._trial_seeds(cfg.seed, np.arange(cfg.trials)).tolist()
        chunks = [guard + [[seed, 0] for seed in seeds[start:start + 7]]
                  for start in range(0, cfg.trials, 7)]
        assert resets == (sum(chunks, []) if fading_model == "rician" else [])

    @pytest.mark.parametrize("cfg", [SMALL, SimConfig(trials=50)], ids=["small", "default"])
    def test_one_certificate_pass_per_sweep(self, monkeypatch, cfg):
        passes = count_passes(monkeypatch)
        run_sweep(cfg).close()
        assert passes == [len(cfg.architectures) * len(cfg.elements_sweep)]

    @pytest.mark.parametrize("pass_entries, cells_per_pass", [
        (12, [2, 2]),  # SMALL's cells hold 4, 8, 4 and 8 entries
        (11, [1, 1, 1, 1]),
        (3, [1, 1, 1, 1]),  # every cell is larger than a pass and goes alone
    ])
    def test_a_sweep_spans_several_passes(self, monkeypatch, pass_entries, cells_per_pass):
        monkeypatch.setattr(phase_optimizer, "PASS_ENTRIES", pass_entries)
        passes = count_passes(monkeypatch)
        run_sweep(SMALL).close()
        assert passes == cells_per_pass

    def test_many_cells_certify_in_bounded_memory(self):
        # 768 cells, 1.6 million laid-out entries: one unbounded pass peaks near 190 MiB
        cfg = SimConfig(trials=1, elements_sweep=tuple(range(16, 4097, 16)),
                        architectures=("sc", "fc", "gc:4"))
        tracemalloc.start()
        try:
            with run_sweep(cfg) as records:
                assert len(records) == 768 * 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_no_dense_matrix_on_the_sweep_path(self):
        # one dense fc matrix at M = 4096 alone would be 268 MB
        cfg = SimConfig(trials=2, elements_sweep=(4096,), architectures=("fc", "gc:4"))
        tracemalloc.start()
        try:
            with run_sweep(cfg) as records:
                assert len(records) == 2 * (2 + 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestChunking:
    CFG = SimConfig(trials=30, elements_sweep=(2, 8), architectures=("sc", "fc", "gc:2"), seed=11)

    @pytest.mark.parametrize("chunk_trials", [1, 7])
    def test_chunks_change_no_trial_row(self, tmp_path, monkeypatch, chunk_trials):
        one = tmp_path / "one.csv"
        emit_csv(run_sweep(self.CFG), one)
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", chunk_trials * 8)
        chunked = tmp_path / "chunked.csv"
        emit_csv(run_sweep(self.CFG), chunked)
        rows = lambda p: [line.split(",") for line in p.read_text().splitlines()[1:]]
        for a, b in zip(rows(one), rows(chunked), strict=True):
            if a[2] in ("mean", "stderr"):
                assert a[:3] == b[:3] and a[7] == b[7]
                assert [float(x) for x in b[3:7]] == pytest.approx(
                    [float(x) for x in a[3:7]], rel=1e-12)
            else:
                assert a == b

    def test_memory_does_not_grow_with_chunks(self, tmp_path, monkeypatch):
        chunk = 256
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", chunk * 64)

        def peak(trials):
            cfg = SimConfig(trials=trials, elements_sweep=(16, 64), seed=2)
            tracemalloc.start()
            try:
                with run_sweep(cfg) as records:
                    emit_csv(records, tmp_path / f"{trials}.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk, four_chunks = peak(chunk), peak(4 * chunk)
        assert four_chunks <= 1.5 * one_chunk

    def test_spool_file_memory_does_not_grow_with_trials(self, tmp_path, monkeypatch):
        # each chunk writes every cell's rows at its own offset; held in memory,
        # a write far into the spool would grow the buffer up to that offset
        monkeypatch.setattr(sweep, "_SPOOL_MEMORY_BYTES", 64 * 2**10)
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 1000 * 8)
        config = functools.partial(SimConfig, elements_sweep=(4, 8), architectures=("sc", "fc"),
                                   fading_model="pure_los", fading_phase_mode="common_los")
        # the formatter's tables and the first sweep's one-off allocations stay outside
        emit_csv(run_sweep(config(trials=10)), tmp_path / "warm.csv")

        def peak(trials):
            cfg = config(trials=trials)
            tracemalloc.start()
            try:
                with run_sweep(cfg) as records:
                    emit_csv(records, tmp_path / f"{trials}.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        few, many = peak(10_000), peak(100_000)  # 10 and 100 chunks of 4 cells
        assert many < 1.2 * few


class TestPureLineOfSight:
    """A pure line-of-sight chunk draws and evaluates one row and repeats it over its trials."""

    def test_one_seed_drawn_per_chunk(self, monkeypatch):
        drawn, draw = [], sweep.draw_fades

        def counting(fading, elements, seeds):
            drawn.append(len(seeds))
            return draw(fading, elements, seeds)

        monkeypatch.setattr(sweep, "draw_fades", counting)
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 7 * 8)  # 30 trials in 5 chunks
        cfg = SimConfig(trials=30, elements_sweep=(4, 8), architectures=("sc", "fc", "gc:2"),
                        fading_model="pure_los", direct_link="clear")
        with run_sweep(cfg) as records:
            assert len(records) == 6 * 32
        assert drawn == [1] * 5

    @pytest.mark.parametrize("direct_link", ["blocked", "clear"])
    @pytest.mark.parametrize("fading_model", ["pure_los", "rician"])
    def test_bytes_equal_trials_evaluated_one_at_a_time(self, tmp_path, monkeypatch,
                                                        fading_model, direct_link):
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 7 * 64)  # 40 trials in 6 chunks
        cfg = SimConfig(trials=40, elements_sweep=(6, 8, 64), architectures=("sc", "fc", "gc:4"),
                        fading_model=fading_model, direct_link=direct_link, seed=13)
        assert csv_bytes(tmp_path, run_sweep(cfg)) == trial_by_trial_csv(cfg, 7)


class TestTrialSeeds:
    def test_oracle_gives_the_published_first_output(self):
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_injective_over_trials(self):
        trials = list(range(1000)) + [2**20, 2**31 - 2, 2**31 - 1]
        seeds = sweep._trial_seeds(42, np.array(trials)).tolist()
        assert seeds == [t ^ splitmix64(42) for t in trials]
        assert len(set(seeds)) == len(trials)

    def test_depends_on_run_seed(self):
        trials = np.array([0, 2**31 - 1])
        for one, two in zip(sweep._trial_seeds(1, trials).tolist(), sweep._trial_seeds(2, trials).tolist()):
            assert one != two

    @pytest.mark.parametrize("trial", [-1, 2**31])
    def test_bounds_enforced(self, trial):
        with pytest.raises(InvalidInput, match="^trial indices must lie in"):
            sweep._trial_seeds(1, np.array([trial]))

    @pytest.mark.parametrize("run_seed", [0, 42, -1, 2**64 - 1, 2**70 + 3])
    @pytest.mark.parametrize("start, stop", [(0, 7), (7, 14), (2**31 - 5, 2**31)])
    def test_chunk_seeds_equal_per_trial_seeds(self, run_seed, start, stop):
        seeds = sweep._trial_seeds(run_seed, np.arange(start, stop))
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [t ^ splitmix64(run_seed) for t in range(start, stop)]

    def test_chunks_tile_the_trial_range(self):
        tiled = np.concatenate([sweep._trial_seeds(9, np.arange(0, 7)),
                                sweep._trial_seeds(9, np.arange(7, 14))])
        assert tiled.tolist() == sweep._trial_seeds(9, np.arange(0, 14)).tolist()
        for outside in ([2**31 - 1, 2**31], [-1, 0]):
            with pytest.raises(ValueError):
                sweep._trial_seeds(1, np.array(outside))


class TestKnownNormalsGuard:
    CFG_TEXT = "trials = 3\nelements_sweep = 4, 8\nseed = 5\n"

    @staticmethod
    def corrupt_known_answer(monkeypatch):
        known = dict(channel_model._KNOWN_NORMALS)
        key = max(known)
        known[key] = (*known[key][:3], float(np.nextafter(known[key][3], 0.0)))  # one ulp off
        monkeypatch.setattr(channel_model, "_KNOWN_NORMALS", known)

    def test_corrupt_known_answer_fails_closed(self, tmp_path, capsys, monkeypatch):
        self.corrupt_known_answer(monkeypatch)
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(self.CFG_TEXT)
        out_csv = tmp_path / "out" / "out.csv"
        out_csv.parent.mkdir()
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv)]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("ris-ntn-sim: error: runtime: SimulatorError: trials 0..")
        assert f"key {(2**64 - 1, 0)} differ from their known values" in lines[0]
        assert list(out_csv.parent.iterdir()) == []

    def test_corrupt_known_answer_fails_every_rician_draw(self, monkeypatch):
        known = channel_model._KNOWN_NORMALS
        self.corrupt_known_answer(monkeypatch)
        geom = build_geometry(SimConfig())

        def draws():
            for seed in range(3):  # no draw keeps its generator, so every draw checks again
                with pytest.raises(SimulatorError, match="differ from their known values"):
                    generate_channels(geom, FadingSpec(), 4, seed)

        draws()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(draws).result(60)
        monkeypatch.setattr(channel_model, "_KNOWN_NORMALS", known)
        generate_channels(geom, FadingSpec(), 4, 0)  # restored, the next draw passes its check

    def test_the_guard_resets_open_every_rician_draw_call(self, monkeypatch):
        # a few trials per chunk, so 300 trials span 43 chunks, one draw_fades call each
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 7 * 8)
        resets, draw = count_resets(monkeypatch), sweep.draw_fades
        guard = [list(key) for key in channel_model._KNOWN_NORMALS]

        def marked(*args):
            resets.append("call")
            return draw(*args)

        def resets_per_call():
            resets.clear()
            run_sweep(SimConfig(trials=300, elements_sweep=(4, 8), seed=5)).close()
            calls = []
            for key in resets:
                if key == "call":
                    calls.append([])
                else:
                    calls[-1].append(key)
            return calls

        monkeypatch.setattr(sweep, "draw_fades", marked)
        for calls in (resets_per_call(), resets_per_call()):
            assert [call[:2] for call in calls] == [guard] * 43
            assert [len(call) - 2 for call in calls] == [7] * 42 + [6]  # then one per trial
            assert [key for call in calls for key in call[2:] if key in guard] == []
        with ThreadPoolExecutor(max_workers=1) as pool:
            assert pool.submit(resets_per_call).result(60) == calls

    def test_pure_los_draw_runs_no_guard(self, monkeypatch):
        resets = count_resets(monkeypatch)
        channel_model.draw_fades(FadingSpec("pure_los"), 8, np.arange(3, dtype=np.uint64))
        assert resets == []


class TestEmitCsv:
    def test_header_exact(self, tmp_path):
        cfg = SimConfig(trials=2, elements_sweep=(4,), architectures=("sc",))
        path = tmp_path / "one_cell.csv"
        emit_csv(run_sweep(cfg), path)
        assert path.read_text().split("\n", 1)[0] == CSV_HEADER

    def test_one_line_per_record(self, tmp_path):
        cfg = SimConfig(trials=1, elements_sweep=(4,), architectures=("sc",))
        records = run_sweep(cfg)
        path = tmp_path / "one.csv"
        emit_csv(records, path)
        assert len(path.read_text().splitlines()) == 1 + len(records) == 1 + 3

    def test_floats_round_trip_exactly(self, tmp_path):
        records = run_sweep(SMALL)
        path = tmp_path / "rt.csv"
        emit_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        for line, record in zip(lines[1:], records):
            cols = line.split(",")
            assert cols[0] == record.arch
            assert int(cols[1]) == record.elements
            assert float(cols[3]) == record.h_eff_mag
            assert float(cols[4]) == record.snr_db
            assert float(cols[5]) == record.rate_bps
            assert float(cols[6]) == record.ee_bits_per_joule
            assert int(cols[7]) == record.seed

    @pytest.mark.parametrize("name, sidecar", [("run.csv", "run.meta.txt"),
                                               ("out", "out.meta.txt")])
    def test_metadata_sidecar(self, tmp_path, name, sidecar):
        emit_csv(run_sweep(SMALL), tmp_path / name)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([name, sidecar])
        text = (tmp_path / sidecar).read_text()
        assert text.startswith("generated_at = ")
        assert "dBm/Hz" in text
        assert "trials = 6" in text

    def test_failed_stream_leaves_previous_output_untouched(self, tmp_path, monkeypatch):
        path = tmp_path / "run.csv"
        emit_csv(run_sweep(SMALL), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # 1,102 rows: the second batch fails after the first was written
        cfg = SimConfig(trials=1100, elements_sweep=(4,), architectures=("sc",))
        calls, format_batch = [], _csv.format_batch

        def failing(heads, cells, trials, values, seeds, texts):
            calls.append(len(seeds))
            if len(calls) == 2:
                raise OSError("disk full")
            return format_batch(heads, cells, trials, values, seeds, texts)

        monkeypatch.setattr(_csv, "format_batch", failing)
        with pytest.raises(OSError, match="disk full"):
            emit_csv(run_sweep(cfg), path)
        assert calls == [_csv.BATCH_ROWS, 1102 - _csv.BATCH_ROWS]
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_sidecar_echoes_the_config_the_records_were_built_from(self, tmp_path):
        cfg = SimConfig(trials=2, elements_sweep=(4,), architectures=("sc",), seed=9)
        records = run_sweep(cfg)
        assert records.cfg is cfg
        path = tmp_path / "run.csv"
        emit_csv(records, path)
        assert _metadata_path(path).read_text().endswith(
            "[resolved config]\n" + format_config(cfg) + "\n")

    def test_returns_record_count(self, tmp_path):
        records = run_sweep(SMALL)
        assert emit_csv(records, tmp_path / "n.csv") == len(records)

    def test_outputs_get_the_mode_the_umask_gives(self, tmp_path):
        path = tmp_path / "run.csv"
        umask = os.umask(0o022)
        try:
            emit_csv(run_sweep(SMALL), path)
        finally:
            os.umask(umask)
        assert [p.stat().st_mode & 0o777 for p in (path, _metadata_path(path))] == [0o644, 0o644]

    def test_concurrent_emits_to_one_path_each_leave_whole_files(self, tmp_path):
        sweeps = [run_sweep(SimConfig(trials=500, elements_sweep=(4, 8), seed=seed)) for seed in (1, 2)]
        tail = lambda p: p.read_text().split("\n", 1)[1]
        csvs, sidecars = [], []
        for i, records in enumerate(sweeps):
            csvs.append(csv_bytes(tmp_path, records, f"{i}.csv"))
            sidecars.append(tail(_metadata_path(tmp_path / f"{i}.csv")))
        path = tmp_path / "shared" / "run.csv"
        path.parent.mkdir()
        start = threading.Barrier(len(sweeps))

        def emit(records):
            start.wait(timeout=10)
            return emit_csv(records, path)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(sweeps)) as pool:
                for _ in range(20):
                    futures = [pool.submit(emit, records) for records in sweeps]
                    assert [f.result(timeout=60) for f in futures] == [len(r) for r in sweeps]
                    assert sorted(p.name for p in path.parent.iterdir()) == ["run.csv", "run.meta.txt"]
                    assert path.read_bytes() in csvs
                    assert tail(_metadata_path(path)) in sidecars
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("memory_bytes", [sweep._SPOOL_MEMORY_BYTES, 2**10], ids=["memory", "file"])
    def test_threads_iterate_and_emit_one_records_object(self, tmp_path, monkeypatch, memory_bytes):
        # every spool read first yields the thread, so a read that relies on a file
        # position finds it moved by the other thread
        class YieldingBytesIO(io.BytesIO):
            def read(self, *args):
                time.sleep(0)
                return super().read(*args)

            def getbuffer(self):
                time.sleep(0)
                return super().getbuffer()

        class YieldingFile:
            def __init__(self):
                self._file = temporary_file()

            def __getattr__(self, name):
                return getattr(self._file, name)

            def read(self, *args):
                time.sleep(0)
                return self._file.read(*args)

            def fileno(self):
                time.sleep(0)
                return self._file.fileno()

        temporary_file = sweep.tempfile.TemporaryFile
        monkeypatch.setattr(sweep, "_SPOOL_MEMORY_BYTES", memory_bytes)
        monkeypatch.setattr(sweep.io, "BytesIO", YieldingBytesIO)
        monkeypatch.setattr(sweep.tempfile, "TemporaryFile", YieldingFile)
        # 4 cells of 502 rows: three batches, the first two straddling cells
        records = run_sweep(SimConfig(trials=500, elements_sweep=(4, 8), seed=4))
        spool = YieldingFile if memory_bytes < 32 * len(records) else YieldingBytesIO
        assert isinstance(records._spool, spool)
        alone, rows = csv_bytes(tmp_path, records, "alone.csv"), list(records)
        start = threading.Barrier(2)

        def read(name):
            start.wait(timeout=10)
            return list(records), csv_bytes(tmp_path, records, name)

        with ThreadPoolExecutor(max_workers=2) as pool:
            for _ in range(10):
                futures = [pool.submit(read, f"{i}.csv") for i in range(2)]
                assert [f.result(timeout=60) for f in futures] == [(rows, alone)] * 2

    def test_metadata_deterministic_after_timestamp(self, tmp_path):
        records = run_sweep(SMALL)
        emit_csv(records, tmp_path / "a.csv")
        emit_csv(records, tmp_path / "b.csv")
        tail = lambda p: p.read_text().split("\n", 1)[1]
        assert tail(_metadata_path(tmp_path / "a.csv")) == tail(_metadata_path(tmp_path / "b.csv"))


class TestCli:
    def test_budget_prints_path_loss(self, capsys):
        assert main(["budget", "--distance-m", "600000", "--freq-hz", "19e9"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1].strip())
        assert abs(value - 173.586) <= 0.001

    @pytest.mark.parametrize("distance, freq", [
        ("inf", "19e9"),  # not finite
        ("1e300", "1e300"),  # 4 pi d f overflows, so the gain is zero
        ("1e-320", "1e-10"),  # 4 pi d f underflows to zero
        ("nan", "19e9"),
    ])
    def test_budget_rejects_non_finite_or_extreme_inputs(self, capsys, distance, freq):
        assert main(["budget", "--distance-m", distance, "--freq-hz", freq]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ris-ntn-sim: error: runtime: InvalidInput: ")

    def test_validate_ok(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 5\n")
        assert main(["validate", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "trials = 5" in out

    def test_config_file_with_byte_order_mark(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbftrials = 5\nelements_sweep = 4\narchitectures = sc\n")
        assert main(["validate", "--config", str(cfg_file)]) == 0
        assert "trials = 5" in capsys.readouterr().out
        out_csv = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv)]) == 0
        assert len(out_csv.read_text().splitlines()) == 1 + 5 + 2

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_config_file_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_bytes(b"trials = 5 # caf\xe9\n")  # Latin-1
        out = ["--out", str(tmp_path / "out.csv")] if command == "sweep" else []
        assert main([command, "--config", str(cfg_file), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: config: ConfigError: cannot read config file")
        assert "utf-8" in err
        assert list(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("text, key, message", [
        ("tx_powr_dbm = 50\n", "tx_powr_dbm", "unknown config key 'tx_powr_dbm'"),
        ("trials = many\n", "trials", "key 'trials': expected integer, got 'many'"),
        ("# x\ntrials\n", None, "line 2: expected 'key = value', got 'trials'"),
        ("trials = 5\ntrials = 6\n", "trials", "key 'trials': duplicate key"),
        ("trials = 0\n", "trials", "key 'trials': must be an integer in [1, 2147483647]"),
        (None, None, "cannot read config file {path}: [Errno 2] No such file or directory: "
                     "'{path}'"),
        # the hop product underflows to zero, so the unfaded |h_eff| is exactly 0
        ("ris_element_gain_dbi = -3200\ntrials = 2\nelements_sweep = 4\n", None,
         f"unfaded |h_eff| is [0.0, 0.0] at [4, 4] elements, and fades "
         f"may scale it by 1e+20 either way: link metrics would not be finite; "
         f"check {LINK_BUDGET_KEYS}"),
    ], ids=["unknown-key", "bad-value", "malformed-line", "duplicate-key", "constraint",
            "unreadable-file", "link-budget"])
    def test_every_config_failure_is_one_config_error_line(self, tmp_path, capsys, command,
                                                           text, key, message):
        cfg_file = tmp_path / "run.cfg"
        if text is not None:
            cfg_file.write_text(text)
        message = message.format(path=cfg_file)
        with pytest.raises(ConfigError) as err:
            cli._load_config(cfg_file)
        assert (err.value.key, str(err.value)) == (key, message)
        out = ["--out", str(tmp_path / "out.csv")] if command == "sweep" else []
        assert main([command, "--config", str(cfg_file), *out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ris-ntn-sim: error: config: ConfigError: {message}\n"
        assert list(tmp_path.iterdir()) == ([] if text is None else [cfg_file])

    @pytest.mark.parametrize("args", [["validate"], ["sweep"],
                                      ["sweep", "--trials", "2", "--seed", "3", "--arch", "sc"]],
                             ids=["validate", "sweep", "sweep-overrides"])
    def test_out_of_band_carrier_is_logged_once_per_command(self, tmp_path, caplog, args):
        # the flags replace file keys before the one config of the command is built
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("carrier_hz = 1e10\n")
        out = ["--out", str(tmp_path / "out.csv")] if args[0] == "sweep" else []
        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim"):
            assert main([args[0], "--config", str(cfg_file), *out, *args[1:]]) == 0
        assert [rec.message for rec in caplog.records] == [
            "carrier 1e+10 Hz is outside the Ka band 1.77e+10-1.97e+10 Hz"]

    @pytest.mark.parametrize("args", [["validate"], ["sweep"],
                                      ["sweep", "--trials", "2", "--seed", "3", "--arch", "sc"]],
                             ids=["validate", "sweep", "sweep-overrides"])
    def test_one_config_is_built_per_command(self, tmp_path, monkeypatch, args):
        built, post_init = [], SimConfig.__post_init__

        def counting(cfg):
            built.append(cfg.trials)
            post_init(cfg)

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 3\nelements_sweep = 4\n")
        out = ["--out", str(tmp_path / "out.csv")] if args[0] == "sweep" else []
        monkeypatch.setattr(SimConfig, "__post_init__", counting)
        assert main([args[0], "--config", str(cfg_file), *out, *args[1:]]) == 0
        assert built == [2 if "--trials" in args else 3]

    def test_a_file_key_replaced_by_a_flag_is_not_checked(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 0\nelements_sweep = 4\n")
        out_csv = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv), "--trials", "2"]) == 0
        assert capsys.readouterr().out == f"wrote 8 records to {out_csv}\n"
        assert main(["validate", "--config", str(cfg_file)]) == 2

    def test_a_bad_flag_fails_on_its_own_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 3\nelements_sweep = 4\n")
        out = ["--out", str(tmp_path / "out.csv")]
        assert main(["sweep", "--config", str(cfg_file), *out, "--trials", "0"]) == 2
        assert capsys.readouterr().err == ("ris-ntn-sim: error: config: ConfigError: key 'trials': "
                                           "must be an integer in [1, 2147483647]\n")
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_building_a_config_logs_only_its_carrier_warning(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="ris_ntn_sim"):
            parse_config("carrier_hz = 18.7e9\ntrials = 2\n")
            SimConfig()
            assert caplog.records == []
            SimConfig(carrier_hz=1e10)  # out of band: building it warns, once
        assert [(rec.levelname, rec.message) for rec in caplog.records] == [
            ("WARNING", "carrier 1e+10 Hz is outside the Ka band 1.77e+10-1.97e+10 Hz")]

    @pytest.mark.parametrize("kwargs, key", [
        ({"architectures": ("sc", "gc:3"), "elements_sweep": (8,), "trials": 0}, "trials"),
        ({"carrier_hz": 1e10, "architectures": ("sc", "gc:3"), "elements_sweep": (8,),
          "tx_power_dbm": -3100.0}, None),  # the last check, the link budget's
    ], ids=["skipped-cell", "link-budget"])
    def test_a_refused_config_logs_no_warning(self, caplog, kwargs, key):
        with caplog.at_level(logging.DEBUG, logger="ris_ntn_sim"):
            with pytest.raises(ConfigError) as err:
                SimConfig(**kwargs)
        assert err.value.key == key
        assert caplog.records == []

    def test_validate_rejects_typo(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tx_powr_dbm = 50\n")
        assert main(["validate", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: config:")
        assert "tx_powr_dbm" in err

    def test_missing_config_file_is_a_config_error(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_sweep_end_to_end(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 4\nelements_sweep = 4, 8\narchitectures = sc, fc\n")
        out_csv = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2 * 4 + 8
        assert _metadata_path(out_csv).exists()
        assert "wrote" in capsys.readouterr().out

    def test_sweep_flag_overrides(self, tmp_path):
        out_csv = tmp_path / "out.csv"
        args = ["sweep", "--out", str(out_csv), "--trials", "2",
                "--seed", "9", "--arch", "gc:4"]
        assert main(args) == 0
        lines = out_csv.read_text().splitlines()
        body = [line.split(",") for line in lines[1:]]
        assert {cols[0] for cols in body} == {"gc:4"}
        assert len(body) == 8 * 2 + 16  # default sweep has 8 element counts
        assert "seed = 9" in _metadata_path(out_csv).read_text()

    @pytest.mark.parametrize("arch, label", [("bogus", "bogus"), ("gc:4, gc: 4", "gc: 4")])
    def test_sweep_bad_arch_flag_is_config_error(self, tmp_path, capsys, arch, label):
        out_csv = tmp_path / "out.csv"
        assert main(["sweep", "--out", str(out_csv), "--arch", arch]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: config: ConfigError")
        assert repr(label) in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("arch", [" , ", "sc,", "sc,,fc"])
    def test_sweep_arch_flag_is_parsed_as_the_file_value(self, tmp_path, capsys, arch):
        out_csv = tmp_path / "out.csv"
        assert main(["sweep", "--out", str(out_csv), "--arch", arch]) == 2
        assert capsys.readouterr().err == ("ris-ntn-sim: error: config: ConfigError: key 'architectures': "
                                           f"expected comma-separated labels, got {arch!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_config_with_no_cell_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("architectures = gc:3\nelements_sweep = 8\n")
        out = ["--out", str(tmp_path / "out.csv")] if command == "sweep" else []
        assert main([command, "--config", str(cfg_file), *out]) == 2
        assert capsys.readouterr().err.startswith(
            "ris-ntn-sim: error: config: ConfigError: key 'architectures': no cell to sweep")
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_sweep_parses_each_label_once(self, tmp_path, monkeypatch):
        parsed = []
        from_label = Architecture.from_label
        monkeypatch.setattr(Architecture, "from_label",
                            staticmethod(lambda label: parsed.append(label) or from_label(label)))
        args = ["sweep", "--out", str(tmp_path / "out.csv"), "--trials", "2", "--arch", "sc,fc,gc:4"]
        assert main(args) == 0
        assert sorted(parsed) == ["fc", "gc:4", "sc"]

    def test_overflowing_gain_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tx_gain_dbi = 7000\ntrials = 2\n")
        assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: config: ConfigError")
        assert "'tx_gain_dbi'" in err
        assert not (tmp_path / "o.csv").exists()

    def test_overflowing_hop_gain_product_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tx_gain_dbi = 6000\nris_element_gain_dbi = 6000\ntrials = 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: config: ConfigError")
        assert "'tx_gain_dbi'" in err and "ris_element_gain_dbi" in err
        assert "Warning" not in err
        assert list(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("line, key, gain", [
        ("leo_altitude_m = 1e300", "leo_altitude_m", "0.0"),  # 4 pi d f overflows
        ("haps_altitude_m = 1e-320", "haps_altitude_m", "inf"),  # 4 pi d f is subnormal
    ])
    def test_hop_gain_that_is_not_finite_and_positive_is_config_error(
            self, tmp_path, capsys, command, line, key, gain):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{line}\ntrials = 2\n")
        out = ["--out", str(tmp_path / "o.csv")] if command == "sweep" else []
        assert main([command, "--config", str(cfg_file), *out]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"ris-ntn-sim: error: config: ConfigError: key {key!r}: gain at")
        assert f"Hz is {gain}, not finite and positive" in lines[0]
        assert list(tmp_path.iterdir()) == [cfg_file]

    def test_sweep_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        out_csv = tmp_path / "missing_dir" / "out.csv"
        code = main(["sweep", "--out", str(out_csv), "--trials", "1",
                     "--arch", "sc"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ris-ntn-sim: error: runtime:")

    def test_output_that_is_a_directory_leaves_no_sidecar(self, tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        out_csv.mkdir()
        # an older sidecar beside it must keep its bytes
        (tmp_path / "old.csv").mkdir()
        (tmp_path / "old.meta.txt").write_text("older run\n")
        for name in ("out.csv", "old.csv"):
            code = main(["sweep", "--out", str(tmp_path / name), "--trials", "1", "--arch", "sc"])
            assert code == 3
            assert capsys.readouterr().err.startswith(
                "ris-ntn-sim: error: runtime: IsADirectoryError")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv", "old.meta.txt", "out.csv"]
        assert (tmp_path / "old.meta.txt").read_text() == "older run\n"
        assert list(out_csv.iterdir()) == []

    def test_non_finite_metrics_fail_the_sweep(self, tmp_path, capsys, monkeypatch):
        # fades far outside the link budget's headroom: every |h_eff| is 0, its SNR -inf dB
        draw = sweep.draw_fades
        monkeypatch.setattr(sweep, "draw_fades", lambda *args: 0.0 * draw(*args))
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 3\nelements_sweep = 4, 8\n")
        out_csv = tmp_path / "out" / "out.csv"
        out_csv.parent.mkdir()
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: runtime: SimulatorError: arch=fc elements=4: "
                              "non-finite link metrics in trials 0..2; ")
        assert err.count("\n") == 1
        assert f"check {LINK_BUDGET_KEYS}" in err
        # neither a partial CSV nor a sidecar nor a temporary file is left behind
        assert list(out_csv.parent.iterdir()) == []

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    @pytest.mark.parametrize("lines", [
        "carrier_hz = 1e150",  # |h_eff|^2 underflows, so the SNR is 0
        "ris_element_gain_dbi = -3000",
        "tx_gain_dbi = 3000\nrx_gain_dbi = 3000",  # |h_eff|^2 overflows
        "tx_power_dbm = -3100",  # the transmit power is subnormal and the SNR 0
        "ris_element_gain_dbi = -1267",  # 1 dB outside the fade headroom, either way
        "tx_gain_dbi = 2839",
    ])
    def test_link_budget_without_finite_rows_is_config_error(self, tmp_path, capsys, command,
                                                              lines):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{lines}\ntrials = 2\nelements_sweep = 4\n")
        out = ["--out", str(tmp_path / "o.csv")] if command == "sweep" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(cfg_file), *out])
        assert code == 2
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        # an out-of-band carrier is also logged, on the line before
        last = captured.err.splitlines()[-1]
        assert last.startswith("ris-ntn-sim: error: config: ConfigError: unfaded |h_eff| is ")
        assert last.endswith(f"check {LINK_BUDGET_KEYS}")
        assert list(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("line", ["ris_element_gain_dbi = -1266", "tx_gain_dbi = 2838"])
    def test_link_budget_just_inside_the_fade_headroom_sweeps_finite_rows(self, tmp_path, line):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{line}\ntrials = 2\nelements_sweep = 4\n")
        out_csv = tmp_path / "out.csv"
        assert main(["validate", "--config", str(cfg_file)]) == 0
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv)]) == 0
        rows = [row.split(",")[3:7] for row in out_csv.read_text().splitlines()[1:]]
        assert len(rows) == 2 * (2 + 2)
        assert np.isfinite(np.array(rows, dtype=float)).all()

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path, monkeypatch):
        inits, init = [], argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            inits.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 2\nelements_sweep = 4, 8\n")
        first, third = tmp_path / "first.csv", tmp_path / "third.csv"
        cli.build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        try:
            assert main(["sweep", "--config", str(cfg_file), "--out", str(first),
                         "--trials", "1", "--arch", "sc"]) == 0
            with pytest.raises(SystemExit) as exit_info:
                main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "second.csv"),
                      "--workers", "2"])
            assert exit_info.value.code == 2
            assert main(["sweep", "--config", str(cfg_file), "--out", str(third)]) == 0
        finally:
            cli.build_parser.cache_clear()
        # one parser and its three subcommands, for the whole sequence
        assert len(inits) == 4
        assert not (tmp_path / "second.csv").exists()

        def cells_and_trials(path):
            rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
            return {(r[0], r[1]) for r in rows}, {r[2] for r in rows}

        assert cells_and_trials(first) == ({("sc", "4"), ("sc", "8")}, {"0", "mean", "stderr"})
        assert cells_and_trials(third) == ({(a, m) for a in ("fc", "sc") for m in ("4", "8")},
                                           {"0", "1", "mean", "stderr"})

    def test_workers_flag_is_gone(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--out", str(out), "--trials", "2", "--workers", "2"])
        assert exit_info.value.code == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_power_whose_watts_overflow_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tx_power_dbm = 3300\ntrials = 2\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: config: ConfigError")
        assert "'tx_power_dbm'" in err
        assert list(tmp_path.iterdir()) == [cfg_file]
