"""Sweep orchestration, CSV emission and the command-line interface."""

import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest

from ris_ntn_sim import (
    CSV_HEADER,
    Architecture,
    ChannelSet,
    FadingSpec,
    SimConfig,
    SweepError,
    build_geometry,
    derive_trial_seed,
    emit_csv,
    generate_channels,
    optimize,
    run_sweep,
)
from ris_ntn_sim import phase_optimizer, sweep
from ris_ntn_sim.cli import main
from ris_ntn_sim.sweep import _metadata_path

SMALL = SimConfig(trials=6, elements_sweep=(4, 8), architectures=("sc", "fc"), seed=3)


def csv_bytes(tmp_path, records, cfg, name="out.csv"):
    path = tmp_path / name
    emit_csv(records, path, cfg)
    return path.read_bytes()


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
        per_cell = [r.trial for r in records[:8]]
        assert per_cell == [0, 1, 2, 3, 4, 5, "mean", "stderr"]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a = csv_bytes(tmp_path, run_sweep(SMALL), SMALL, "a.csv")
        b = csv_bytes(tmp_path, run_sweep(SMALL), SMALL, "b.csv")
        assert a == b

    def test_seed_changes_output(self, tmp_path):
        other = SimConfig(trials=6, elements_sweep=(4, 8), architectures=("sc", "fc"), seed=4)
        assert list(run_sweep(SMALL)) != list(run_sweep(other))

    def test_incompatible_gc_cells_are_skipped_with_warning(self, caplog):
        cfg = SimConfig(trials=2, elements_sweep=(8, 9), architectures=("gc:3",), seed=1)
        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim.sweep"):
            records = run_sweep(cfg)
        assert any("does not divide" in rec.message for rec in caplog.records)
        assert {r.elements for r in records} == {9}

    def test_all_cells_skipped_gives_header_only(self, tmp_path):
        cfg = SimConfig(trials=3, elements_sweep=(8,), architectures=("gc:3",))
        with run_sweep(cfg) as records:
            assert len(records) == 0
            assert emit_csv(records, tmp_path / "none.csv", cfg) == 0
        assert (tmp_path / "none.csv").read_text() == CSV_HEADER + "\n"

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
        result = optimize(ch, Architecture.fully_connected())
        assert result.objective == record.h_eff_mag

    def test_single_trial_has_zero_stderr(self):
        cfg = SimConfig(trials=1, elements_sweep=(4,), architectures=("sc",))
        records = run_sweep(cfg)
        stderr = next(r for r in records if r.trial == "stderr")
        assert stderr.ee_bits_per_joule == 0.0

    def test_every_cell_of_a_trial_shares_one_draw(self):
        cfg = SimConfig(trials=4, elements_sweep=(4, 8), architectures=("sc", "fc", "gc:2"), seed=5)
        records = run_sweep(cfg)
        geom = build_geometry(cfg)
        full = {t: generate_channels(geom, cfg.fading_spec, 8, derive_trial_seed(5, t),
                                     direct_blocked=True) for t in range(4)}
        for r in records:
            if isinstance(r.trial, int):
                assert r.seed == derive_trial_seed(5, r.trial)
                ch = full[r.trial]
                prefix = ChannelSet(h=ch.h[:r.elements], g=ch.g[:r.elements], h_d=ch.h_d)
                assert optimize(prefix, Architecture.from_label(r.arch)).objective == r.h_eff_mag

    def test_records_index_like_a_list(self):
        records = run_sweep(SMALL)
        as_list = list(records)
        assert len(as_list) == len(records) == 4 * 8
        assert records[:] == as_list
        assert records[-1] == as_list[-1]
        assert [records[i] for i in range(len(records))] == as_list
        with pytest.raises(IndexError):
            records[len(records)]

    def test_failed_certificate_is_a_sweep_error(self, monkeypatch):
        # swapped reflectors keep every block unitary but no longer align h with conj(g)
        design = phase_optimizer._design

        def swapped(ch, arch):
            d = design(ch, arch)
            return d._replace(w_u=d.w_v, w_v=d.w_u)

        monkeypatch.setattr(phase_optimizer, "_design", swapped)
        with pytest.raises(SweepError, match="arch=fc elements=4: trial 0: matrix reaches"):
            run_sweep(SMALL)

    @pytest.mark.parametrize("corrupt", [
        lambda w: w * np.sqrt(1.0 + 1e-8),  # ||w||^2 = 1 + 1e-8
        lambda w: np.full_like(w, np.nan),
    ], ids=["norm_drift", "non_finite"])
    @pytest.mark.parametrize("reflector", [0, 1], ids=["w_u", "w_v"])
    def test_non_unitary_design_is_a_sweep_error(self, monkeypatch, corrupt, reflector):
        # each design computes w_u, then w_v; only the chosen one is corrupted
        reflectors, calls = phase_optimizer._reflectors, itertools.count()

        def corrupted(x):
            w, beta = reflectors(x)
            return (corrupt(w) if next(calls) % 2 == reflector else w), beta

        monkeypatch.setattr(phase_optimizer, "_reflectors", corrupted)
        with pytest.raises(SweepError, match="arch=fc elements=4: trial 0: matrix is not unitary"):
            run_sweep(SMALL)

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
        emit_csv(run_sweep(self.CFG), one, self.CFG)
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", chunk_trials * 8)
        chunked = tmp_path / "chunked.csv"
        emit_csv(run_sweep(self.CFG), chunked, self.CFG)
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
                    emit_csv(records, tmp_path / f"{trials}.csv", cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk, four_chunks = peak(chunk), peak(4 * chunk)
        assert four_chunks <= 1.5 * one_chunk


class TestTrialSeeds:
    def test_injective_over_trials(self):
        trials = list(range(1000)) + [2**20, 2**31 - 2, 2**31 - 1]
        seeds = {derive_trial_seed(42, trial) for trial in trials}
        assert len(seeds) == len(trials)

    def test_depends_on_run_seed(self):
        assert derive_trial_seed(1, 0) != derive_trial_seed(2, 0)
        assert derive_trial_seed(1, 2**31 - 1) != derive_trial_seed(2, 2**31 - 1)

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            derive_trial_seed(1, -1)
        with pytest.raises(ValueError):
            derive_trial_seed(1, 2**31)


class TestEmitCsv:
    def test_header_exact(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path, SMALL)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_one_record_two_lines(self, tmp_path):
        records = run_sweep(SimConfig(trials=1, elements_sweep=(4,), architectures=("sc",)))
        path = tmp_path / "one.csv"
        emit_csv(records[:1], path, SMALL)
        assert len(path.read_text().splitlines()) == 2

    def test_floats_round_trip_exactly(self, tmp_path):
        records = run_sweep(SMALL)
        path = tmp_path / "rt.csv"
        emit_csv(records, path, SMALL)
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

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "run.csv"
        emit_csv(run_sweep(SMALL), path, SMALL)
        meta = _metadata_path(path)
        assert meta.name == "run.meta.txt"
        text = meta.read_text()
        assert text.startswith("generated_at = ")
        assert "dBm/Hz" in text
        assert "trials = 6" in text

    def test_failed_stream_leaves_previous_output_untouched(self, tmp_path):
        path = tmp_path / "run.csv"
        emit_csv(run_sweep(SMALL), path, SMALL)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def failing():
            yield from run_sweep(SMALL)[:3]
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            emit_csv(failing(), path, SMALL)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_returns_record_count(self, tmp_path):
        records = run_sweep(SMALL)
        assert emit_csv(records, tmp_path / "n.csv", SMALL) == len(records)

    def test_metadata_deterministic_after_timestamp(self, tmp_path):
        records = run_sweep(SMALL)
        emit_csv(records, tmp_path / "a.csv", SMALL)
        emit_csv(records, tmp_path / "b.csv", SMALL)
        tail = lambda p: p.read_text().split("\n", 1)[1]
        assert tail(_metadata_path(tmp_path / "a.csv")) == tail(_metadata_path(tmp_path / "b.csv"))


class TestCli:
    def test_budget_prints_path_loss(self, capsys):
        assert main(["budget", "--distance-m", "600000", "--freq-hz", "19e9"]) == 0
        out = capsys.readouterr().out
        value = float(out.split("=")[1].strip())
        assert abs(value - 173.586) <= 0.001

    def test_validate_ok(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("trials = 5\n")
        assert main(["validate", "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert "trials = 5" in out

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
                "--seed", "9", "--arch", "gc:4", "--workers", "2"]
        assert main(args) == 0
        lines = out_csv.read_text().splitlines()
        body = [line.split(",") for line in lines[1:]]
        assert {cols[0] for cols in body} == {"gc:4"}
        assert len(body) == 8 * 2 + 16  # default sweep has 8 element counts
        assert "seed = 9" in _metadata_path(out_csv).read_text()

    def test_sweep_bad_arch_flag_is_config_error(self, tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        assert main(["sweep", "--out", str(out_csv), "--arch", "bogus"]) == 2

    def test_sweep_unwritable_output_is_runtime_error(self, tmp_path, capsys):
        out_csv = tmp_path / "missing_dir" / "out.csv"
        code = main(["sweep", "--out", str(out_csv), "--trials", "1",
                     "--arch", "sc"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ris-ntn-sim: error: runtime:")

    def test_non_finite_metrics_fail_the_sweep(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("tx_power_dbm = -3100\ntrials = 3\nelements_sweep = 4, 8\n")
        out_csv = tmp_path / "out" / "out.csv"
        out_csv.parent.mkdir()
        assert main(["sweep", "--config", str(cfg_file), "--out", str(out_csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("ris-ntn-sim: error: runtime: SweepError")
        assert "arch=fc elements=4" in err and "non-finite" in err
        # neither a partial CSV nor a sidecar nor a temporary file is left behind
        assert list(out_csv.parent.iterdir()) == []

    def test_workers_flag_is_deprecated_and_ignored(self, tmp_path, caplog):
        out = tmp_path / "out.csv"
        args = ["sweep", "--out", str(out), "--trials", "2", "--arch", "sc"]
        assert main(args) == 0
        plain = out.read_bytes()
        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim.cli"):
            assert main(args + ["--workers", "3"]) == 0
        assert [r.message for r in caplog.records if "--workers" in r.message] == [
            "--workers is deprecated and ignored: the sweep runs on one thread"]
        assert out.read_bytes() == plain
