"""Self-tests of the benchmark: run with `python3 -m pytest bench` from the repo root."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from check import cells, check_csv  # noqa: E402
from ris_ntn_sim import cli, parse_config, phase_optimizer, sweep  # noqa: E402

SMALL = "trials = 5\nelements_sweep = 4, 6, 8\narchitectures = sc, fc, gc:4\nseed = 7\n"


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("small")
    (tmp / "small.cfg").write_text(SMALL)
    argv = ["sweep", "--config", str(tmp / "small.cfg"), "--out", str(tmp / "out.csv")]
    assert cli.main(argv) == 0
    return (tmp / "out.csv").read_text(), parse_config(SMALL)


def edit_field(text, row, column, edit):
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[column] = edit(fields[column])
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def test_check_accepts_program_output(small_csv):
    text, cfg = small_csv
    result = check_csv(text, cfg, samples_per_cell=cfg.trials)
    assert (result.rows, result.failed, result.problems) == (8 * 7, 0, [])
    assert result.trial_rows == 5 * len(cells(cfg))


@pytest.mark.parametrize("row", [1, 9, 30])
def test_check_rejects_one_flipped_digit_in_h_eff_mag(small_csv, row):
    text, cfg = small_csv

    def flip(value):  # the fourth significant digit
        i = [k for k, c in enumerate(value) if c.isdigit()][3]
        return value[:i] + str((int(value[i]) + 5) % 10) + value[i + 1:]

    result = check_csv(edit_field(text, row, 3, flip), cfg, samples_per_cell=1)
    assert result.failed >= 1


def test_check_rejects_wrong_mean_row(small_csv):
    text, cfg = small_csv
    mean_row = cfg.trials + 1  # first cell's mean row, after the header and its trials
    assert text.split("\n")[mean_row].split(",")[2] == "mean"
    wrong = edit_field(text, mean_row, 3, lambda v: repr(float(v) * (1 + 1e-6)))
    result = check_csv(wrong, cfg)
    assert result.failed == 1
    assert "mean row" in result.problems[0]


def test_check_counts_missing_rows_as_failed(small_csv):
    text, cfg = small_csv
    lines = text.split("\n")
    result = check_csv("\n".join(lines[:-3] + [""]), cfg)
    assert result.failed == result.rows == 8 * 7


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_parse(name):
    cfg = parse_config(workloads.config_text(name, 1234))
    assert cfg.seed == 1234
    assert cells(cfg)


def test_tracer_restores_originals_and_records_spans(tmp_path):
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in spans.WRAPPED}
    (tmp_path / "small.cfg").write_text(SMALL)
    argv = ["sweep", "--config", str(tmp_path / "small.cfg"), "--out", str(tmp_path / "o.csv")]
    with spans.Tracer() as tracer:
        assert sweep.generate_channels is not originals[("ris_ntn_sim.sweep", "generate_channels")]
        assert tracer.call(spans.ROOT_SPAN, cli.main, argv) == 0
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    assert phase_optimizer.validate is originals[("ris_ntn_sim.phase_optimizer", "validate")]

    layers = spans.layer_metrics(tracer.spans, tracer.run_id)
    trials = 5 * 8
    assert layers["channel_model.calls"] == layers["phase_optimizer.calls"] == trials
    assert tracer.counts["ris_core.validate_calls"] == trials
    assert tracer.counts["sweep.records"] == trials + 2 * 8
    assert tracer.counts["sweep.skipped_cells"] == 1
    assert tracer.counts["sweep.csv_bytes"] == (tmp_path / "o.csv").stat().st_size
    assert 0.9 < layers["trace.coverage_frac"] <= 1.0


def test_tracer_reports_a_missing_name_as_absent():
    wrapped = spans.WRAPPED + (("ris_ntn_sim.sweep", "no_such_function", "sweep.gone"),)
    with spans.Tracer(wrapped) as tracer:
        pass
    assert tracer.absent == ["sweep.gone"]
    assert not hasattr(sweep, "no_such_function")


def test_self_time_subtracts_direct_children():
    ms = 1_000_000
    spans_ = [
        ("cli.main", 0, 100 * ms, -1, 1),
        ("sweep.run_sweep", 10 * ms, 90 * ms, 0, 1),
        ("phase_optimizer.optimize", 20 * ms, 50 * ms, 1, 1),
        ("ris_core.validate", 30 * ms, 40 * ms, 2, 1),
    ]
    layers = spans.layer_metrics(spans_, 1)
    assert layers["phase_optimizer.self_s"] == pytest.approx(0.020)
    assert layers["ris_core.validate_s"] == pytest.approx(0.010)
    assert layers["sweep.run_self_s"] == pytest.approx(0.050)
    assert layers["cli.self_s"] == pytest.approx(0.020)
    assert layers["trace.coverage_frac"] == pytest.approx(0.8)


def test_reported_layer_metrics_match_benchmark_json():
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(workloads.WORKLOADS)
    assert set(workloads.REFERENCE) == set(workloads.WORKLOADS)
