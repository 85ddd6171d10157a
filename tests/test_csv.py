"""The batched CSV formatter: exact '%.17g' floats from numpy, and emit_csv's bytes."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_ntn_sim import CSV_HEADER, SimConfig, emit_csv, run_sweep
from ris_ntn_sim import _csv, sweep

from _oracles import reference_csv
from test_golden import GOLDEN_DIRECT_CONFIG


def formatted(values: np.ndarray) -> bytes:
    """The array path's bytes for values, each followed by its comma."""
    fields = np.ascontiguousarray(_csv._float_fields(values).T)
    return fields[fields != 0].tobytes()


def reference(values: np.ndarray) -> bytes:
    return b"".join(b"%.17g," % v for v in values.tolist())


def near_tie(value: float) -> bool:
    """Whether the 17th significant digit of value lies within TIE_MARGIN of a rounding tie."""
    exact = abs(Decimal(value))
    fraction = exact.scaleb(16 - exact.adjusted()) % 1
    return abs(fraction - Decimal("0.5")) < Decimal(_csv.TIE_MARGIN)


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(1.7976931348623157e308)
@example(1e16)
@example(1e17)
@example(1000000000000000.25)  # an exact tie at the 17th digit
def test_formatter_spells_any_double_as_printf(value):
    assert formatted(np.array([value])) == ("%.17g," % value).encode()


def test_exact_tie_rounds_half_to_even():
    assert formatted(np.array([1000000000000000.25])) == b"1000000000000000.2,"


def test_random_doubles_and_powers_of_ten():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    powers = np.array([float(f"1e{k}") for k in range(_csv.EXP_MIN - 1, _csv.EXP_MAX + 2)])
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    values = np.concatenate([bits, powers, below, above, -powers, -below])
    assert formatted(values) == reference(values)

    # only values outside the table or near a tie leave the array path
    slow = _csv._exact_fields(values, np.zeros((_csv.FLOAT_WIDTH + 1, len(values)), np.uint8))
    magnitude = np.abs(values[slow])
    inside = (magnitude >= 10.0**(_csv.EXP_MIN + 1)) & (magnitude < 10.0**(_csv.EXP_MAX - 1))
    assert all(near_tie(v) for v in values[slow][inside].tolist())
    assert len(slow) < 0.07 * len(values)


def test_integers_spell_as_printf():
    edges = [0, 1, 9, 2**31 - 1, 2**63, 2**64 - 1] + [10**k + d for k in range(1, 20) for d in (-1, 0)]
    values = np.array(edges, dtype=np.uint64)
    fields = np.ascontiguousarray(_csv._int_fields(values).T)
    assert [bytes(f[f != 0]) for f in fields] == [b"%d" % v for v in edges]


def bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


# Doubles that equal one another, or print alike, without sharing their bits;
# ties and near ties at the 17th digit; zeros, subnormals and non-finite values.
RUN_VALUES = [bits(v) for v in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                2.2250738585072009e-308, 1000000000000000.25,
                                np.nextafter(1000000000000000.25, 0.0), 0.1, -651.50920443348946)]
RUN_VALUES += [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]


def sweep_rows(period: int, first: int, row_bits: list[list[int]]):
    """format_batch's columns, and the records they stand for, of rows first onward of a sweep.

    Each cell has period rows, trials 0 .. period - 3 then 'mean' and 'stderr';
    row i sits at position first + i of the concatenated cells and has the
    four float64 values whose bits are row_bits[i]. Seeds depend only on a
    row's position in its cell, as in a sweep.
    """
    cells, positions = np.divmod(np.arange(first, first + len(row_bits)), period)
    trials = np.where(positions < period - 2, positions, positions - period)
    seeds = (positions.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ np.uint64(2**64 - 1)
    values = np.array(row_bits, np.uint64).view(np.float64)
    heads = [b"sc,%d," % (c + 1) for c in range(cells[-1] + 1)]
    records = [("sc", c + 1, t if t >= 0 else ("mean", "stderr")[t], *v, seed) for c, t, v, seed
               in zip(cells.tolist(), trials.tolist(), values.tolist(), seeds.tolist())]
    return (heads, cells, trials, values, seeds), records


def format_both_ways(columns, period: int) -> tuple[bytes, int]:
    """format_batch's bytes, equal with per-batch and per-sweep texts, and how often it joined."""
    joins, joined = [], _csv._joined
    cell, _ = sweep_rows(period, 0, [[0] * 4] * period)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_csv, "_joined", lambda *args: joins.append(1) or joined(*args))
        text = _csv.format_batch(*columns)
        assert _csv.format_batch(*columns, lambda: _csv.row_texts(cell[2], cell[4])) == text
    return text, len(joins) // 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), runs=st.sampled_from([_csv.SMALL_BATCH - 1, _csv.SMALL_BATCH]))
def test_runs_of_equal_values_spell_as_printf(data, runs):
    pool = data.draw(st.lists(st.sampled_from(RUN_VALUES) | st.integers(0, 2**64 - 1),
                              min_size=2, max_size=6, unique=True))
    period = data.draw(st.integers(3, 30))
    first = data.draw(st.integers(0, period - 1))
    # exactly `runs` row runs: a run ends at a cell's end, or where the next row
    # changes one column to another value of the pool
    rows = [[data.draw(st.sampled_from(pool)) for _ in range(4)]]
    for run in range(runs):
        if run:
            cell_start = (first + len(rows)) % period == 0
            column = data.draw(st.integers(0, 3))
            step = data.draw(st.integers(0 if cell_start else 1, len(pool) - 1))
            row = list(rows[-1])
            row[column] = pool[(pool.index(row[column]) + step) % len(pool)]
            rows.append(row)
        left_in_cell = period - (first + len(rows) - 1) % period
        rows += [rows[-1]] * (min(data.draw(st.integers(1, 9)), left_in_cell) - 1)

    columns, records = sweep_rows(period, first, rows)
    text, joins = format_both_ways(columns, period)
    assert text == reference_csv(records)[len(CSV_HEADER) + 1:]
    assert joins == (runs < _csv.SMALL_BATCH)


@pytest.mark.parametrize("rows", [_csv.SMALL_BATCH - 1, _csv.SMALL_BATCH])
@pytest.mark.parametrize("pair", [(bits(0.0), bits(-0.0)),
                                  (0x7FF8000000000000, 0x7FF8000000000001)],
                         ids=["signed_zeros", "nan_payloads"])
def test_rows_that_differ_only_in_bits_are_separate_runs(rows, pair):
    # one cell, each row one run: the batch joins below SMALL_BATCH runs only
    period = rows + 2
    columns, records = sweep_rows(period, 0, [[bits(1.5), pair[i % 2], 0, 0] for i in range(rows)])
    text, joins = format_both_ways(columns, period)
    assert text == reference_csv(records)[len(CSV_HEADER) + 1:]
    assert joins == (rows < _csv.SMALL_BATCH)


EMIT_CASES = {
    # 1,100-trial chunks: batches end inside chunks and span cells
    "multi_chunk": (SimConfig(trials=2600, elements_sweep=(4, 8), architectures=("sc", "gc:2"),
                              seed=5), 1100),
    "golden_direct": (GOLDEN_DIRECT_CONFIG, None),
    "pure_los": (SimConfig(trials=300, fading_model="pure_los", fading_phase_mode="common_los",
                           direct_link="clear", architectures=("sc", "gc:4"),
                           elements_sweep=(6, 8, 16, 64)), None),
    "largest_seed": (SimConfig(trials=70, elements_sweep=(4, 8), seed=2**64 - 1), None),
    # fewer than SMALL_BATCH rows: the batch joins
    "small": (SimConfig(trials=5, elements_sweep=(4,), architectures=("sc",), seed=0), None),
}


@pytest.mark.parametrize("case", list(EMIT_CASES))
def test_emit_matches_the_reference_writer(tmp_path, monkeypatch, case):
    cfg, chunk_trials = EMIT_CASES[case]
    if chunk_trials is not None:
        monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", chunk_trials * max(cfg.elements_sweep))
    with run_sweep(cfg) as records:
        expected = reference_csv(records)
        assert emit_csv(records, tmp_path / "spool.csv") == len(records)
    assert (tmp_path / "spool.csv").read_bytes() == expected


# pure line of sight repeats one value per cell and column; Rician values are all distinct
@pytest.mark.parametrize("fading_model", ["pure_los", "rician"])
def test_emit_memory_does_not_grow_with_trials(tmp_path, monkeypatch, fading_model):
    # 1,000 trials per chunk: 300,000 trials span 300 chunks
    monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 1000 * 4)
    _csv._tables()  # built once per process, outside the measurement

    def peak(trials):
        cfg = SimConfig(trials=trials, elements_sweep=(4,), architectures=("sc",),
                        fading_model=fading_model, fading_phase_mode="common_los")
        with run_sweep(cfg) as records:
            tracemalloc.start()
            try:
                emit_csv(records, tmp_path / f"{trials}.csv")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    few, many = peak(3000), peak(300_000)
    assert many < 1.2 * few
    assert many < 2**20
