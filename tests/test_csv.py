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


def formatted(values: np.ndarray, array_path: bool = True) -> bytes:
    """The formatter's bytes for values, each followed by its comma."""
    fields = np.ascontiguousarray(_csv._float_fields(values, array_path).T)
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
    for array_path in (True, False):
        assert formatted(np.array([value]), array_path) == ("%.17g," % value).encode()


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


@pytest.mark.parametrize("array_path", [True, False], ids=["array", "per_value"])
def test_integers_spell_as_printf(array_path):
    edges = [0, 1, 9, 2**31 - 1, 2**63, 2**64 - 1] + [10**k + d for k in range(1, 20) for d in (-1, 0)]
    values = np.array(edges, dtype=np.uint64)
    fields = np.ascontiguousarray(_csv._int_fields(values, array_path).T)
    assert [bytes(f[f != 0]) for f in fields] == [b"%d" % v for v in edges]


def bits(value: float) -> int:
    return int(np.float64(value).view(np.uint64))


# Doubles that equal one another, or print alike, without sharing their bits;
# ties and near ties at the 17th digit; zeros, subnormals and non-finite values.
RUN_VALUES = [bits(v) for v in (0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                2.2250738585072009e-308, 1000000000000000.25,
                                np.nextafter(1000000000000000.25, 0.0), 0.1, -651.50920443348946)]
RUN_VALUES += [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), array_path=st.booleans())
def test_runs_of_equal_values_spell_as_printf(data, array_path):
    pool = data.draw(st.lists(st.sampled_from(RUN_VALUES) | st.integers(0, 2**64 - 1),
                              min_size=2, max_size=8, unique=True))
    # runs of one value each, neighbours distinct: as many spelled values as runs
    spelled = 4 * _csv.SMALL_BATCH
    runs = data.draw(st.integers(spelled, 2 * spelled) if array_path else st.integers(1, spelled - 4))
    picks = data.draw(st.lists(st.integers(1, len(pool) - 1), min_size=runs, max_size=runs))
    lengths = data.draw(st.lists(st.integers(1, 9), min_size=runs, max_size=runs))
    index = np.cumsum(picks) % len(pool)
    x = np.repeat(np.array(pool, np.uint64)[index], lengths)
    # up to three values from the start complete the last row; format_batch reads
    # the values column by column, so the runs stay in that order
    x = np.resize(x, 4 * -(-len(x) // 4)).view(np.float64)
    values = np.ascontiguousarray(x.reshape(4, -1).T)
    rows = len(values)
    seeds = np.arange(rows, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    columns = ([b"sc,8,"], np.zeros(rows, np.int64), np.append(np.arange(rows - 1), -2),
               values, seeds)
    records = [("sc", 8, t, *v, seed) for t, v, seed in
               zip([*range(rows - 1), "mean"], values.tolist(), seeds.tolist())]

    paths, float_fields = [], _csv._float_fields
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_csv, "_float_fields",
                      lambda v, path: paths.append(path) or float_fields(v, path))
        assert _csv.format_batch(*columns) == reference_csv(records)[len(CSV_HEADER) + 1:]
    assert paths == [array_path]


EMIT_CASES = {
    # 1,100-trial chunks: batches end inside chunks and span cells
    "multi_chunk": (SimConfig(trials=2600, elements_sweep=(4, 8), architectures=("sc", "gc:2"),
                              seed=5), 1100),
    "golden_direct": (GOLDEN_DIRECT_CONFIG, None),
    "pure_los": (SimConfig(trials=300, fading_model="pure_los", fading_phase_mode="common_los",
                           direct_link="clear", architectures=("sc", "gc:4"),
                           elements_sweep=(6, 8, 16, 64)), None),
    "largest_seed": (SimConfig(trials=70, elements_sweep=(4, 8), seed=2**64 - 1), None),
    # fewer than SMALL_BATCH rows: every value is formatted on its own
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
