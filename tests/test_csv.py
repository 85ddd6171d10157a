"""The batched CSV formatter: exact '%.17g' floats from numpy, and emit_csv's bytes."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ris_ntn_sim import SimConfig, emit_csv, run_sweep
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


EMIT_CASES = {
    # 1,100-trial chunks: runs longer than a batch are split, short ones joined
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
        assert emit_csv(records, tmp_path / "spool.csv", cfg) == len(records)
    assert (tmp_path / "spool.csv").read_bytes() == expected


def test_emit_memory_does_not_grow_with_trials(tmp_path, monkeypatch):
    # 1,000 trials per chunk: 300,000 trials span 300 chunks
    monkeypatch.setattr(sweep, "CHUNK_ELEMENTS", 1000 * 4)
    _csv._tables()  # built once per process, outside the measurement

    def peak(trials):
        cfg = SimConfig(trials=trials, elements_sweep=(4,), architectures=("sc",),
                        fading_model="pure_los", fading_phase_mode="common_los")
        with run_sweep(cfg) as records:
            tracemalloc.start()
            try:
                emit_csv(records, tmp_path / f"{trials}.csv", cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    few, many = peak(3000), peak(300_000)
    assert many < 1.2 * few
    assert many < 2**20
