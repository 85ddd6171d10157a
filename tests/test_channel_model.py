"""Free-space path loss, geometry and seeded channel generation."""

import logging
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from ris_ntn_sim import (
    SPEED_OF_LIGHT,
    FadingSpec,
    InvalidInput,
    LinkGeometry,
    SimConfig,
    build_geometry,
    fspl_amplitude,
    generate_channels,
    path_loss_db,
)
from ris_ntn_sim import channel_model
from ris_ntn_sim.channel_model import _restart, draw_fades
from ris_ntn_sim.sweep import _trial_seeds

from _oracles import per_trial_channels, per_trial_fades


def fspl_db_oracle(d, f):
    # direct evaluation of the standard formula, kept independent of the module
    return 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)


class TestFspl:
    def test_arguments_chosen_to_cancel(self):
        d = SPEED_OF_LIGHT / (4.0 * math.pi)
        assert fspl_amplitude(d, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_golden_600km_19ghz(self):
        loss = path_loss_db(600e3, 19e9)
        assert loss == pytest.approx(fspl_db_oracle(600e3, 19e9), rel=1e-12)
        assert abs(loss - 173.59) <= 0.01

    def test_golden_15km_18p7ghz(self):
        loss = path_loss_db(15e3, 18.7e9)
        assert loss == pytest.approx(fspl_db_oracle(15e3, 18.7e9), rel=1e-12)
        assert abs(loss - 141.4) <= 0.1

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(InvalidInput):
            fspl_amplitude(0.0, 1e9)
        with pytest.raises(InvalidInput):
            fspl_amplitude(1e3, -1.0)

    @pytest.mark.parametrize("distance_m, freq_hz, name", [
        (True, 18.7e9, "distance_m"), ("6e5", 18.7e9, "distance_m"), (None, 18.7e9, "distance_m"),
        (math.inf, 18.7e9, "distance_m"), (6e5, True, "freq_hz"), (6e5, "18.7e9", "freq_hz"),
        (6e5, math.nan, "freq_hz")])
    def test_inputs_must_be_finite_real_numbers(self, distance_m, freq_hz, name):
        for call in (fspl_amplitude, path_loss_db):
            with pytest.raises(InvalidInput, match=f"^{name} must be"):
                call(distance_m, freq_hz)

    def test_numpy_and_int_inputs_accepted(self):
        assert fspl_amplitude(np.float64(6e5), np.int64(18_700_000_000)) == fspl_amplitude(6e5, 18.7e9)
        assert fspl_amplitude(600_000, 18.7e9) == fspl_amplitude(6e5, 18.7e9)

    def test_strictly_decreasing_in_distance_and_frequency(self):
        distances = np.geomspace(1.0, 1e7, 25)
        amps = [fspl_amplitude(d, 12e9) for d in distances]
        assert all(a > b for a, b in zip(amps, amps[1:]))
        freqs = np.geomspace(1e8, 1e11, 25)
        amps = [fspl_amplitude(1e5, f) for f in freqs]
        assert all(a > b for a, b in zip(amps, amps[1:]))


class TestGeometry:
    def test_nadir_stack_600_15(self):
        geom = build_geometry(SimConfig())
        assert geom == LinkGeometry(600e3, 15e3, 18.7e9)
        assert geom.d_direct_m == 600e3
        assert geom.d_leo_ris_m == 585e3
        assert geom.d_ris_ut_m == 15e3  # platform height straight below the satellite

    def test_nadir_stack_500_20(self):
        geom = build_geometry(SimConfig(leo_altitude_m=500e3, haps_altitude_m=20e3))
        assert (geom.d_direct_m, geom.d_leo_ris_m, geom.d_ris_ut_m) == (500e3, 480e3, 20e3)

    def test_build_geometry_is_the_config_geometry(self):
        cfg = SimConfig(leo_altitude_m=500e3)
        assert build_geometry(cfg) is cfg.geometry

    def test_invalid_altitudes(self):
        with pytest.raises(InvalidInput, match="^need leo_altitude_m > haps_altitude_m > 0"):
            LinkGeometry(10e3, 15e3, 18.7e9)

    @pytest.mark.parametrize("carrier_hz", [0.0, -18.7e9])
    def test_non_positive_carrier(self, carrier_hz):
        with pytest.raises(InvalidInput, match="carrier"):
            LinkGeometry(600e3, 15e3, carrier_hz)

    @pytest.mark.parametrize("leo, haps, carrier_hz", [
        (math.inf, 15e3, 18.7e9), (math.nan, 15e3, 18.7e9), (600e3, math.inf, 18.7e9),
        (600e3, math.nan, 18.7e9), (600e3, 15e3, math.inf), (600e3, 15e3, math.nan),
        (600e3, 15e3, -math.inf)])
    def test_non_finite_fields_rejected(self, leo, haps, carrier_hz):
        with pytest.raises(InvalidInput, match="finite"):
            LinkGeometry(leo, haps, carrier_hz)

    @pytest.mark.parametrize("leo, haps, carrier_hz, name", [
        (True, 15e3, 18.7e9, "leo_altitude_m"), (600e3, True, 18.7e9, "haps_altitude_m"),
        (600e3, 15e3, True, "carrier_hz"), ("6e5", 15e3, 18.7e9, "leo_altitude_m"),
        (600e3, None, 18.7e9, "haps_altitude_m"), (600e3, 15e3, 18.7e9j, "carrier_hz")])
    def test_fields_must_be_real_numbers(self, leo, haps, carrier_hz, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be a real number"):
            LinkGeometry(leo, haps, carrier_hz)

    def test_fields_are_stored_as_python_floats(self):
        for geom in (LinkGeometry(600000, 15000, 18_700_000_000),
                     LinkGeometry(np.float64(600e3), np.int64(15000), np.float32(18.7e9))):
            fields = (geom.leo_altitude_m, geom.haps_altitude_m, geom.carrier_hz)
            assert all(type(value) is float for value in fields)
        assert LinkGeometry(600000, 15000, 18_700_000_000) == LinkGeometry(600e3, 15e3, 18.7e9)

    def test_out_of_band_carrier_warns(self, caplog):
        # the geometry is a pure value: building the config warns, once per config
        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim"):
            cfg = SimConfig(carrier_hz=10e9)
            build_geometry(cfg)
            LinkGeometry(600e3, 15e3, 10e9)
        assert [rec.message for rec in caplog.records] == [
            "carrier 1e+10 Hz is outside the Ka band 1.77e+10-1.97e+10 Hz"]

    def test_in_band_carrier_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim"):
            build_geometry(SimConfig())
        assert not caplog.records


class TestGenerateChannels:
    def setup_method(self):
        self.geom = build_geometry(SimConfig())

    def test_pure_los_magnitudes_are_uniform(self):
        ch = generate_channels(self.geom, FadingSpec("pure_los"), 4, 123)
        expected_h = fspl_amplitude(self.geom.d_leo_ris_m, self.geom.carrier_hz)
        expected_g = fspl_amplitude(self.geom.d_ris_ut_m, self.geom.carrier_hz)
        assert np.allclose(np.abs(ch.h), expected_h, rtol=1e-12)
        assert np.allclose(np.abs(ch.g), expected_g, rtol=1e-12)

    def test_huge_k_factor_collapses_to_pure_los(self):
        los = generate_channels(self.geom, FadingSpec("pure_los"), 8, 5)
        nearly = generate_channels(
            self.geom, FadingSpec(model="rician", k_factor_db=300.0), 8, 5
        )
        assert np.allclose(nearly.h, los.h, rtol=1e-6)
        assert np.allclose(nearly.g, los.g, rtol=1e-6)
        assert abs(nearly.h_d - los.h_d) <= 1e-6 * abs(los.h_d)

    def test_rician_fades_have_unit_mean_power(self):
        # Monte-Carlo normalization check on |fade|^2 extracted from h
        m = 10_000
        ch = generate_channels(self.geom, FadingSpec(model="rician", k_factor_db=10.0), m, 7)
        amp = fspl_amplitude(self.geom.d_leo_ris_m, self.geom.carrier_hz)
        power = np.abs(ch.h / amp) ** 2
        stderr = power.std(ddof=1) / math.sqrt(m)
        assert abs(power.mean() - 1.0) <= 3.0 * stderr

    def test_determinism_and_seed_sensitivity(self):
        a = generate_channels(self.geom, FadingSpec(), 16, 42)
        b = generate_channels(self.geom, FadingSpec(), 16, 42)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.g, b.g) and a.h_d == b.h_d
        c = generate_channels(self.geom, FadingSpec(), 16, 43)
        assert not np.array_equal(a.h, c.h)

    def test_determinism_under_threading(self):
        with ThreadPoolExecutor(max_workers=4) as pool:
            outs = list(pool.map(
                lambda _: generate_channels(self.geom, FadingSpec(), 12, 9), range(8)
            ))
        for out in outs[1:]:
            assert np.array_equal(out.h, outs[0].h)
            assert np.array_equal(out.g, outs[0].g)
            assert out.h_d == outs[0].h_d

    def test_growing_elements_extends_streams(self):
        small = generate_channels(self.geom, FadingSpec(), 8, 21)
        large = generate_channels(self.geom, FadingSpec(), 16, 21)
        assert np.array_equal(large.h[:8], small.h)
        assert np.array_equal(large.g[:8], small.g)
        assert large.h_d == small.h_d

    def test_pure_los_magnitude_ordering(self):
        # longer hop means smaller amplitude; direct path is the longest here
        ch = generate_channels(self.geom, FadingSpec("pure_los"), 4, 3)
        assert abs(ch.h_d) < np.abs(ch.g).min()
        assert abs(ch.h_d) < np.abs(ch.h).min()

    def test_antenna_gains_fold_into_amplitudes(self):
        base = generate_channels(self.geom, FadingSpec(), 4, 77)
        tx = generate_channels(self.geom, FadingSpec(), 4, 77, tx_gain_dbi=20.0)
        assert np.allclose(tx.h, 10.0 * base.h, rtol=1e-12)
        assert np.allclose(tx.g, base.g, rtol=1e-12)
        assert tx.h_d == pytest.approx(10.0 * base.h_d, rel=1e-12)
        ris = generate_channels(self.geom, FadingSpec(), 4, 77, ris_element_gain_dbi=20.0)
        assert np.allclose(ris.h, 10.0 * base.h, rtol=1e-12)
        assert np.allclose(ris.g, 10.0 * base.g, rtol=1e-12)
        assert ris.h_d == pytest.approx(base.h_d, rel=1e-12)
        rx = generate_channels(self.geom, FadingSpec(), 4, 77, rx_gain_dbi=20.0)
        assert np.allclose(rx.h, base.h, rtol=1e-12)
        assert np.allclose(rx.g, 10.0 * base.g, rtol=1e-12)
        assert rx.h_d == pytest.approx(10.0 * base.h_d, rel=1e-12)

    def test_blocked_direct_path_is_exactly_zero(self):
        blocked = generate_channels(self.geom, FadingSpec(), 4, 8, direct_blocked=True)
        clear = generate_channels(self.geom, FadingSpec(), 4, 8)
        assert blocked.h_d == 0j
        assert np.array_equal(blocked.h, clear.h)
        assert np.array_equal(blocked.g, clear.g)

    @pytest.mark.parametrize("blocked", [True, False])
    def test_numpy_bools_block_as_python_bools(self, blocked):
        got = generate_channels(self.geom, FadingSpec(), 4, 8, direct_blocked=np.bool_(blocked))
        want = generate_channels(self.geom, FadingSpec(), 4, 8, direct_blocked=blocked)
        assert (got.h_d == 0j) is blocked
        assert got.h_d == want.h_d
        assert np.array_equal(got.h, want.h) and np.array_equal(got.g, want.g)

    @pytest.mark.parametrize("elements, seed", [
        (0, 1), (-3, 1), (True, 1), (2.5, 1), ("8", 1), (None, 1),
        (4, 1.5), (4, True), (4, "3"), (4, None)])
    def test_element_count_and_seed_must_be_integers(self, elements, seed):
        # none is rounded: 1.5 would otherwise draw seed 1, and True one element
        with pytest.raises(InvalidInput):
            generate_channels(self.geom, FadingSpec(), elements, seed)

    @pytest.mark.parametrize("gains", [
        {"tx_gain_dbi": 7000.0},
        {"ris_element_gain_dbi": 1e300},
        {"rx_gain_dbi": float("nan")},
        {"tx_gain_dbi": float("inf")},
        {"rx_gain_dbi": float("-inf")},
        {"tx_gain_dbi": True},
        {"tx_gain_dbi": "3"},
        {"tx_gain_dbi": 6000.0, "ris_element_gain_dbi": 6000.0},
        {"ris_element_gain_dbi": 6000.0, "rx_gain_dbi": 6000.0},
        {"tx_gain_dbi": 6000.0, "rx_gain_dbi": 6000.0},
    ])
    def test_gains_must_be_finite_on_the_linear_scale(self, gains):
        # each gain alone, or a hop's product of two, that is not finite is refused before any draw
        with pytest.raises(InvalidInput):
            generate_channels(self.geom, FadingSpec(), 4, 1, **gains)

    def test_seed_is_taken_modulo_2_64(self):
        for seed, same in ((-1, 2**64 - 1), (5, 5 + 2**64), (np.int64(-1), np.uint64(2**64 - 1))):
            a = generate_channels(self.geom, FadingSpec(), 4, seed)
            b = generate_channels(self.geom, FadingSpec(), 4, same)
            assert a.h.tobytes() == b.h.tobytes() and a.g.tobytes() == b.g.tobytes()
            assert a.h_d == b.h_d


class TestRestart:
    @pytest.mark.parametrize("key", [(0, 0), (2**64 - 1, 2**64 - 1),
                                     (2**63 + 12345, 0)],
                             ids=["zero", "max", "stream"])
    @pytest.mark.parametrize("mid_buffer", [False, True])
    def test_restart_equals_a_fresh_generator(self, key, mid_buffer):
        generator = np.random.Generator(np.random.Philox(7))
        if mid_buffer:
            generator.integers(0, 2**32, dtype=np.uint32)  # keeps the other 32-bit half
            generator.bit_generator.random_raw()
            state = generator.bit_generator.state
            assert state["has_uint32"] == 1 and state["buffer_pos"] < 4
        # a key as a list of ints above 2^63 and 0 would pass through float64
        fresh = np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
        assert _restart(generator, key) is generator
        assert generator.random(5).tobytes() == fresh.random(5).tobytes()
        assert generator.standard_normal(5).tobytes() == fresh.standard_normal(5).tobytes()
        # the uint32 draws would take a 32-bit half left over from before the reset
        draws = [rng.integers(0, 2**32, size=3, dtype=np.uint32) for rng in (generator, fresh)]
        assert draws[0].tolist() == draws[1].tolist()


class TestDrawFades:
    GAINS = {"tx_gain_dbi": 3.3, "ris_element_gain_dbi": 0.5, "rx_gain_dbi": -1.7}

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize("elements", [1, 8, 63])
    @pytest.mark.parametrize("direct_blocked", [True, False])
    @pytest.mark.parametrize("model", ["pure_los", "rician"])
    def test_every_trial_equals_the_per_trial_reference(self, model, direct_blocked,
                                                        elements, chunk):
        geom = build_geometry(SimConfig())
        fading = FadingSpec(model=model)
        seeds = _trial_seeds(17, np.arange(2**31 - chunk, 2**31))
        fades = draw_fades(fading, elements, seeds)
        assert fades.shape == (chunk, 1 + 2 * elements, 2)
        for i, seed in enumerate(seeds.tolist()):
            ref_fades = per_trial_fades(fading, 1 + 2 * elements, seed)
            assert fades[i].tobytes() == ref_fades.tobytes()
            ref = per_trial_channels(geom, fading, elements, seed,
                                     direct_blocked=direct_blocked, **self.GAINS)
            one = generate_channels(geom, fading, elements, seed,
                                    direct_blocked=direct_blocked, **self.GAINS)
            assert one.h.tobytes() == ref.h.tobytes() and one.g.tobytes() == ref.g.tobytes()
            assert np.array([one.h_d]).tobytes() == np.array([ref.h_d]).tobytes()

    def test_pure_los_fades_are_one_and_reset_no_stream(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a pure line-of-sight draw reset a Philox stream")

        monkeypatch.setattr(channel_model, "_restart", refuse)
        fades = draw_fades(FadingSpec("pure_los"), 3, [1, 2])
        assert fades.dtype == np.float64
        assert fades.tolist() == [[[1.0, 0.0]] * 7] * 2

    def test_threads_drawing_at_once_get_the_serial_fades(self):
        # each thread resets its own generator, so draws at once never share a stream
        fading = FadingSpec()
        seed_lists = [_trial_seeds(run_seed, np.arange(32)) for run_seed in range(3, 7)]
        serial = [draw_fades(fading, 40, seeds).tobytes() for seeds in seed_lists]
        barrier = threading.Barrier(len(seed_lists), timeout=30)

        def draw(seeds):
            barrier.wait()
            return [draw_fades(fading, 40, seeds).tobytes() for _ in range(10)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between a few trials' resets
        try:
            with ThreadPoolExecutor(max_workers=len(seed_lists)) as pool:
                drawn = list(pool.map(draw, seed_lists, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(serial, drawn):
            assert got == [want] * 10

    def test_each_rician_draw_makes_one_generator(self, monkeypatch):
        made, philox = [], np.random.Philox

        def counting(*args):
            made.append(args)
            return philox(*args)

        monkeypatch.setattr(np.random, "Philox", counting)
        for seed in range(3):
            draw_fades(FadingSpec(), 4, [seed])
        assert len(made) == 3

    @pytest.mark.parametrize("model", ["pure_los", "rician"])
    def test_element_count_must_be_positive(self, model):
        with pytest.raises(InvalidInput):
            draw_fades(FadingSpec(model=model), 0, [1])

    def test_rician_fades_have_unit_mean_power_and_a_real_line_of_sight_mean(self):
        # E|f|^2 = nu^2 + 2 sigma^2 = 1 and E[f] = nu: the line-of-sight term is real
        fades = draw_fades(FadingSpec(k_factor_db=3.0), 20_000, [5])[0].view(np.complex128)[:, 0]
        power = np.abs(fades) ** 2
        assert abs(power.mean() - 1.0) <= 4.0 * power.std(ddof=1) / math.sqrt(power.size)
        k = 10.0 ** 0.3
        assert abs(fades.mean() - math.sqrt(k / (k + 1.0))) <= 4.0 / math.sqrt(2 * (k + 1) * fades.size)


class TestFadingSpec:
    def test_rejects_unknown_model_and_non_finite_k(self):
        with pytest.raises(ValueError):
            FadingSpec(model="rayleigh")
        with pytest.raises(ValueError):
            FadingSpec(k_factor_db=float("inf"))

    @pytest.mark.parametrize("value, stored", [
        (True, None), ("10", None), (None, None), (1 + 0j, None), (Decimal("3"), None),
        (10**400, None), (float("-inf"), None), (float("nan"), None),
        (4000.0, None), (3090.0, None), (10**300, None),  # 10 ** (k / 10) overflows
        (np.float32(1.5), 1.5), (np.int64(3), 3.0), (Fraction(1, 2), 0.5), (3, 3.0),
        (3000.0, 3000.0), (-4000.0, -4000.0)])
    def test_k_factor_is_a_finite_python_float(self, value, stored):
        if stored is None:
            with pytest.raises(ValueError, match="^k_factor_db must be") as exc:
                FadingSpec("rician", value)
            assert type(exc.value) is InvalidInput
        else:
            k = FadingSpec("rician", value).k_factor_db
            assert type(k) is float and k == stored
