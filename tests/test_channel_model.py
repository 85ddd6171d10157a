"""Free-space path loss, geometry and seeded channel generation."""

import logging
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ris_ntn_sim import (
    SPEED_OF_LIGHT,
    FadingSpec,
    InvalidInput,
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
        assert geom.d_direct_m == 600e3
        assert geom.d_leo_ris_m == 585e3
        assert geom.d_ris_ut_m == 15e3  # platform height straight below the satellite

    def test_nadir_stack_500_20(self):
        geom = build_geometry(SimConfig(leo_altitude_m=500e3, haps_altitude_m=20e3))
        assert (geom.d_direct_m, geom.d_leo_ris_m, geom.d_ris_ut_m) == (500e3, 480e3, 20e3)

    def test_invalid_altitudes(self):
        class Cfg:
            leo_altitude_m = 10e3
            haps_altitude_m = 15e3
            carrier_hz = 18.7e9

        with pytest.raises(InvalidInput):
            build_geometry(Cfg())

    def test_out_of_band_carrier_warns(self, caplog):
        class Cfg:
            leo_altitude_m = 600e3
            haps_altitude_m = 15e3
            carrier_hz = 10e9

        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim.channel_model"):
            build_geometry(Cfg())
        assert any("Ka band" in rec.message for rec in caplog.records)

    def test_in_band_carrier_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="ris_ntn_sim.channel_model"):
            build_geometry(SimConfig())
        assert not caplog.records


class TestGenerateChannels:
    def setup_method(self):
        self.geom = build_geometry(SimConfig())

    def test_pure_los_magnitudes_are_uniform(self):
        ch = generate_channels(self.geom, FadingSpec.pure_los(), 4, 123)
        expected_h = fspl_amplitude(self.geom.d_leo_ris_m, self.geom.carrier_hz)
        expected_g = fspl_amplitude(self.geom.d_ris_ut_m, self.geom.carrier_hz)
        assert np.allclose(np.abs(ch.h), expected_h, rtol=1e-12)
        assert np.allclose(np.abs(ch.g), expected_g, rtol=1e-12)

    def test_huge_k_factor_collapses_to_pure_los(self):
        los = generate_channels(self.geom, FadingSpec.pure_los(), 8, 5)
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
        ch = generate_channels(self.geom, FadingSpec.pure_los(), 4, 3)
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

    def test_element_count_must_be_positive(self):
        with pytest.raises(InvalidInput):
            generate_channels(self.geom, FadingSpec(), 0, 1)

    def test_seed_is_taken_modulo_2_64(self):
        for seed, same in ((-1, 2**64 - 1), (5, 5 + 2**64)):
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
        fades = draw_fades(FadingSpec.pure_los(), 3, [1, 2])
        assert fades.dtype == np.float64
        assert fades.tolist() == [[[1.0, 0.0]] * 7] * 2

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
