"""SNR, rate and energy-efficiency arithmetic."""

import math

import numpy as np
import pytest

from ris_ntn_sim import (
    InvalidInput,
    LinkReport,
    RfConfig,
    dbm_to_watts,
    energy_efficiency,
    link_report,
    noise_power_dbm,
    rate_bps,
    snr_db,
    snr_linear,
    watts_to_dbm,
)

DEFAULT_RF = RfConfig(tx_power_dbm=50.0, bandwidth_hz=2e7, noise_psd_dbm_hz=-170.0)


class TestSnr:
    def test_db_arithmetic_identity(self):
        rf = RfConfig(tx_power_dbm=0.0, bandwidth_hz=1.0, noise_psd_dbm_hz=-174.0)
        assert snr_db(1.0, rf) == pytest.approx(174.0, abs=1e-9)

    def test_direct_path_only_default_budget(self):
        h_eff = 10.0 ** (-173.59 / 20.0)
        # dB-domain hand computation as the oracle
        expected = 50.0 + 20.0 * math.log10(h_eff) - (-170.0 + 10.0 * math.log10(2e7))
        got = snr_db(h_eff, DEFAULT_RF)
        assert got == pytest.approx(expected, abs=1e-9)
        assert abs(got - (-26.58)) <= 0.05

    def test_zero_channel_gives_minus_infinity(self):
        assert snr_db(0.0, DEFAULT_RF) == float("-inf")

    def test_noise_power(self):
        got = noise_power_dbm(DEFAULT_RF)
        assert got == pytest.approx(-170.0 + 10.0 * math.log10(2e7), abs=1e-12)
        assert abs(got - (-96.99)) <= 0.01


class TestRate:
    def test_unity_snr_gives_one_bit_per_hz(self):
        rf = RfConfig(tx_power_dbm=30.0, bandwidth_hz=2e7, noise_psd_dbm_hz=-100.0)
        from ris_ntn_sim import noise_power_watts
        h_mag = math.sqrt(noise_power_watts(rf) / dbm_to_watts(rf.tx_power_dbm))
        assert snr_linear(h_mag, rf) == pytest.approx(1.0, rel=1e-12)
        assert rate_bps(h_mag, rf) == pytest.approx(2e7, rel=1e-12)

    def test_zero_channel_gives_zero_rate(self):
        assert rate_bps(0.0, DEFAULT_RF) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        h_eff = complex(rng.standard_normal(), rng.standard_normal()) * 1e-7
        # spreadsheet-style recomputation from first principles
        p_w = 10.0 ** ((DEFAULT_RF.tx_power_dbm - 30.0) / 10.0)
        n_w = 10.0 ** ((DEFAULT_RF.noise_psd_dbm_hz - 30.0) / 10.0) * DEFAULT_RF.bandwidth_hz
        snr = p_w * abs(h_eff) ** 2 / n_w
        expected = DEFAULT_RF.bandwidth_hz * math.log2(1.0 + snr)
        assert rate_bps(h_eff, DEFAULT_RF) == pytest.approx(expected, rel=1e-9)


class TestEnergyEfficiency:
    def test_default_power_divides_by_100_watts(self):
        assert energy_efficiency(2e7, 50.0) == pytest.approx(2e5, rel=1e-15)

    def test_zero_rate(self):
        assert energy_efficiency(0.0, 50.0) == 0.0

    def test_non_positive_power_rejected(self):
        with pytest.raises(InvalidInput):
            energy_efficiency(1.0, float("-inf"))
        with pytest.raises(InvalidInput):
            watts_to_dbm(0.0)

    def test_static_power_term(self):
        assert energy_efficiency(2e7, 50.0, static_power_w=100.0) == pytest.approx(1e5, rel=1e-12)

    def test_report_ties_ee_to_rate_exactly(self):
        report = link_report(3e-8, DEFAULT_RF)
        assert isinstance(report, LinkReport)
        assert report.ee_bits_per_joule == report.rate_bps / dbm_to_watts(50.0)

    def test_ordering_follows_channel_magnitude(self):
        mags = np.linspace(0.0, 1e-6, 30)
        ees = [link_report(m, DEFAULT_RF).ee_bits_per_joule for m in mags]
        assert all(a < b for a, b in zip(ees, ees[1:]))


class TestUnits:
    @pytest.mark.parametrize("p_dbm", [-120.0, -30.0, 0.0, 17.5, 50.0])
    def test_dbm_watt_round_trip(self, p_dbm):
        assert watts_to_dbm(dbm_to_watts(p_dbm)) == pytest.approx(p_dbm, rel=1e-12, abs=1e-12)

    def test_rf_config_validation(self):
        with pytest.raises(ValueError):
            RfConfig(50.0, 0.0, -170.0)
        with pytest.raises(ValueError):
            RfConfig(float("nan"), 2e7, -170.0)
        with pytest.raises(ValueError):
            RfConfig(50.0, 2e7, -170.0, static_power_w=-1.0)
