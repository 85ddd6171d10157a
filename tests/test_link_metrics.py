"""SNR, rate and energy-efficiency arithmetic."""

import math

import numpy as np
import pytest

from ris_ntn_sim import InvalidInput, SimConfig, dbm_to_watts, link_columns

DEFAULT_CFG = SimConfig(tx_power_dbm=50.0, bandwidth_hz=2e7, noise_psd_dbm_hz=-170.0)


# the snr_db and rate_bps columns of link_columns
def snr_db(h_eff, rf):
    return link_columns(h_eff, rf)[..., 1]


def rate_bps(h_eff, rf):
    return link_columns(h_eff, rf)[..., 2]


class TestSnr:
    def test_db_arithmetic_identity(self):
        rf = SimConfig(tx_power_dbm=0.0, bandwidth_hz=1.0, noise_psd_dbm_hz=-174.0)
        assert snr_db(1.0, rf) == pytest.approx(174.0, abs=1e-9)

    def test_direct_path_only_default_budget(self):
        h_eff = 10.0 ** (-173.59 / 20.0)
        # dB-domain hand computation as the oracle
        expected = 50.0 + 20.0 * math.log10(h_eff) - (-170.0 + 10.0 * math.log10(2e7))
        got = snr_db(h_eff, DEFAULT_CFG)
        assert got == pytest.approx(expected, abs=1e-9)
        assert abs(got - (-26.58)) <= 0.05

    def test_zero_channel_gives_minus_infinity(self):
        assert snr_db(0.0, DEFAULT_CFG) == float("-inf")

    def test_noise_power(self):
        got = 10.0 * math.log10(DEFAULT_CFG.noise_power_w) + 30.0
        assert got == pytest.approx(-170.0 + 10.0 * math.log10(2e7), abs=1e-12)
        assert abs(got - (-96.99)) <= 0.01


class TestRate:
    def test_unity_snr_gives_one_bit_per_hz(self):
        rf = SimConfig(tx_power_dbm=30.0, bandwidth_hz=2e7, noise_psd_dbm_hz=-100.0)
        h_mag = math.sqrt(rf.noise_power_w / dbm_to_watts(rf.tx_power_dbm))
        assert snr_db(h_mag, rf) == pytest.approx(0.0, abs=1e-11)
        assert rate_bps(h_mag, rf) == pytest.approx(2e7, rel=1e-12)

    def test_zero_channel_gives_zero_rate(self):
        assert rate_bps(0.0, DEFAULT_CFG) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_independent_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        h_eff = complex(rng.standard_normal(), rng.standard_normal()) * 1e-7
        # spreadsheet-style recomputation from first principles
        p_w = 10.0 ** ((DEFAULT_CFG.tx_power_dbm - 30.0) / 10.0)
        n_w = 10.0 ** ((DEFAULT_CFG.noise_psd_dbm_hz - 30.0) / 10.0) * DEFAULT_CFG.bandwidth_hz
        snr = p_w * abs(h_eff) ** 2 / n_w
        expected = DEFAULT_CFG.bandwidth_hz * math.log2(1.0 + snr)
        assert rate_bps(h_eff, DEFAULT_CFG) == pytest.approx(expected, rel=1e-9)


class TestEnergyEfficiency:
    def test_default_power_divides_by_100_watts(self):
        _, _, rate, ee = link_columns(3e-8, DEFAULT_CFG)
        assert ee == pytest.approx(rate / 100.0, rel=1e-15)

    def test_zero_rate(self):
        assert link_columns(0.0, DEFAULT_CFG)[3] == 0.0

    def test_static_power_term(self):
        rf = SimConfig(static_power_w=100.0)
        _, _, rate, ee = link_columns(3e-8, rf)
        assert ee == pytest.approx(rate / 200.0, rel=1e-12)

    def test_report_ties_ee_to_rate_exactly(self):
        _, _, rate, ee = link_columns(3e-8, DEFAULT_CFG)
        assert ee == rate / dbm_to_watts(50.0)

    def test_ordering_follows_channel_magnitude(self):
        mags = np.linspace(0.0, 1e-6, 30)
        ees = link_columns(mags, DEFAULT_CFG)[:, 3]
        assert all(a < b for a, b in zip(ees, ees[1:]))


class TestLinkColumns:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 50), (2, 1, 4)])
    def test_equals_the_column_formulas_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape))
        h_eff = 10.0 ** rng.uniform(-12.0, -4.0, shape)
        h_eff.flat[0] = 0.0
        rf = SimConfig(tx_power_dbm=43.0, bandwidth_hz=3e7, noise_psd_dbm_hz=-171.5,
                       static_power_w=2.5)
        p_w = dbm_to_watts(rf.tx_power_dbm)
        snr = p_w * np.abs(h_eff) ** 2 / dbm_to_watts(-171.5 + 10.0 * math.log10(3e7))
        rate = 3e7 * np.log1p(snr) / math.log(2.0)
        with np.errstate(divide="ignore"):
            expected = [np.abs(h_eff), 10.0 * np.log10(snr), rate, rate / (p_w + 2.5)]
        got = link_columns(h_eff, rf)
        assert got.shape == (*shape, 4)
        for column, want in enumerate(expected):
            np.testing.assert_array_equal(got[..., column], want)

    def test_numpy_bandwidth_and_static_power_accepted(self):
        rf = SimConfig(tx_power_dbm=43.0, bandwidth_hz=np.float32(3e7), noise_psd_dbm_hz=-171.5,
                       static_power_w=np.int64(2))
        cfg = SimConfig(tx_power_dbm=43.0, bandwidth_hz=float(np.float32(3e7)),
                        noise_psd_dbm_hz=-171.5, static_power_w=2.0)
        np.testing.assert_array_equal(link_columns(3e-8, rf), link_columns(3e-8, cfg))

    def test_complex_gains_use_their_magnitude(self):
        h_eff = np.array([5e-8j, -5e-8])
        got = link_columns(h_eff, DEFAULT_CFG)
        np.testing.assert_array_equal(got[0], got[1])

    @pytest.mark.parametrize("h_eff, plain", [
        (np.array([2**40]), [float(2**40)]),
        (np.array([2**62], dtype=np.uint64), [float(2**62)]),
        (np.int8(-128), -128.0),
        (np.float32(1e20), float(np.float32(1e20))),
        (np.float16(3.0), 3.0),
        (np.float32(1e-30), float(np.float32(1e-30))),
        (np.complex64(3e-8 - 4e-8j), complex(np.complex64(3e-8 - 4e-8j))),
    ], ids=["int64", "uint64", "int8", "float32-large", "float16", "float32-small", "complex64"])
    def test_computes_in_float64_whatever_the_dtype(self, h_eff, plain):
        # squared in its own dtype, the gain would overflow, wrap or underflow
        got, want = link_columns(h_eff, DEFAULT_CFG), link_columns(plain, DEFAULT_CFG)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


class TestUnits:
    @pytest.mark.parametrize("p_dbm", [-120.0, -30.0, 0.0, 17.5, 50.0])
    def test_dbm_watt_round_trip(self, p_dbm):
        back = 10.0 * math.log10(dbm_to_watts(p_dbm)) + 30.0
        assert back == pytest.approx(p_dbm, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("p_dbm", [3400.0, float("nan"), float("inf"), float("-inf"), True, "30"])
    def test_levels_without_finite_watts_rejected(self, p_dbm):
        # 3400 dBm is 10^337 W, beyond the float range
        with pytest.raises(InvalidInput, match="^p_dbm must be"):
            dbm_to_watts(p_dbm)

    def test_config_powers_are_the_db_formulas(self):
        # the watts link_columns reads are the dB formulas of the column test, to the bit
        cfg = SimConfig(tx_power_dbm=43.0, bandwidth_hz=3e7, noise_psd_dbm_hz=-171.5)
        assert cfg.tx_power_w == dbm_to_watts(43.0)
        assert cfg.noise_power_w == dbm_to_watts(-171.5 + 10.0 * math.log10(3e7))

    def test_numpy_levels_accepted(self):
        assert dbm_to_watts(np.float64(17.5)) == dbm_to_watts(17.5)
        assert dbm_to_watts(np.int64(30)) == 1.0
