"""Config parsing: defaults, overrides, and typo rejection."""

import numpy as np
import pytest

from ris_ntn_sim import SimConfig, build_geometry, format_config, parse_config
from ris_ntn_sim.channel_model import hop_magnitudes
from ris_ntn_sim.config import (
    BadValue,
    ConfigError,
    ConstraintError,
    MalformedLine,
    UnknownKey,
)


class TestDefaults:
    def test_empty_document_resolves_to_defaults(self):
        cfg = parse_config("")
        assert cfg == SimConfig()
        assert 32 in cfg.elements_sweep
        assert cfg.architectures == ("sc", "fc")
        assert cfg.trials == 1000
        assert cfg.seed == 42
        assert cfg.tx_power_dbm == 50.0
        assert cfg.bandwidth_hz == 2e7
        assert cfg.noise_psd_dbm_hz == -170.0
        assert cfg.haps_altitude_m == 15e3

    def test_explicit_values_equal_to_defaults(self):
        cfg = parse_config("tx_power_dbm = 50\nhaps_altitude_m = 15000")
        assert cfg == SimConfig()

    def test_overrides_applied(self):
        cfg = parse_config("trials = 25\nseed = 7\nelements_sweep = 4, 8\narchitectures = sc, gc:2")
        assert cfg.trials == 25
        assert cfg.seed == 7
        assert cfg.elements_sweep == (4, 8)
        assert cfg.architectures == ("sc", "gc:2")
        assert cfg.carrier_hz == 18.7e9  # untouched keys keep defaults


class TestSyntax:
    def test_comments_and_blank_lines(self):
        cfg = parse_config("# run setup\n\ntrials = 5  # small for CI\n   \n# done\n")
        assert cfg.trials == 5

    def test_unknown_key_is_a_hard_error(self):
        with pytest.raises(UnknownKey) as err:
            parse_config("tx_powr_dbm = 50")
        assert err.value.key == "tx_powr_dbm"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConstraintError):
            parse_config("trials = 5\ntrials = 6")

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedLine):
            parse_config("trials")
        with pytest.raises(MalformedLine):
            parse_config("= 5")


class TestTypes:
    def test_bad_integer(self):
        with pytest.raises(BadValue) as err:
            parse_config("trials = many")
        assert err.value.key == "trials"
        with pytest.raises(BadValue):
            parse_config("trials = 1.5")

    def test_bad_float(self):
        with pytest.raises(BadValue):
            parse_config("carrier_hz = fast")

    def test_bad_list(self):
        with pytest.raises(BadValue):
            parse_config("elements_sweep = 8,,16")
        with pytest.raises(BadValue):
            parse_config("elements_sweep = 8, sixteen")

    def test_scientific_notation_accepted(self):
        cfg = parse_config("bandwidth_hz = 20e6\nleo_altitude_m = 6.0e5")
        assert cfg.bandwidth_hz == 2e7
        assert cfg.leo_altitude_m == 600e3


class TestConstraints:
    @pytest.mark.parametrize("text", [
        "trials = 0",
        "trials = 2147483648",
        "elements_sweep = 8, 8",
        "elements_sweep = 0",
        "elements_sweep = 70000",
        "elements_sweep = 4097",
        "architectures = sc, sc",
        "architectures = xx",
        "architectures = gc:0",
        "architectures = gc:04",
        "architectures = gc: 4",
        "architectures = gc:+4",
        "architectures = gc:4_0",
        "architectures = gc:4, gc:04",
        "fading_model = rayleigh",
        "fading_phase_mode = sideways",
        "direct_link = maybe",
        "bandwidth_hz = -1",
        "haps_altitude_m = 700000",
        "static_power_w = -5",
        "rician_k_db = inf",
        "seed = -1",
        "seed = 18446744073709551616",
    ])
    def test_rejected(self, text):
        with pytest.raises(ConstraintError):
            parse_config(text)

    @pytest.mark.parametrize("key, value", [
        ("tx_gain_dbi", 7000.0),
        ("ris_element_gain_dbi", 6200.0),
        ("rx_gain_dbi", 1e300),
        ("rician_k_db", 4000.0),
        ("rician_k_db", 3090.0),
    ])
    def test_decibel_values_whose_linear_value_overflows_are_rejected(self, key, value):
        with pytest.raises(ConstraintError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key
        assert "overflows" in err.value.reason

    @pytest.mark.parametrize("key, value", [
        ("tx_gain_dbi", 6000.0),
        ("rx_gain_dbi", -7000.0),
        ("rician_k_db", 3000.0),
        ("rician_k_db", -4000.0),
    ])
    def test_large_representable_decibel_values_accepted(self, key, value):
        assert getattr(SimConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("a, b", [
        ("tx_gain_dbi", "ris_element_gain_dbi"),
        ("ris_element_gain_dbi", "rx_gain_dbi"),
        ("tx_gain_dbi", "rx_gain_dbi"),
    ])
    def test_hop_gain_products_that_overflow_are_rejected(self, a, b):
        # each gain is representable on its own; their product is not
        with pytest.raises(ConstraintError) as err:
            SimConfig(**{a: 6000.0, b: 6000.0})
        assert err.value.key == a
        assert b in err.value.reason and "overflows" in err.value.reason

    @pytest.mark.parametrize("key, value", [
        ("tx_power_dbm", 3300.0),
        ("tx_power_dbm", -3300.0),
        ("noise_psd_dbm_hz", 3300.0),
        ("noise_psd_dbm_hz", -3300.0),
    ])
    def test_powers_whose_watts_overflow_or_vanish_are_rejected(self, key, value):
        with pytest.raises(ConstraintError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key

    def test_large_representable_transmit_power_accepted(self):
        assert SimConfig(tx_power_dbm=3000.0).tx_power_dbm == 3000.0

    def test_largest_representable_hop_gain_products_accepted(self):
        # 10^(3080/20) squared is about 1e308, just below the largest float
        cfg = SimConfig(tx_gain_dbi=3080.0, ris_element_gain_dbi=3080.0, rx_gain_dbi=3080.0)
        assert cfg.tx_gain_dbi == 3080.0
        with pytest.raises(ConstraintError):
            SimConfig(tx_gain_dbi=3080.0, ris_element_gain_dbi=3090.0)

    def test_seeds_are_the_uint64_range(self):
        # the sweep draws from seed mod 2^64: -1 and 2^64 + 42 would alias 2^64 - 1 and 42
        assert parse_config("seed = 0").seed == 0
        assert parse_config("seed = 18446744073709551615").seed == 2**64 - 1
        for seed in (-1, 2**64, 2**64 + 42):
            with pytest.raises(ConstraintError, match="'seed'"):
                SimConfig(seed=seed)

    def test_largest_element_count_accepted(self):
        assert parse_config("elements_sweep = 4096").elements_sweep == (4096,)

    @pytest.mark.parametrize("overrides", [
        {"trials": True},
        {"seed": False},
        {"elements_sweep": (8, True)},
        {"elements_sweep": (8.5,)},
        {"elements_sweep": ("32",)},
        {"trials": 5.0},
        {"seed": "7"},
        {"trials": np.bool_(True)},
    ])
    def test_non_integers_rejected_for_integer_keys(self, overrides):
        with pytest.raises(ConstraintError):
            SimConfig(**overrides)

    @pytest.mark.parametrize("key, value", [
        ("trials", np.int64(5)),
        ("seed", np.int64(5)),
        ("seed", np.uint32(7)),
        ("elements_sweep", (np.int64(8),)),
    ])
    def test_numpy_integers_accepted_as_python_ints(self, key, value):
        cfg = SimConfig(**{key: value})
        got = getattr(cfg, key)
        assert got == value
        assert all(type(v) is int for v in (got if isinstance(got, tuple) else (got,)))

    def test_gc_divisibility_is_not_a_config_error(self):
        # mismatched (gc:U, M) pairs are skipped at sweep time, not rejected here
        cfg = parse_config("architectures = gc:3\nelements_sweep = 8")
        assert cfg.architectures == ("gc:3",)


class TestLinkBudget:
    @pytest.mark.parametrize("direct_link", ["blocked", "clear"])
    def test_is_the_hop_magnitudes_of_the_config(self, direct_link):
        cfg = SimConfig(tx_gain_dbi=3.3, ris_element_gain_dbi=0.5, rx_gain_dbi=-1.7,
                        direct_link=direct_link)
        geom = build_geometry(cfg)
        expected = hop_magnitudes(geom, tx_gain_dbi=3.3, ris_element_gain_dbi=0.5,
                                  rx_gain_dbi=-1.7, direct_blocked=direct_link == "blocked")
        assert cfg.link_budget(geom) == expected
        assert (expected[0] == 0.0) == (direct_link == "blocked")

    def test_checks_the_largest_swept_element_count(self):
        # 2838 dBi is just inside the headroom at 4 elements, not at 4096
        inside = SimConfig(tx_gain_dbi=2838.0, elements_sweep=(4,))
        inside.link_budget(build_geometry(inside))
        outside = SimConfig(tx_gain_dbi=2838.0, elements_sweep=(4096, 4))
        with pytest.raises(ConfigError, match="at \\[4, 4096\\] elements"):
            outside.link_budget(build_geometry(outside))

    def test_checks_the_smallest_swept_element_count(self):
        # -1266 dBi is just inside the headroom at 4 elements, not at 1
        inside = SimConfig(ris_element_gain_dbi=-1266.0, elements_sweep=(4,))
        inside.link_budget(build_geometry(inside))
        outside = SimConfig(ris_element_gain_dbi=-1266.0, elements_sweep=(4, 1))
        with pytest.raises(ConfigError, match="at \\[1, 4\\] elements"):
            outside.link_budget(build_geometry(outside))


class TestEcho:
    def test_format_parse_round_trip(self):
        cfg = SimConfig(trials=12, seed=9, architectures=("fc", "gc:4"),
                        elements_sweep=(4, 8, 12), rician_k_db=6.5,
                        direct_link="clear")
        assert parse_config(format_config(cfg)) == cfg

    def test_echo_mentions_every_field(self):
        text = format_config(SimConfig())
        for key in ("carrier_hz", "trials", "seed", "elements_sweep",
                    "architectures", "direct_link", "static_power_w"):
            assert f"{key} = " in text
