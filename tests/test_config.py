"""Config parsing: defaults, overrides, and typo rejection."""

import math
import sys
from dataclasses import FrozenInstanceError, fields, replace
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from ris_ntn_sim import (Architecture, ConfigError, InvalidInput, SimConfig, build_geometry, dbm_to_watts,
                         emit_csv, format_config, link_columns, parse_config, run_sweep)
from ris_ntn_sim.config import FADE_HEADROOM, LINK_BUDGET_KEYS, MAX_TRIALS, hop_magnitudes


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
        with pytest.raises(ConfigError) as err:
            parse_config("tx_powr_dbm = 50")
        assert err.value.key == "tx_powr_dbm"
        assert str(err.value) == "unknown config key 'tx_powr_dbm'"

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("trials = 5\ntrials = 6")
        assert err.value.key == "trials"
        assert str(err.value) == "key 'trials': duplicate key"

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config("trials")
        assert err.value.key is None
        assert str(err.value) == "line 1: expected 'key = value', got 'trials'"
        with pytest.raises(ConfigError) as err:
            parse_config("# header\n = 5  # no key")
        assert err.value.key is None
        assert str(err.value) == "line 2: expected 'key = value', got '= 5  # no key'"


class TestTypes:
    def test_bad_integer(self):
        with pytest.raises(ConfigError) as err:
            parse_config("trials = many")
        assert err.value.key == "trials"
        assert str(err.value) == "key 'trials': expected integer, got 'many'"
        with pytest.raises(ConfigError, match="expected integer"):
            parse_config("trials = 1.5")

    def test_bad_float(self):
        with pytest.raises(ConfigError) as err:
            parse_config("carrier_hz = fast")
        assert err.value.key == "carrier_hz"
        assert str(err.value) == "key 'carrier_hz': expected number, got 'fast'"

    def test_bad_list(self):
        with pytest.raises(ConfigError) as err:
            parse_config("elements_sweep = 8,,16")
        assert err.value.key == "elements_sweep"
        assert str(err.value) == ("key 'elements_sweep': expected comma-separated integers, "
                                  "got '8,,16'")
        with pytest.raises(ConfigError, match="expected integer, got 'sixteen'"):
            parse_config("elements_sweep = 8, sixteen")
        with pytest.raises(ConfigError) as err:
            parse_config("architectures = sc,")
        assert str(err.value) == "key 'architectures': expected comma-separated labels, got 'sc,'"

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
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.key in {f.name for f in fields(SimConfig)}
        assert str(err.value).startswith(f"key {err.value.key!r}: ")

    @pytest.mark.parametrize("key, value", [
        ("tx_gain_dbi", 7000.0),
        ("ris_element_gain_dbi", 6200.0),
        ("rx_gain_dbi", 1e300),
        ("rician_k_db", 4000.0),
        ("rician_k_db", 3090.0),
    ])
    def test_decibel_values_whose_linear_value_overflows_are_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key
        assert "overflows" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("rician_k_db", 3000.0),
        ("rician_k_db", -4000.0),
    ])
    def test_large_representable_decibel_values_accepted(self, key, value):
        assert getattr(SimConfig(**{key: value}), key) == value

    @pytest.mark.parametrize("keys", [
        {"tx_gain_dbi": 6000.0},
        {"rx_gain_dbi": -7000.0},
        {"tx_power_dbm": 3000.0},
        # 10^(3080/20) squared is about 1e308, just below the largest float
        {"tx_gain_dbi": 3080.0, "ris_element_gain_dbi": 3080.0, "rx_gain_dbi": 3080.0},
    ], ids=["tx-gain", "rx-gain", "transmit-power", "hop-gain-products"])
    def test_large_representable_values_fail_only_the_link_budget(self, keys):
        # each value is a float in linear terms, and so is every hop's gain product:
        # what refuses it is the link budget, not an overflow
        gains = {key: value for key, value in keys.items() if key != "tx_power_dbm"}
        hop_magnitudes(build_geometry(SimConfig()), **gains)
        dbm_to_watts(keys.get("tx_power_dbm", 50.0))
        with pytest.raises(ConfigError) as err:
            SimConfig(**keys)
        assert err.value.key is None
        assert str(err.value).endswith(f"check {LINK_BUDGET_KEYS}")
        assert "overflows" not in str(err.value)

    @pytest.mark.parametrize("a, b", [
        ("tx_gain_dbi", "ris_element_gain_dbi"),
        ("ris_element_gain_dbi", "rx_gain_dbi"),
        ("tx_gain_dbi", "rx_gain_dbi"),
    ])
    def test_hop_gain_products_that_overflow_are_rejected(self, a, b):
        # each gain is representable on its own; their product is not
        with pytest.raises(ConfigError) as err:
            SimConfig(**{a: 6000.0, b: 6000.0})
        assert err.value.key == a
        assert b in str(err.value) and "overflows" in str(err.value)

    @pytest.mark.parametrize("key, value", [
        ("tx_power_dbm", 3300.0),
        ("tx_power_dbm", -3300.0),
        ("tx_power_dbm", 3400.0),
        ("noise_psd_dbm_hz", 3300.0),
        ("noise_psd_dbm_hz", -3300.0),
        ("noise_psd_dbm_hz", 3400.0),
        ("bandwidth_hz", 1e-320),  # the default density alone has positive watts
    ])
    def test_powers_whose_watts_overflow_or_vanish_are_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key

    def test_hop_gain_product_just_past_the_largest_float_overflows(self):
        with pytest.raises(ConfigError, match="overflows") as err:
            SimConfig(tx_gain_dbi=3080.0, ris_element_gain_dbi=3090.0)
        assert err.value.key == "tx_gain_dbi"

    def test_seeds_are_the_uint64_range(self):
        # the sweep draws from seed mod 2^64: -1 and 2^64 + 42 would alias 2^64 - 1 and 42
        assert parse_config("seed = 0").seed == 0
        assert parse_config("seed = 18446744073709551615").seed == 2**64 - 1
        for seed in (-1, 2**64, 2**64 + 42):
            with pytest.raises(ConfigError, match="'seed'"):
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
        with pytest.raises(ConfigError):
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

    @pytest.mark.parametrize("key, value", [
        ("tx_power_dbm", True),
        ("carrier_hz", np.bool_(True)),
        ("bandwidth_hz", "2e7"),
        ("noise_psd_dbm_hz", None),
        ("rician_k_db", 1 + 0j),
        ("leo_altitude_m", Decimal("600e3")),
        # the constructor parses no text: only parse_config reads "6e5" as a number
        ("leo_altitude_m", "6e5"),
        ("haps_altitude_m", "1.5e4"),
        ("carrier_hz", "18.7e9"),
        ("static_power_w", 10**400),
        ("tx_gain_dbi", -(10**400)),
        ("rx_gain_dbi", np.float64("nan")),
        ("static_power_w", float("inf")),
        *(("bandwidth_hz", value) for value in (float("inf"), float("nan"), True, None)),
        *(("static_power_w", value) for value in (float("nan"), True, "1", None)),
        *((key, value) for key in ("tx_power_dbm", "noise_psd_dbm_hz")
          for value in (float("nan"), float("inf"))),
    ])
    def test_non_numbers_and_non_finite_values_rejected_for_float_keys(self, key, value):
        with pytest.raises(ConfigError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key

    @pytest.mark.parametrize("key, value", [
        ("carrier_hz", np.float64(18.7e9)),
        ("tx_power_dbm", np.float32(40.5)),
        ("bandwidth_hz", 20_000_000),
        ("noise_psd_dbm_hz", np.int64(-170)),
        ("static_power_w", Fraction(1, 4)),
    ])
    def test_real_numbers_accepted_as_python_floats(self, key, value):
        got = getattr(SimConfig(**{key: value}), key)
        assert type(got) is float and got == value

    @pytest.mark.parametrize("key, value", [
        ("elements_sweep", 8),
        ("elements_sweep", np.int64(8)),
        ("elements_sweep", "8, 16"),
        ("architectures", "fc"),
        ("architectures", None),
    ])
    def test_single_values_rejected_for_tuple_keys(self, key, value):
        with pytest.raises(ConfigError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key
        assert "must be a sequence of values" in str(err.value)

    def test_any_non_string_sequence_accepted_for_tuple_keys(self):
        cfg = SimConfig(elements_sweep=np.array([4, 8]), architectures=["sc", "fc"])
        assert cfg.elements_sweep == (4, 8) and cfg.architectures == ("sc", "fc")

    @pytest.mark.parametrize("key, value", [
        ("carrier_hz", 0.0),
        ("carrier_hz", -1.0),
        ("bandwidth_hz", 0),
        ("bandwidth_hz", -1.0),
        ("static_power_w", -1.0),
        ("elements_sweep", ()),
        ("architectures", ()),
    ])
    def test_out_of_range_values_and_empty_sweeps_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            SimConfig(**{key: value})
        assert err.value.key == key

    def test_gc_divisibility_is_not_a_config_error(self):
        # a (gc:U, M) pair that U does not divide is skipped while the config has a cell left
        cfg = parse_config("architectures = gc:3\nelements_sweep = 8, 9")
        assert cfg.architectures == ("gc:3",)
        assert cfg.cells == ((Architecture("gc", 3), 9),)


class TestLinkBudget:
    @pytest.mark.parametrize("direct_link", ["blocked", "clear"])
    def test_is_the_hop_magnitudes_of_the_config(self, direct_link):
        cfg = SimConfig(tx_gain_dbi=3.3, ris_element_gain_dbi=0.5, rx_gain_dbi=-1.7,
                        direct_link=direct_link)
        geom = build_geometry(cfg)
        expected = hop_magnitudes(geom, tx_gain_dbi=3.3, ris_element_gain_dbi=0.5,
                                  rx_gain_dbi=-1.7, direct_blocked=direct_link == "blocked")
        assert cfg.magnitudes == expected
        assert (expected[0] == 0.0) == (direct_link == "blocked")
        assert not hasattr(cfg, "link_budget")

    def test_checks_the_largest_swept_element_count(self):
        # 2838 dBi is just inside the headroom at 4 elements, not at 4096
        SimConfig(tx_gain_dbi=2838.0, elements_sweep=(4,))
        with pytest.raises(ConfigError, match="at \\[4, 4096\\] elements"):
            SimConfig(tx_gain_dbi=2838.0, elements_sweep=(4096, 4))

    def test_checks_the_smallest_swept_element_count(self):
        # -1266 dBi is just inside the headroom at 4 elements, not at 1
        SimConfig(ris_element_gain_dbi=-1266.0, elements_sweep=(4,))
        with pytest.raises(ConfigError, match="at \\[1, 4\\] elements"):
            SimConfig(ris_element_gain_dbi=-1266.0, elements_sweep=(4, 1))

    @pytest.mark.parametrize("keys", [
        # a_h's square underflows and a_g's overflows, faded or not; the cascade a_g a_h is fine
        {"tx_gain_dbi": -3200.0, "rx_gain_dbi": 3200.0},
        {"tx_gain_dbi": 3200.0, "rx_gain_dbi": -3200.0},
        # a_h's square is subnormal
        {"tx_gain_dbi": -3000.0, "rx_gain_dbi": 3000.0},
        # a clear direct link's a_d is squared as well
        {"tx_gain_dbi": -1400.0, "ris_element_gain_dbi": 1400.0, "rx_gain_dbi": -1400.0,
         "direct_link": "clear"},
    ], ids=["a_h-underflows", "a_g-underflows", "a_h-subnormal", "a_d-subnormal"])
    def test_hop_magnitude_squares_must_stay_normal_floats(self, keys):
        # each gain and hop product is a float, so hop_magnitudes accepts them
        hop_magnitudes(SimConfig().geometry, **{k: v for k, v in keys.items() if k != "direct_link"})
        with pytest.raises(ConfigError, match="^squares of hop magnitudes .* would leave the "
                                              "normal floats") as err:
            SimConfig(elements_sweep=(4,), trials=2, **keys)
        assert err.value.key is None
        assert str(err.value).endswith(f"check {LINK_BUDGET_KEYS}")

    def test_a_blocked_direct_link_is_not_squared(self):
        keys = {"tx_gain_dbi": -1400.0, "ris_element_gain_dbi": 1400.0, "rx_gain_dbi": -1400.0}
        assert SimConfig(**keys).magnitudes[0] == 0.0

    def test_link_metric_squares_must_stay_finite_over_the_trials(self):
        # the energy efficiency is about 3e162 bits/J: its square, times 4 trials, overflows
        keys = {"rx_gain_dbi": 1800.0, "tx_power_dbm": -1500.0, "elements_sweep": (4,)}
        with pytest.raises(ConfigError, match="or of link metrics up to 3.2847e\\+162 ") as err:
            SimConfig(trials=2, **keys)
        assert err.value.key is None
        # about 1e149 bits/J: finite over one trial, not over the most trials
        keys["tx_power_dbm"] = -1370.0
        SimConfig(trials=1, **keys)
        with pytest.raises(ConfigError, match="or of link metrics up to 4.1484e\\+149 "):
            SimConfig(trials=MAX_TRIALS, **keys)


def numpy_budget_verdict(keys: dict) -> str:
    """The link-budget verdict on keys, recomputed through numpy's link_columns.

    "other" for a config refused before the link budget, "finite" for link
    metrics that would not be finite, "normal" for squares that would leave
    the normal floats, and "accepted".
    """
    gains = {key: keys[key] for key in ("tx_gain_dbi", "ris_element_gain_dbi", "rx_gain_dbi")}
    try:
        a_d, a_h, a_g = hop_magnitudes(SimConfig().geometry, **gains,
                                       direct_blocked=keys["direct_link"] == "blocked")
        powers = {"tx_power_w": dbm_to_watts(keys["tx_power_dbm"]),
                  "noise_power_w": dbm_to_watts(keys["noise_psd_dbm_hz"] + 10.0 * math.log10(keys["bandwidth_hz"]))}
    except InvalidInput:
        return "other"
    if not all(watts > 0 for watts in powers.values()):
        return "other"
    # link_columns takes only a SimConfig, and reads these four attributes of it
    budget = object.__new__(SimConfig)
    for name, value in {**powers, "bandwidth_hz": keys["bandwidth_hz"],
                        "static_power_w": keys["static_power_w"]}.items():
        object.__setattr__(budget, name, value)
    swept = np.array([min(keys["elements_sweep"]), max(keys["elements_sweep"])])
    with np.errstate(all="ignore"):
        values = link_columns((swept * a_g * a_h + a_d) * [1.0 / FADE_HEADROOM, FADE_HEADROOM], budget)
    if not np.isfinite(values).all():
        return "finite"
    squares = [a * a for a in ((a_h, a_g) if keys["direct_link"] == "blocked" else (a_d, a_h, a_g))]
    largest = float(np.abs(values).max())
    if not (all(np.finfo(float).tiny <= s / FADE_HEADROOM <= s * FADE_HEADROOM * float(swept[1]) < math.inf
                for s in squares) and 4.0 * keys["trials"] * largest * largest < math.inf):
        return "normal"
    return "accepted"


def sim_config_verdict(keys: dict) -> str:
    try:
        SimConfig(**keys)
    except ConfigError as exc:
        text = str(exc)
        return ("finite" if "link metrics would not be finite" in text
                else "normal" if "would leave the normal floats" in text else "other")
    return "accepted"


def decibels(usual: tuple[float, float], edges: tuple[float, float]):
    """A level in dB: a usual one, or one anywhere up to where its linear value leaves the floats."""
    return st.one_of(st.floats(*usual), st.floats(*edges))


BUDGET_KEYS = st.fixed_dictionaries({
    "tx_power_dbm": decibels((-60.0, 80.0), (-3300.0, 3200.0)),
    "noise_psd_dbm_hz": decibels((-200.0, -100.0), (-3300.0, 3200.0)),
    "bandwidth_hz": st.one_of(st.floats(1e3, 1e10), st.floats(sys.float_info.min * sys.float_info.epsilon,
                                                              sys.float_info.max)),
    "static_power_w": st.one_of(st.just(0.0), st.floats(0.0, sys.float_info.max)),
    **dict.fromkeys(("tx_gain_dbi", "ris_element_gain_dbi", "rx_gain_dbi"),
                    decibels((-60.0, 60.0), (-6400.0, 6400.0))),
    "elements_sweep": st.lists(st.integers(1, 4096), min_size=1, max_size=3, unique=True).map(tuple),
    "direct_link": st.sampled_from(("blocked", "clear")),
    "trials": st.sampled_from((1, 1000, MAX_TRIALS)),
})


USUAL_BUDGET = {"tx_power_dbm": 50.0, "noise_psd_dbm_hz": -170.0, "bandwidth_hz": 2e7, "static_power_w": 0.0,
                "tx_gain_dbi": 0.0, "ris_element_gain_dbi": 0.0, "rx_gain_dbi": 0.0, "elements_sweep": (4,),
                "direct_link": "blocked", "trials": 1}


@seed(1729)
@settings(max_examples=500, deadline=None)
@given(BUDGET_KEYS)
# the energy efficiency would overflow at a transmit power of 1e-303 W, but not once 1 W of
# static power is added to it
@example({**USUAL_BUDGET, "tx_power_dbm": -3000.0, "tx_gain_dbi": 2800.0, "static_power_w": 1.0})
# a_h squared over the headroom is subnormal: not zero, yet outside the normal floats
@example({**USUAL_BUDGET, "tx_gain_dbi": -2780.0, "rx_gain_dbi": 2780.0})
def test_the_float_gate_refuses_what_numpy_link_columns_refuses(keys):
    # SimConfig checks its link budget in plain floats, so building one loads no numpy; its verdict
    # is that of link_columns on the same unfaded gains, near every float edge of the budget's keys
    assert sim_config_verdict(keys) == numpy_budget_verdict(keys)


class TestBuiltAttributes:
    # link_columns and build_geometry read these without checking them again

    @pytest.mark.parametrize("name", ["cells", "geometry", "fading_spec", "magnitudes", "tx_power_w",
                                      "noise_power_w"])
    def test_built_attributes_are_frozen(self, name):
        cfg = SimConfig()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, name, getattr(SimConfig(leo_altitude_m=500e3, rician_k_db=3.0,
                                                 tx_power_dbm=40.0, bandwidth_hz=1e8), name))

    @pytest.mark.parametrize("key, value", [
        ("tx_power_dbm", 40.0), ("noise_psd_dbm_hz", -160.0), ("bandwidth_hz", 1e8)])
    def test_replace_rebuilds_the_watts(self, key, value):
        cfg = replace(SimConfig(), **{key: value})
        assert cfg.tx_power_w == dbm_to_watts(cfg.tx_power_dbm)
        assert cfg.noise_power_w == dbm_to_watts(cfg.noise_psd_dbm_hz + 10.0 * math.log10(cfg.bandwidth_hz))
        assert (cfg.tx_power_w, cfg.noise_power_w) != (SimConfig().tx_power_w, SimConfig().noise_power_w)

    def test_cells_are_the_csv_cells_in_order(self, tmp_path):
        cfg = SimConfig(trials=1, elements_sweep=(9, 4, 8), architectures=("gc:2", "sc", "fc", "gc:3"))
        emit_csv(run_sweep(cfg), tmp_path / "out.csv")
        rows = [line.split(",")[:2] for line in (tmp_path / "out.csv").read_text().splitlines()[1:]]
        assert [(arch.label, str(m)) for arch, m in cfg.cells] == list(dict.fromkeys(map(tuple, rows)))
        assert all(Architecture.from_label(arch.label) == arch for arch, _ in cfg.cells)
        assert "cells" not in format_config(cfg)

    def test_parsed_config_builds_the_same_watts(self):
        cfg = SimConfig(tx_power_dbm=43.25, bandwidth_hz=3e7, noise_psd_dbm_hz=-171.5)
        parsed = parse_config(format_config(cfg))
        assert (parsed.tx_power_w, parsed.noise_power_w) == (cfg.tx_power_w, cfg.noise_power_w)


class TestEcho:
    def test_format_parse_round_trip(self):
        cfg = SimConfig(trials=12, seed=9, architectures=("fc", "gc:4"),
                        elements_sweep=(4, 8, 12), rician_k_db=6.5,
                        direct_link="clear")
        assert parse_config(format_config(cfg)) == cfg

    def test_numpy_and_int_values_echo_as_the_plain_config(self):
        plain = SimConfig(carrier_hz=18.7e9, tx_power_dbm=40.5, bandwidth_hz=2e7,
                          elements_sweep=(4, 8), architectures=("sc", "fc"))
        cfg = SimConfig(carrier_hz=np.float64(18.7e9), tx_power_dbm=np.float32(40.5),
                        bandwidth_hz=20_000_000, elements_sweep=np.array([4, 8]),
                        architectures=["sc", "fc"])
        assert format_config(cfg) == format_config(plain)
        assert "carrier_hz = 18700000000.0" in format_config(cfg)
        assert parse_config(format_config(cfg)) == cfg == plain

    def test_echo_mentions_every_field(self):
        text = format_config(SimConfig())
        for key in ("carrier_hz", "trials", "seed", "elements_sweep",
                    "architectures", "direct_link", "static_power_w"):
            assert f"{key} = " in text
