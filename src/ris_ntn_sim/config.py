"""Experiment configuration and the link budget it fixes.

Config files are UTF-8 "key = value" lines with '#' comments. Unknown keys
are hard errors so typos never silently fall back to defaults. A SimConfig
checks its values and link budget once, so one that exists can be swept, and
builds what run_sweep and link_columns (SNR, Shannon rate, energy efficiency) read.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, fields

import numpy as np

from .channel_model import KA_BAND_HZ, FadingSpec, LinkGeometry, fspl_amplitude, hop_magnitudes
from .errors import (ConfigError, InvalidInput, checked_args, exact_int, finite_float, linear_from_db,
                     number_array, positive_float)
from .phase_optimizer import Architecture

logger = logging.getLogger(__name__)

# The sweep itself needs O(M) memory per trial, but any swept cell can be
# inspected with phase_optimizer.optimize, which builds and validates the
# dense M x M complex matrix: at 4096 elements one matrix is 268 MB and about
# 0.8 GB is held while validate runs, so larger surfaces are refused rather
# than leaving cells that cannot be inspected.
MAX_ELEMENTS = 4096
# The largest trial count; sweep._trial_seeds accepts the trial indices [0, MAX_TRIALS].
MAX_TRIALS = 2**31 - 1

# Fades move a row's |h_eff| off its unfaded value by less than this factor
# either way: at any Rician factor, |f| > 1e3 or |f| < 1e-10 has probability below 1e-20.
FADE_HEADROOM = 1e20
# Every key that sets a row's link metrics.
LINK_BUDGET_KEYS = ("tx_power_dbm, bandwidth_hz, noise_psd_dbm_hz, static_power_w, carrier_hz, "
                    "leo_altitude_m, haps_altitude_m, tx_gain_dbi, ris_element_gain_dbi, "
                    "rx_gain_dbi, direct_link and elements_sweep")

_LN2 = math.log(2.0)


def dbm_to_watts(p_dbm: float) -> float:
    """p_dbm in W; InvalidInput unless p_dbm is a finite real number whose watts fit in a float."""
    return checked_args(lambda p: linear_from_db(finite_float(p) - 30.0, 10.0), p_dbm=p_dbm)[0]


def _key_error(key: str, reason: str) -> ConfigError:
    return ConfigError(f"key {key!r}: {reason}", key)


# The config key of a library argument whose name is not one.
_ARGUMENT_KEYS = {"k_factor_db": "rician_k_db"}


def _checked(key: str, check, *args, **kwargs):
    """check(*args, **kwargs), its ValueError a ConfigError on the key its message begins with.

    A library InvalidInput begins with the argument it names. A message that
    begins with no key, as an errors-module check's does, is on key.
    """
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        name = str(exc).partition(" ")[0]
        name = _ARGUMENT_KEYS.get(name, name)
        raise _key_error(name if name in SimConfig.__dataclass_fields__ else key, str(exc)) from None


def _as_tuple(key: str, value) -> tuple:
    """value as a tuple: any iterable but a string, whose characters are not the values."""
    if not isinstance(value, str):
        try:
            return tuple(value)
        except TypeError:
            pass
    raise _key_error(key, f"must be a sequence of values, got {type(value).__name__}")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one element-sweep experiment.

    direct_link selects whether the terminal also hears the satellite
    directly ("clear") or only through the relay surface ("blocked"). The
    default is "blocked": at the default geometry the clear direct path is
    ~141 dB stronger than the two-hop path, which buries every element-count
    effect the sweep is designed to show. Construction checks every value
    once and builds the attributes cells (the swept (Architecture, M) pairs
    in canonical order), geometry, fading_spec, magnitudes (a_d, a_h, a_g;
    a_d = 0 if blocked), and tx_power_w and noise_power_w in watts, none a field.
    """

    carrier_hz: float = 18.7e9
    tx_power_dbm: float = 50.0
    bandwidth_hz: float = 2e7
    noise_psd_dbm_hz: float = -170.0
    leo_altitude_m: float = 600e3
    haps_altitude_m: float = 15e3
    elements_sweep: tuple[int, ...] = (8, 16, 24, 32, 40, 48, 56, 64)
    architectures: tuple[str, ...] = ("sc", "fc")
    fading_model: str = "rician"
    rician_k_db: float = 10.0
    fading_phase_mode: str = "iid_uniform"
    direct_link: str = "blocked"
    trials: int = 1000
    seed: int = 42
    tx_gain_dbi: float = 0.0
    ris_element_gain_dbi: float = 0.0
    rx_gain_dbi: float = 0.0
    static_power_w: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "elements_sweep", tuple(
            _checked("elements_sweep", exact_int, m)
            for m in _as_tuple("elements_sweep", self.elements_sweep)))
        object.__setattr__(self, "architectures", tuple(
            str(a).strip() for a in _as_tuple("architectures", self.architectures)))

        for f in fields(self):
            check = {"float": finite_float, "int": exact_int}.get(f.type)
            if check:
                object.__setattr__(self, f.name, _checked(f.name, check, getattr(self, f.name)))
        if self.static_power_w < 0:
            raise _key_error("static_power_w", "must be nonnegative")
        _checked("bandwidth_hz", positive_float, self.bandwidth_hz)

        if not self.elements_sweep:
            raise _key_error("elements_sweep", "must not be empty")
        if len(set(self.elements_sweep)) != len(self.elements_sweep):
            raise _key_error("elements_sweep", "element counts must be unique")
        for m in self.elements_sweep:
            if not 1 <= m <= MAX_ELEMENTS:
                raise _key_error("elements_sweep", f"element counts must be in [1, {MAX_ELEMENTS}], got {m}")

        if not self.architectures:
            raise _key_error("architectures", "must not be empty")
        if len(set(self.architectures)) != len(self.architectures):
            raise _key_error("architectures", "architecture labels must be unique")
        # the swept cells, by label then element count; a gc:U cell exists only where U divides M
        cells, skipped = [], []
        for label in sorted(self.architectures):
            arch = _checked("architectures", Architecture.from_label, label)
            for m in sorted(self.elements_sweep):
                try:
                    arch.block_size(m)
                except InvalidInput as exc:
                    skipped.append((label, m, exc))
                    continue
                cells.append((arch, m))
        if not cells:
            raise _key_error("architectures", "no cell to sweep: no group count divides an element count")
        object.__setattr__(self, "cells", tuple(cells))

        # deprecated: it selects nothing since 0.6.0, as no output depends on the LOS phase
        if self.fading_phase_mode not in ("common_los", "iid_uniform"):
            raise _key_error("fading_phase_mode", "must be 'common_los' or 'iid_uniform'")
        if self.direct_link not in ("blocked", "clear"):
            raise _key_error("direct_link", "must be 'blocked' or 'clear'")

        if not 1 <= self.trials <= MAX_TRIALS:
            raise _key_error("trials", f"must be an integer in [1, {MAX_TRIALS}]")
        # the sweep draws from seed mod 2^64, so a wider seed would alias one in range
        if not 0 <= self.seed < 2**64:
            raise _key_error("seed", "must be an integer in [0, 2^64)")

        # built once, through the library's checks: plain attributes, not fields
        geometry = _checked("leo_altitude_m", LinkGeometry, self.leo_altitude_m,
                            self.haps_altitude_m, self.carrier_hz)
        # the free-space gain of every hop, the direct one's even when it is blocked
        for key, distance_m in (("leo_altitude_m", geometry.d_direct_m),
                                ("leo_altitude_m", geometry.d_leo_ris_m),
                                ("haps_altitude_m", geometry.d_ris_ut_m)):
            _checked(key, fspl_amplitude, distance_m, self.carrier_hz)
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "fading_spec", _checked(
            "fading_model", FadingSpec, self.fading_model, self.rician_k_db))
        object.__setattr__(self, "magnitudes", _checked(
            "tx_gain_dbi", hop_magnitudes, geometry, tx_gain_dbi=self.tx_gain_dbi,
            ris_element_gain_dbi=self.ris_element_gain_dbi, rx_gain_dbi=self.rx_gain_dbi,
            direct_blocked=self.direct_link == "blocked"))
        # the link budget divides by both powers, so neither may round to zero
        for key, name, p_dbm in (("tx_power_dbm", "tx_power_w", self.tx_power_dbm),
                                 ("noise_psd_dbm_hz", "noise_power_w",
                                  self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz))):
            watts = _checked(key, dbm_to_watts, p_dbm)
            if not watts > 0:
                # a density with positive watts of its own is made zero by a tiny bandwidth
                if key == "noise_psd_dbm_hz" and dbm_to_watts(self.noise_psd_dbm_hz) > 0:
                    key = "bandwidth_hz"
                raise _key_error(key, f"power in watts is {watts!r}; it must be positive")
            object.__setattr__(self, name, watts)

        # the unfaded |h_eff| = M a_g a_h + a_d at the smallest and largest swept M, divided and
        # multiplied by FADE_HEADROOM, must give finite link metrics, which grow with it, and SNR > 0
        a_d, a_h, a_g = self.magnitudes
        swept = (min(self.elements_sweep), max(self.elements_sweep))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            unfaded = np.array(swept) * a_g * a_h + a_d
            values = link_columns(unfaded * [1.0 / FADE_HEADROOM, FADE_HEADROOM], self)
        if not np.isfinite(values).all():
            raise ConfigError(f"unfaded |h_eff| is {unfaded.tolist()} at {list(swept)} elements, "
                              f"and fades may scale it by {FADE_HEADROOM:g} either way: link "
                              f"metrics would not be finite; check {LINK_BUDGET_KEYS}")
        # trial 0's certificate sums up to M squared entries of a_h and a_g, and squares a_d if
        # clear; the moments' squared deviations sum to at most 4 trials times the largest squared
        squares = [a * a for a in self.magnitudes[self.direct_link == "blocked":]]
        largest = float(np.abs(values).max())
        if not (all(np.finfo(float).tiny <= s / FADE_HEADROOM <= s * FADE_HEADROOM * swept[1] < math.inf
                    for s in squares) and 4.0 * self.trials * largest * largest < math.inf):
            raise ConfigError(f"squares of hop magnitudes {squares} or of link metrics up to {largest:g} "
                              f"would leave the normal floats; check {LINK_BUDGET_KEYS}")

        # warned about only now, so a refused config logs nothing but its error
        for label, m, exc in skipped:
            logger.warning("skipping arch=%s elements=%d: %s", label, m, exc)
        if not KA_BAND_HZ[0] <= self.carrier_hz <= KA_BAND_HZ[1]:
            logger.warning("carrier %.6g Hz is outside the Ka band %.4g-%.4g Hz",
                           self.carrier_hz, *KA_BAND_HZ)


def _sim_config(cfg) -> SimConfig:
    """cfg if it is a SimConfig, which checked its values when it was built, else InvalidInput."""
    if not isinstance(cfg, SimConfig):
        raise InvalidInput(f"cfg must be a SimConfig, got {type(cfg).__name__}")
    return cfg


def build_geometry(cfg) -> LinkGeometry:
    """cfg.geometry, the nadir-stack geometry a SimConfig builds once; InvalidInput for any other cfg."""
    return _sim_config(cfg).geometry


def link_columns(h_eff, cfg) -> np.ndarray:
    """(h_eff_mag, snr_db, rate_bps, ee_bits_per_joule) along a new last axis, in float64.

    h_eff is a channel gain or an array of them, which must hold numbers
    (number_array), and cfg a SimConfig, else InvalidInput; the columns are
    the value columns of the sweep CSV. The SNR is P_tx |h_eff|^2 / N with
    P_tx = cfg.tx_power_w and N = cfg.noise_power_w, the rate B log2(1 + SNR),
    and the energy efficiency the rate divided by the consumed power
    P_tx + static_power_w.
    """
    power_w = _sim_config(cfg).tx_power_w + cfg.static_power_w
    h_eff = checked_args(number_array, h_eff=h_eff)[0]
    # in float64: an integer or narrow float would overflow or wrap in the square
    magnitude = np.abs(h_eff.astype(complex if h_eff.dtype.kind == "c" else float, copy=False))
    snr = cfg.tx_power_w * magnitude ** 2 / cfg.noise_power_w
    # log1p keeps precision in the deep-noise regime where SNR << eps
    rate = cfg.bandwidth_hz * np.log1p(snr) / _LN2
    # a zero channel gives -inf dB, without numpy's divide-by-zero warning
    with np.errstate(divide="ignore"):
        return np.stack([magnitude, 10.0 * np.log10(snr), rate, rate / power_w], axis=-1)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise _key_error(key, f"expected integer, got {value!r}") from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise _key_error(key, f"expected number, got {value!r}") from None


def _split_list(key: str, value: str, expected: str) -> list[str]:
    tokens = [tok.strip() for tok in value.split(",")]
    if not all(tokens):
        raise _key_error(key, f"expected comma-separated {expected}, got {value!r}")
    return tokens


def _parse_str(key: str, value: str) -> str:
    return value


# Every key is a SimConfig field; its annotation picks the parser.
_PARSERS = {
    f.name: {
        "float": _parse_float,
        "int": _parse_int,
        "str": _parse_str,
        "tuple[int, ...]": lambda key, value: tuple(
            _parse_int(key, tok) for tok in _split_list(key, value, "integers")),
        "tuple[str, ...]": lambda key, value: tuple(_split_list(key, value, "labels")),
    }[f.type]
    for f in fields(SimConfig)
}


def _parse_keys(text: str) -> dict:
    """A config document's keys and unchecked values; '#' starts a comment, and a bad line raises."""
    keys: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}", key)
        if key in keys:
            raise _key_error(key, "duplicate key")
        keys[key] = _PARSERS[key](key, value)
    return keys


def parse_config(text: str) -> SimConfig:
    """Parse a config document (_parse_keys) into a SimConfig; missing keys take their defaults."""
    return SimConfig(**_parse_keys(text))


def format_config(cfg: SimConfig) -> str:
    """Canonical 'key = value' echo of a resolved config, parseable back."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = ", ".join(str(v) for v in value)
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{f.name} = {rendered}")
    return "\n".join(lines)
