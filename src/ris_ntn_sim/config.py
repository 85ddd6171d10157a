"""Experiment configuration: defaults, plain-text parsing and echoing.

Config files are UTF-8 "key = value" lines with '#' comments. Unknown keys
are hard errors so typos never silently fall back to defaults.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .channel_model import FADING_MODELS, FadingSpec, LinkGeometry, fspl_amplitude, hop_magnitudes
from .errors import InvalidInput, SimulatorError
from .link_metrics import RfConfig, dbm_to_watts, link_columns, noise_power_watts
from .ris_core import Architecture

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


def _as_int(key: str, value) -> int:
    """value as a Python int: any integer operator.index accepts, numpy's included, but bool."""
    # bool is an int subclass, but True is not a count or a seed
    if isinstance(value, bool):
        raise ConstraintError(key, "must be an integer, not a boolean")
    try:
        return operator.index(value)
    except TypeError:
        raise ConstraintError(key, "must be an integer") from None


class ConfigError(SimulatorError, ValueError):
    """Base class for configuration problems."""


class UnknownKey(ConfigError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"unknown config key {key!r}")


class BadValue(ConfigError):
    def __init__(self, key: str, expected: str, value: str):
        self.key = key
        self.expected = expected
        super().__init__(f"key {key!r}: expected {expected}, got {value!r}")


class ConstraintError(ConfigError):
    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason
        super().__init__(f"key {key!r}: {reason}")


class MalformedLine(ConfigError):
    def __init__(self, lineno: int, line: str):
        super().__init__(f"line {lineno}: expected 'key = value', got {line!r}")


_DECIBEL_KEYS = (("tx_gain_dbi", 20.0), ("ris_element_gain_dbi", 20.0),
                 ("rx_gain_dbi", 20.0), ("rician_k_db", 10.0))
# The antenna gains hop_magnitudes multiplies for each hop: sat -> RIS, RIS -> UT and direct.
_HOP_GAIN_KEYS = (("tx_gain_dbi", "ris_element_gain_dbi"), ("ris_element_gain_dbi", "rx_gain_dbi"),
                  ("tx_gain_dbi", "rx_gain_dbi"))


@dataclass(frozen=True)
class SimConfig:
    """Full description of one element-sweep experiment.

    direct_link selects whether the terminal also hears the satellite
    directly ("clear") or only through the relay surface ("blocked"). The
    default is "blocked": at the default geometry the clear direct path is
    ~141 dB stronger than the two-hop path, which buries every element-count
    effect the sweep is designed to show.
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
        object.__setattr__(self, "elements_sweep",
                           tuple(_as_int("elements_sweep", m) for m in self.elements_sweep))
        object.__setattr__(self, "trials", _as_int("trials", self.trials))
        object.__setattr__(self, "seed", _as_int("seed", self.seed))
        object.__setattr__(self, "architectures", tuple(str(a).strip() for a in self.architectures))

        for f in fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ConstraintError(f.name, "must be finite")
        # the channel model scales amplitudes by 10^(gain/20) and the Rician factor is 10^(k/10)
        for key, per_decade in _DECIBEL_KEYS:
            try:
                10.0 ** (getattr(self, key) / per_decade)
            except OverflowError:
                raise ConstraintError(
                    key, f"10 ** ({key} / {per_decade:g}) overflows a float") from None
        for a, b in _HOP_GAIN_KEYS:
            product = 10.0 ** (getattr(self, a) / 20.0) * 10.0 ** (getattr(self, b) / 20.0)
            if not math.isfinite(product):
                raise ConstraintError(
                    a, f"10 ** ({a} / 20) * 10 ** ({b} / 20), a hop's gain, overflows a float")
        if self.carrier_hz <= 0:
            raise ConstraintError("carrier_hz", "must be positive")
        if self.bandwidth_hz <= 0:
            raise ConstraintError("bandwidth_hz", "must be positive")
        # the link budget divides by both powers, so neither may overflow or round to zero
        rf = RfConfig(self.tx_power_dbm, self.bandwidth_hz, self.noise_psd_dbm_hz)
        for key, watts in (("tx_power_dbm", lambda: dbm_to_watts(rf.tx_power_dbm)),
                           ("noise_psd_dbm_hz", lambda: noise_power_watts(rf))):
            try:
                power_w = watts()
            except OverflowError:
                power_w = math.inf
            if not 0 < power_w < math.inf:
                raise ConstraintError(key, f"power in watts is {power_w!r}; it must be finite and positive")
        if not self.leo_altitude_m > self.haps_altitude_m > 0:
            raise ConstraintError(
                "leo_altitude_m", "satellite must sit above the relay platform, which must sit above ground"
            )
        # the free-space gains of the nadir stack's hops (channel_model.build_geometry)
        for key, distance_m in (("leo_altitude_m", self.leo_altitude_m),
                                ("leo_altitude_m", self.leo_altitude_m - self.haps_altitude_m),
                                ("haps_altitude_m", self.haps_altitude_m)):
            try:
                fspl_amplitude(distance_m, self.carrier_hz)
            except InvalidInput as exc:
                raise ConstraintError(key, str(exc)) from None
        if self.static_power_w < 0:
            raise ConstraintError("static_power_w", "must be nonnegative")

        if not self.elements_sweep:
            raise ConstraintError("elements_sweep", "must not be empty")
        if len(set(self.elements_sweep)) != len(self.elements_sweep):
            raise ConstraintError("elements_sweep", "element counts must be unique")
        for m in self.elements_sweep:
            if not 1 <= m <= MAX_ELEMENTS:
                raise ConstraintError("elements_sweep", f"element counts must be in [1, {MAX_ELEMENTS}], got {m}")

        if not self.architectures:
            raise ConstraintError("architectures", "must not be empty")
        if len(set(self.architectures)) != len(self.architectures):
            raise ConstraintError("architectures", "architecture labels must be unique")
        for label in self.architectures:
            try:
                Architecture.from_label(label)
            except ValueError as exc:
                raise ConstraintError("architectures", str(exc)) from None

        if self.fading_model not in FADING_MODELS:
            raise ConstraintError("fading_model", f"must be one of {FADING_MODELS}")
        # deprecated: it selects nothing since 0.6.0, as no output depends on the LOS phase
        if self.fading_phase_mode not in ("common_los", "iid_uniform"):
            raise ConstraintError("fading_phase_mode", "must be 'common_los' or 'iid_uniform'")
        if self.direct_link not in ("blocked", "clear"):
            raise ConstraintError("direct_link", "must be 'blocked' or 'clear'")

        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConstraintError("trials", f"must be an integer in [1, {MAX_TRIALS}]")
        # the sweep draws from seed mod 2^64, so a wider seed would alias one in range
        if not 0 <= self.seed < 2**64:
            raise ConstraintError("seed", "must be an integer in [0, 2^64)")

    @property
    def fading_spec(self) -> FadingSpec:
        return FadingSpec(model=self.fading_model, k_factor_db=self.rician_k_db)

    def link_budget(self, geom: LinkGeometry) -> tuple[float, float, float]:
        """The hop magnitudes (a_d, a_h, a_g) on geom = build_geometry(self), a_d = 0 if blocked.

        Raises ConfigError unless every row can be finite: the unfaded |h_eff|
        = M a_g a_h + a_d at the smallest and largest swept M, divided and
        multiplied by FADE_HEADROOM, must give finite link metrics (its SNR
        P_tx |h_eff|^2 / N positive), and those grow with |h_eff|.
        """
        magnitudes = hop_magnitudes(geom, tx_gain_dbi=self.tx_gain_dbi,
                                    ris_element_gain_dbi=self.ris_element_gain_dbi,
                                    rx_gain_dbi=self.rx_gain_dbi,
                                    direct_blocked=self.direct_link == "blocked")
        a_d, a_h, a_g = magnitudes
        swept = (min(self.elements_sweep), max(self.elements_sweep))
        rf = RfConfig(self.tx_power_dbm, self.bandwidth_hz, self.noise_psd_dbm_hz,
                      self.static_power_w)
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            unfaded = np.array(swept) * a_g * a_h + a_d
            values = link_columns(unfaded * [1.0 / FADE_HEADROOM, FADE_HEADROOM], rf)
        if not np.isfinite(values).all():
            raise ConfigError(f"unfaded |h_eff| is {unfaded.tolist()} at {list(swept)} elements, "
                              f"and fades may scale it by {FADE_HEADROOM:g} either way: link "
                              f"metrics would not be finite; check {LINK_BUDGET_KEYS}")
        return magnitudes


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise BadValue(key, "integer", value) from None


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise BadValue(key, "number", value) from None


def _parse_int_list(key: str, value: str) -> tuple[int, ...]:
    tokens = [tok.strip() for tok in value.split(",")]
    if not all(tokens):
        raise BadValue(key, "comma-separated integers", value)
    return tuple(_parse_int(key, tok) for tok in tokens)


def _parse_str_list(key: str, value: str) -> tuple[str, ...]:
    tokens = [tok.strip() for tok in value.split(",")]
    if not all(tokens):
        raise BadValue(key, "comma-separated labels", value)
    return tuple(tokens)


def _parse_str(key: str, value: str) -> str:
    return value


# Every key is a SimConfig field; its annotation picks the parser.
_PARSERS = {
    f.name: {
        "float": _parse_float,
        "int": _parse_int,
        "str": _parse_str,
        "tuple[int, ...]": _parse_int_list,
        "tuple[str, ...]": _parse_str_list,
    }[f.type]
    for f in fields(SimConfig)
}


def parse_config(text: str) -> SimConfig:
    """Parse a plain-text config document into a fully resolved SimConfig.

    Missing keys take their defaults; unknown or duplicated keys and
    malformed lines raise. '#' starts a comment anywhere on a line.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise MalformedLine(lineno, raw.strip())
        if key not in _PARSERS:
            raise UnknownKey(key)
        if key in overrides:
            raise ConstraintError(key, "duplicate key")
        overrides[key] = _PARSERS[key](key, value)
    return SimConfig(**overrides)


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
