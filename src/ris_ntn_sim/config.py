"""Experiment configuration: defaults, plain-text parsing and echoing.

Config files are UTF-8 "key = value" lines with '#' comments. Unknown keys
are hard errors so typos never silently fall back to defaults.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from .channel_model import FADING_MODELS, PHASE_MODES, FadingSpec
from .errors import SimulatorError
from .ris_core import Architecture

# The sweep itself needs O(M) memory per trial, but any swept cell can be
# inspected with phase_optimizer.optimize, which builds and validates the
# dense M x M complex matrix: at 4096 elements one matrix is 268 MB and about
# 0.8 GB is held while validate runs, so larger surfaces are refused rather
# than leaving cells that cannot be inspected.
MAX_ELEMENTS = 4096
# MAX_TRIALS keeps every trial index inside sweep.derive_trial_seed's domain.
MAX_TRIALS = 2**31 - 1


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
        if self.carrier_hz <= 0:
            raise ConstraintError("carrier_hz", "must be positive")
        if self.bandwidth_hz <= 0:
            raise ConstraintError("bandwidth_hz", "must be positive")
        if not self.leo_altitude_m > self.haps_altitude_m > 0:
            raise ConstraintError(
                "leo_altitude_m", "satellite must sit above the relay platform, which must sit above ground"
            )
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
        if self.fading_phase_mode not in PHASE_MODES:
            raise ConstraintError("fading_phase_mode", f"must be one of {PHASE_MODES}")
        if self.direct_link not in ("blocked", "clear"):
            raise ConstraintError("direct_link", "must be 'blocked' or 'clear'")

        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConstraintError("trials", f"must be an integer in [1, {MAX_TRIALS}]")

    @property
    def fading_spec(self) -> FadingSpec:
        return FadingSpec(
            model=self.fading_model,
            k_factor_db=self.rician_k_db,
            phase_mode=self.fading_phase_mode,
        )


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
