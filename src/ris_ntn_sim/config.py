"""Experiment configuration and the link budget it fixes.

Config files are UTF-8 "key = value" lines with '#' comments. Unknown keys
are hard errors so typos never silently fall back to defaults. A SimConfig
checks its values and link budget once, so one that exists can be swept, and
builds what run_sweep and link_columns (SNR, Shannon rate, energy efficiency) read,
LinkGeometry, FadingSpec, Architecture and hop magnitudes included: all scalar
arithmetic, so no numpy loads until link_columns is first called, and logging
only with a config's first warning.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .errors import (ConfigError, InvalidInput, checked_args, exact_int, finite_float, linear_from_db,
                     number_array, positive_float)

if TYPE_CHECKING:
    import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s
KA_BAND_HZ = (17.7e9, 19.7e9)

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


def fspl_amplitude(distance_m: float, freq_hz: float) -> float:
    """Free-space amplitude gain lambda / (4 pi d) of one hop.

    Raises InvalidInput unless the inputs (positive_float) and the gain are finite and positive.
    """
    distance_m, freq_hz = checked_args(positive_float, distance_m=distance_m, freq_hz=freq_hz)
    product = 4.0 * math.pi * distance_m * freq_hz  # may underflow to zero or overflow
    amplitude = SPEED_OF_LIGHT / product if product > 0 else math.inf
    if not 0 < amplitude < math.inf:
        raise InvalidInput(f"gain at {distance_m} m and {freq_hz} Hz is {amplitude}, "
                           "not finite and positive")
    return amplitude


def path_loss_db(distance_m: float, freq_hz: float) -> float:
    """One-hop free-space power loss in dB, 20*log10(4 pi d f / c)."""
    return -20.0 * math.log10(fspl_amplitude(distance_m, freq_hz))


@dataclass(frozen=True)
class LinkGeometry:
    """The vertical satellite stack: satellite, relay surface and terminal co-vertical.

    Two altitudes and a carrier fix it, stored as finite Python floats
    (finite_float, else InvalidInput). The direct distance is the satellite
    altitude, satellite to surface the altitude difference, and surface to
    terminal the platform altitude.
    """

    leo_altitude_m: float
    haps_altitude_m: float
    carrier_hz: float

    def __post_init__(self):
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        for name, value in zip(values, checked_args(finite_float, **values)):
            object.__setattr__(self, name, value)
        if not self.leo_altitude_m > self.haps_altitude_m > 0:
            raise InvalidInput(f"need leo_altitude_m > haps_altitude_m > 0, "
                               f"got {self.leo_altitude_m} and {self.haps_altitude_m}")
        if not self.carrier_hz > 0:
            raise InvalidInput(f"carrier_hz must be positive, got {self.carrier_hz}")

    @property
    def d_direct_m(self) -> float:
        return self.leo_altitude_m

    @property
    def d_leo_ris_m(self) -> float:
        return self.leo_altitude_m - self.haps_altitude_m

    @property
    def d_ris_ut_m(self) -> float:
        return self.haps_altitude_m


FADING_MODELS = ("pure_los", "rician")


@dataclass(frozen=True)
class FadingSpec:
    """Per-element small-scale fading model, normalized to unit mean power.

    A Rician fade with linear factor k is sqrt(k/(k+1)) plus sqrt(1/(k+1))
    times a standard complex Gaussian, so E|fade|^2 = 1 for any k. With one
    antenna at each end no output depends on the phase of the line-of-sight
    term, and the envelope's law does not either (Rice), so it is zero.
    k_factor_db is stored as a finite Python float; a bool, a non-real or a
    non-finite value, or one whose linear factor 10 ** (k / 10) overflows, is
    an InvalidInput, as is an unknown model.
    """

    model: str = "rician"
    k_factor_db: float = 10.0

    def __post_init__(self):
        if self.model not in FADING_MODELS:
            raise InvalidInput(f"unknown fading model {self.model!r} (expected {FADING_MODELS})")
        k = checked_args(finite_float, k_factor_db=self.k_factor_db)[0]
        checked_args(lambda k: linear_from_db(k, 10.0), k_factor_db=k)  # draw_fades' linear factor
        object.__setattr__(self, "k_factor_db", k)


def hop_magnitudes(geom: LinkGeometry, *, tx_gain_dbi: float = 0.0,
                   ris_element_gain_dbi: float = 0.0, rx_gain_dbi: float = 0.0,
                   direct_blocked: bool = False) -> tuple[float, float, float]:
    """(a_d, a_h, a_g): free-space gain times end antenna gains of each hop, a_d = 0 if blocked.

    The hops are direct, satellite-to-surface and surface-to-terminal.
    Raises InvalidInput for a gain that is not finite_float, or whose linear
    value 10 ** (gain / 20) or a hop's product of two of them overflows.
    """
    tx, ris, rx = checked_args(lambda dbi: linear_from_db(dbi, 20.0), tx_gain_dbi=tx_gain_dbi,
                               ris_element_gain_dbi=ris_element_gain_dbi, rx_gain_dbi=rx_gain_dbi)
    for a, b, product in (("tx_gain_dbi", "ris_element_gain_dbi", tx * ris),
                          ("ris_element_gain_dbi", "rx_gain_dbi", ris * rx),
                          ("tx_gain_dbi", "rx_gain_dbi", tx * rx)):
        if not math.isfinite(product):
            raise InvalidInput(f"{a} and {b}: 10 ** ({a} / 20) * 10 ** ({b} / 20), a hop's gain, "
                               "overflows a float")
    f = geom.carrier_hz
    a_d = 0.0 if direct_blocked else tx * rx * fspl_amplitude(geom.d_direct_m, f)
    return (a_d, tx * ris * fspl_amplitude(geom.d_leo_ris_m, f),
            ris * rx * fspl_amplitude(geom.d_ris_ut_m, f))


@dataclass(frozen=True)
class Architecture:
    """Element interconnection topology of the surface."""

    kind: str  # "sc" | "fc" | "gc"
    groups: int | None = None  # group count, "gc" only

    def __post_init__(self):
        if self.kind not in ("sc", "fc", "gc"):
            raise InvalidInput(f"unknown architecture kind {self.kind!r}")
        if self.kind == "gc":
            try:
                groups = exact_int(self.groups)
            except ValueError:
                groups = 0
            if groups < 1:
                raise InvalidInput("group-connected architecture needs a positive integer group count")
            object.__setattr__(self, "groups", groups)
        elif self.groups is not None:
            raise InvalidInput(f"architecture {self.kind!r} takes no group count")

    @classmethod
    def from_label(cls, label: str) -> "Architecture":
        """Parse a textual label: "sc", "fc" or "gc:U", spelled as label gives it back."""
        if not isinstance(label, str):
            raise InvalidInput(f"architecture label must be a string, got {type(label).__name__}")
        text = label.strip()
        if text in ("sc", "fc"):
            return cls(text)
        if text.startswith("gc:"):
            count = text[3:]
            # no sign, space, underscore or leading zero: one spelling per architecture
            if not (count.isascii() and count.isdigit() and count == str(int(count))):
                raise InvalidInput(f"bad group count in architecture label {label!r}")
            return cls("gc", int(count))
        raise InvalidInput(f"unknown architecture label {label!r} (expected sc, fc or gc:U)")

    @property
    def label(self) -> str:
        if self.kind == "gc":
            return f"gc:{self.groups}"
        return self.kind

    def block_size(self, elements: int) -> int:
        """Side length of the unitary blocks for a surface with this many elements.

        InvalidInput unless elements is a positive exact_int integer that the group count divides.
        """
        elements = checked_args(exact_int, elements=elements)[0]
        if elements < 1:
            raise InvalidInput(f"element count must be positive, got {elements}")
        if self.kind == "sc":
            return 1
        if self.kind == "fc":
            return elements
        if elements % self.groups:
            raise InvalidInput(
                f"group count {self.groups} does not divide element count {elements}"
            )
        return elements // self.groups


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
        unfaded = [m * a_g * a_h + a_d for m in swept]
        values = (*_link(unfaded[0] * (1.0 / FADE_HEADROOM), self, math.log1p, _log10),
                  *_link(unfaded[1] * FADE_HEADROOM, self, math.log1p, _log10))
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"unfaded |h_eff| is {unfaded} at {list(swept)} elements, "
                              f"and fades may scale it by {FADE_HEADROOM:g} either way: link "
                              f"metrics would not be finite; check {LINK_BUDGET_KEYS}")
        # trial 0's certificate sums up to M squared entries of a_h and a_g, and squares a_d if
        # clear; the moments' squared deviations sum to at most 4 trials times the largest squared
        squares = [a * a for a in self.magnitudes[self.direct_link == "blocked":]]
        largest = max(map(abs, values))
        if not (all(sys.float_info.min <= s / FADE_HEADROOM <= s * FADE_HEADROOM * swept[1] < math.inf
                    for s in squares) and 4.0 * self.trials * largest * largest < math.inf):
            raise ConfigError(f"squares of hop magnitudes {squares} or of link metrics up to {largest:g} "
                              f"would leave the normal floats; check {LINK_BUDGET_KEYS}")

        # warned about only now, so a refused config logs nothing but its error
        warnings = [("skipping arch=%s elements=%d: %s", label, m, exc) for label, m, exc in skipped]
        if not KA_BAND_HZ[0] <= self.carrier_hz <= KA_BAND_HZ[1]:
            warnings.append(("carrier %.6g Hz is outside the Ka band %.4g-%.4g Hz",
                             self.carrier_hz, *KA_BAND_HZ))
        if warnings:
            import logging  # loaded on first use, so a config that warns of nothing never loads it
            logger = logging.getLogger(__name__)
            for warning in warnings:
                logger.warning(*warning)


def _link(h, cfg: SimConfig, log1p, log10) -> tuple:
    """(h, snr_db, rate_bps, ee_bits_per_joule) of gains h >= 0: the link equations, in one order.

    The budget gate passes floats, math.log1p and _log10; link_columns float64
    arrays and numpy's functions. h * h squares as numpy's ** 2 does, bit for
    bit, where a float's ** 2 would raise OverflowError.
    """
    snr = cfg.tx_power_w * (h * h) / cfg.noise_power_w
    # log1p keeps precision in the deep-noise regime where SNR << eps
    rate = cfg.bandwidth_hz * log1p(snr) / _LN2
    return h, 10.0 * log10(snr), rate, rate / (cfg.tx_power_w + cfg.static_power_w)


def _log10(x: float) -> float:
    """math.log10(x), but -inf at 0, as numpy's is."""
    return math.log10(x) if x else -math.inf


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
    import numpy as np  # loaded on first use, so building and checking a config loads no numpy
    cfg = _sim_config(cfg)
    h_eff = checked_args(number_array, h_eff=h_eff)[0]
    # in float64: an integer or narrow float would overflow or wrap in the square
    magnitude = np.abs(h_eff.astype(complex if h_eff.dtype.kind == "c" else float, copy=False))
    # a zero channel gives -inf dB, without numpy's divide-by-zero warning
    with np.errstate(divide="ignore"):
        return np.stack(_link(magnitude, cfg, np.log1p, np.log10), axis=-1)


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
