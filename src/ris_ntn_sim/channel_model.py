"""Seeded channel realizations for the satellite / relay-surface / terminal stack.

Each hop combines a deterministic free-space amplitude and carrier phase with
an optional Rician fade per element. Randomness comes from counter-based
Philox streams keyed by (seed, link, component); draws are laid out
element-major, so growing the element count extends every stream instead of
reshuffling earlier draws.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .ris_core import ChannelSet

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0  # m/s
KA_BAND_HZ = (17.7e9, 19.7e9)

_MASK64 = (1 << 64) - 1

# Stream keys. One independent Philox stream per (link, component) pair so a
# draw for one quantity never shifts the draws for another.
_LINK_SAT_RIS, _LINK_RIS_UT, _LINK_DIRECT = 0, 1, 2
_COMPONENT_LOS_PHASE, _COMPONENT_DIFFUSE = 0, 1


def fspl_amplitude(distance_m: float, freq_hz: float) -> float:
    """Free-space amplitude gain lambda / (4 pi d) of one hop."""
    if distance_m <= 0:
        raise InvalidInput(f"distance must be positive, got {distance_m}")
    if freq_hz <= 0:
        raise InvalidInput(f"frequency must be positive, got {freq_hz}")
    return SPEED_OF_LIGHT / (4.0 * math.pi * distance_m * freq_hz)


def path_loss_db(distance_m: float, freq_hz: float) -> float:
    """One-hop free-space power loss in dB, 20*log10(4 pi d f / c)."""
    return -20.0 * math.log10(fspl_amplitude(distance_m, freq_hz))


@dataclass(frozen=True)
class LinkGeometry:
    """Altitudes, carrier and slant distances of the vertical satellite stack."""

    leo_altitude_m: float
    haps_altitude_m: float
    carrier_hz: float
    d_direct_m: float
    d_leo_ris_m: float
    d_ris_ut_m: float

    def __post_init__(self):
        if not (self.leo_altitude_m > self.haps_altitude_m > 0):
            raise InvalidInput(
                f"need leo_altitude_m > haps_altitude_m > 0, "
                f"got {self.leo_altitude_m} and {self.haps_altitude_m}"
            )
        if self.carrier_hz <= 0:
            raise InvalidInput(f"carrier must be positive, got {self.carrier_hz}")
        if min(self.d_direct_m, self.d_leo_ris_m, self.d_ris_ut_m) <= 0:
            raise InvalidInput("slant distances must all be positive")
        if self.d_leo_ris_m + self.d_ris_ut_m < self.d_direct_m * (1.0 - 1e-9):
            raise InvalidInput("two-hop distance cannot be shorter than the direct distance")
        if not KA_BAND_HZ[0] <= self.carrier_hz <= KA_BAND_HZ[1]:
            logger.warning(
                "carrier %.6g Hz is outside the Ka band %.4g-%.4g Hz",
                self.carrier_hz, KA_BAND_HZ[0], KA_BAND_HZ[1],
            )


def build_geometry(cfg) -> LinkGeometry:
    """Nadir-stack geometry: satellite, relay surface and terminal co-vertical.

    cfg is anything with leo_altitude_m, haps_altitude_m and carrier_hz
    attributes. The direct distance equals the satellite altitude, the
    satellite-to-surface distance is the altitude difference, and the
    surface-to-terminal distance is the platform altitude.
    """
    leo = float(cfg.leo_altitude_m)
    haps = float(cfg.haps_altitude_m)
    return LinkGeometry(
        leo_altitude_m=leo,
        haps_altitude_m=haps,
        carrier_hz=float(cfg.carrier_hz),
        d_direct_m=leo,
        d_leo_ris_m=leo - haps,
        d_ris_ut_m=haps,
    )


FADING_MODELS = ("pure_los", "rician")
PHASE_MODES = ("common_los", "iid_uniform")


@dataclass(frozen=True)
class FadingSpec:
    """Per-element small-scale fading model, normalized to unit mean power.

    A Rician fade with linear factor k is sqrt(k/(k+1)) * exp(j theta) plus
    sqrt(1/(k+1)) times a standard complex Gaussian, so E|fade|^2 = 1 for any
    k. theta is zero in common_los mode and i.i.d. uniform per element in
    iid_uniform mode.
    """

    model: str = "rician"
    k_factor_db: float = 10.0
    phase_mode: str = "iid_uniform"

    def __post_init__(self):
        if self.model not in FADING_MODELS:
            raise ValueError(f"unknown fading model {self.model!r} (expected {FADING_MODELS})")
        if self.phase_mode not in PHASE_MODES:
            raise ValueError(f"unknown phase mode {self.phase_mode!r} (expected {PHASE_MODES})")
        if not math.isfinite(self.k_factor_db):
            raise ValueError("k_factor_db must be finite")

    @classmethod
    def pure_los(cls) -> "FadingSpec":
        return cls(model="pure_los", phase_mode="common_los")


def _stream(seed: int, link: int, component: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(link, component))
    return np.random.Generator(np.random.Philox(seq))


def _fades(fading: FadingSpec, count: int, seed: int, link: int) -> np.ndarray:
    if fading.model == "pure_los":
        return np.ones(count, dtype=np.complex128)
    k_lin = 10.0 ** (fading.k_factor_db / 10.0)
    los_amp = math.sqrt(k_lin / (k_lin + 1.0))
    diffuse_amp = math.sqrt(1.0 / (k_lin + 1.0))
    if fading.phase_mode == "common_los":
        los = np.full(count, los_amp, dtype=np.complex128)
    else:
        theta = _stream(seed, link, _COMPONENT_LOS_PHASE).uniform(0.0, 2.0 * math.pi, count)
        los = los_amp * np.exp(1j * theta)
    # (count, 2) in C order: element i always consumes draws 2i and 2i+1
    pair = _stream(seed, link, _COMPONENT_DIFFUSE).standard_normal((count, 2))
    diffuse = (pair[:, 0] + 1j * pair[:, 1]) / math.sqrt(2.0)
    return los + diffuse_amp * diffuse


def generate_channels(
    geom: LinkGeometry,
    fading: FadingSpec,
    elements: int,
    seed: int,
    *,
    tx_gain_dbi: float = 0.0,
    ris_element_gain_dbi: float = 0.0,
    rx_gain_dbi: float = 0.0,
    direct_blocked: bool = False,
) -> ChannelSet:
    """One seeded channel realization for a surface with the given element count.

    Per hop the amplitude is the free-space gain times the endpoint antenna
    gains, the phase is the carrier phase over the slant distance, and each
    element gets one fade draw. The result is a pure function of the
    arguments: identical inputs give bit-identical output, and draws for
    element i never move when the element count grows. With direct_blocked
    the direct path gain is exactly zero.
    """
    if elements < 1:
        raise InvalidInput(f"element count must be positive, got {elements}")
    f = geom.carrier_hz
    gain_tx = 10.0 ** (tx_gain_dbi / 20.0)
    gain_ris = 10.0 ** (ris_element_gain_dbi / 20.0)
    gain_rx = 10.0 ** (rx_gain_dbi / 20.0)

    def hop(distance_m: float) -> complex:
        phase = -2.0 * math.pi * distance_m * f / SPEED_OF_LIGHT
        return fspl_amplitude(distance_m, f) * complex(math.cos(phase), math.sin(phase))

    h = gain_tx * gain_ris * hop(geom.d_leo_ris_m) * _fades(fading, elements, seed, _LINK_SAT_RIS)
    g = gain_ris * gain_rx * hop(geom.d_ris_ut_m) * _fades(fading, elements, seed, _LINK_RIS_UT)
    if direct_blocked:
        h_d = 0j
    else:
        h_d = gain_tx * gain_rx * hop(geom.d_direct_m) * complex(
            _fades(fading, 1, seed, _LINK_DIRECT)[0]
        )
    return ChannelSet(h=h, g=g, h_d=h_d)
