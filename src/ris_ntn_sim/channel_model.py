"""Seeded channel realizations for the satellite / relay-surface / terminal stack.

Each hop combines a deterministic free-space amplitude and carrier phase with
an optional Rician fade per element. A seed's fades come from one Philox
stream keyed (seed, 0); any key gives an independent stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). Its standard normals
are laid out element-major, two per fade, so growing the element count
extends the stream instead of reshuffling earlier draws. draw_fades draws a
chunk of seeds with one Philox generator, reset to each seed's key; the sweep
works on their powers and the real hop magnitudes (hop_magnitudes), and
generate_channels, the one complex draw, multiplies one seed's fades by the
complex hop amplitudes (channel_set). The first Rician draw of a process
checks the first normals of two keys against known values and fails closed
on any difference.
"""
from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SimulatorError
from .ris_core import ChannelSet

logger = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0  # m/s
KA_BAND_HZ = (17.7e9, 19.7e9)

_MASK64 = (1 << 64) - 1

# The first four standard normals of Generator(Philox(key=key)), from numpy 2.4.6.
_KNOWN_NORMALS = {
    (0, 0): (0.15929546600623282, -1.7741885208017214, 1.3265118818830892, 1.2048090979493156),
    (_MASK64, 0): (-2.7686715823603945, 1.6779206516595908, -0.45223270389849135, 2.5150349369881924),
}


def fspl_amplitude(distance_m: float, freq_hz: float) -> float:
    """Free-space amplitude gain lambda / (4 pi d) of one hop.

    Raises InvalidInput unless the inputs and the gain are finite and positive.
    """
    for name, value in (("distance", distance_m), ("frequency", freq_hz)):
        if not 0 < value < math.inf:
            raise InvalidInput(f"{name} must be finite and positive, got {value}")
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


@dataclass(frozen=True)
class FadingSpec:
    """Per-element small-scale fading model, normalized to unit mean power.

    A Rician fade with linear factor k is sqrt(k/(k+1)) plus sqrt(1/(k+1))
    times a standard complex Gaussian, so E|fade|^2 = 1 for any k. With one
    antenna at each end no output depends on the phase of the line-of-sight
    term, and the envelope's law does not either (Rice), so it is zero.
    """

    model: str = "rician"
    k_factor_db: float = 10.0

    def __post_init__(self):
        if self.model not in FADING_MODELS:
            raise ValueError(f"unknown fading model {self.model!r} (expected {FADING_MODELS})")
        if not math.isfinite(self.k_factor_db):
            raise ValueError("k_factor_db must be finite")

    @classmethod
    def pure_los(cls) -> "FadingSpec":
        return cls(model="pure_los")


@functools.cache
def _check_known_normals() -> None:
    """Fail closed unless the reset Philox streams still give their known normals; checked once per process."""
    generator = np.random.Generator(np.random.Philox(0))
    for key, expected in _KNOWN_NORMALS.items():
        if _restart(generator, list(key)).standard_normal(4).tolist() != list(expected):
            raise SimulatorError(f"Philox normals under key {key} differ from their known values")


def _restart(generator: np.random.Generator, key) -> np.random.Generator:
    """generator, its Philox reset to the start of the stream under key, a pair of uint64 ints."""
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": key},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer empty, as in a new Philox
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def draw_fades(fading: FadingSpec, elements: int, seeds) -> np.ndarray:
    """(seeds, 1 + 2 * elements, 2) floats: each row's fade as its real and imaginary parts.

    Row 0 is the direct link; rows 1 + 2i and 2 + 2i are element i's
    satellite-to-surface and surface-to-terminal hops. Rician row r of a
    uint64 seed takes normals 2r and 2r + 1 of the stream under key (seed, 0),
    the direct link's even when it is blocked; its fade is
    (sqrt(k/(k+1)) + sigma n0) + j sigma n1 with sigma = sqrt(1/(2(k+1))).
    A pure line-of-sight fade is 1 and draws nothing.
    """
    if elements < 1:
        raise InvalidInput(f"element count must be positive, got {elements}")
    rows = 1 + 2 * elements
    if fading.model == "pure_los":
        return np.tile((1.0, 0.0), (len(seeds), rows, 1))
    _check_known_normals()
    # its seed is immaterial: every trial sets its own key and counter
    generator = np.random.Generator(np.random.Philox(0))
    k_lin = 10.0 ** (fading.k_factor_db / 10.0)
    fades = np.empty((len(seeds), rows, 2))
    for seed, block in zip(np.asarray(seeds, dtype=np.uint64).tolist(), fades):
        _restart(generator, [seed, 0]).standard_normal(out=block)
    fades *= math.sqrt(0.5 / (k_lin + 1.0))
    fades[..., 0] += math.sqrt(k_lin / (k_lin + 1.0))
    return fades


def hop_magnitudes(geom: LinkGeometry, *, tx_gain_dbi: float = 0.0,
                   ris_element_gain_dbi: float = 0.0, rx_gain_dbi: float = 0.0,
                   direct_blocked: bool = False) -> tuple[float, float, float]:
    """(a_d, a_h, a_g): free-space gain times end antenna gains of each hop, a_d = 0 if blocked.

    The hops are direct, satellite-to-surface and surface-to-terminal.
    """
    tx, ris, rx = (10.0 ** (dbi / 20.0) for dbi in (tx_gain_dbi, ris_element_gain_dbi, rx_gain_dbi))
    f = geom.carrier_hz
    a_d = 0.0 if direct_blocked else tx * rx * fspl_amplitude(geom.d_direct_m, f)
    return (a_d, tx * ris * fspl_amplitude(geom.d_leo_ris_m, f),
            ris * rx * fspl_amplitude(geom.d_ris_ut_m, f))


def channel_set(geom: LinkGeometry, fades: np.ndarray,
                magnitudes: tuple[float, float, float]) -> ChannelSet:
    """The channel of one trial's (1 + 2M, 2) fades, each times its hop's magnitude and phase."""
    distances = (geom.d_direct_m, geom.d_leo_ris_m, geom.d_ris_ut_m)
    phases = [-2.0 * math.pi * d * geom.carrier_hz / SPEED_OF_LIGHT for d in distances]
    a_d, a_h, a_g = (a * complex(math.cos(p), math.sin(p)) for a, p in zip(magnitudes, phases))
    f = fades.view(np.complex128)[:, 0]
    return ChannelSet(h=a_h * f[1::2], g=a_g * f[2::2], h_d=a_d * f[0])


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

    The package's one complex draw: draw_fades' fades of seed mod 2^64 times
    the complex hop amplitudes (channel_set). The result is a pure function
    of the arguments, and draws for element i never move when the element
    count grows. With direct_blocked the direct path gain is exactly zero.
    """
    magnitudes = hop_magnitudes(geom, tx_gain_dbi=tx_gain_dbi,
                                ris_element_gain_dbi=ris_element_gain_dbi,
                                rx_gain_dbi=rx_gain_dbi, direct_blocked=direct_blocked)
    return channel_set(geom, draw_fades(fading, elements, [int(seed) & _MASK64])[0], magnitudes)
