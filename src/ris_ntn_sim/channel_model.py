"""Seeded channel realizations for the satellite / relay-surface / terminal stack.

Each hop combines a deterministic free-space amplitude and carrier phase with
an optional Rician fade per element. A seed's fades come from one Philox
stream keyed (seed, 0); any key gives an independent stream (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11). Its standard normals
are laid out element-major, two per fade, so growing the element count
extends the stream instead of reshuffling earlier draws. Each Rician
draw_fades call makes its own Philox generator and checks the first normals
of two keys against known values, failing closed on any difference, before
it resets the generator to each seed's key for its chunk of seeds. No
generator outlives its call, so every later draw checks again and draws on
several threads share nothing. The sweep works on their powers and the real
hop magnitudes (hop_magnitudes), and generate_channels, the one complex draw,
multiplies one seed's fades by the complex hop amplitudes (channel_set) into
a ChannelSet, the type of one channel realization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (InvalidInput, SimulatorError, checked_args, exact_int, finite_float, linear_from_db,
                     number_array, positive_float)

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


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization: per-element hop vectors plus the direct path.

    h holds the satellite-to-surface amplitude gains, g the surface-to-terminal
    amplitude gains, and h_d the direct satellite-to-terminal gain. All values
    are dimensionless complex amplitude ratios; each must hold numbers
    (number_array), and h_d be a scalar, else InvalidInput.
    """

    h: np.ndarray
    g: np.ndarray
    h_d: complex

    def __post_init__(self):
        h, g, h_d = checked_args(number_array, h=self.h, g=self.g, h_d=self.h_d)
        if h_d.ndim:
            raise InvalidInput(f"h_d must be a scalar, got shape {h_d.shape}")
        h = np.array(h, dtype=np.complex128, copy=True)
        g = np.array(g, dtype=np.complex128, copy=True)
        if h.ndim != 1 or g.ndim != 1 or h.size != g.size or h.size < 1:
            raise InvalidInput(
                f"h and g must be 1-D vectors of equal positive length, got {h.shape} and {g.shape}"
            )
        h_d = complex(h_d)
        if not (np.isfinite(h).all() and np.isfinite(g).all() and np.isfinite([h_d]).all()):
            raise InvalidInput("channel entries must be finite")
        h.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h_d", h_d)

    @property
    def elements(self) -> int:
        return int(self.h.size)


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


def _generator() -> np.random.Generator:
    """A new Philox generator, returned only if it gives _KNOWN_NORMALS, else SimulatorError."""
    # its seed is immaterial: every trial sets its own key and counter
    generator = np.random.Generator(np.random.Philox(0))
    for key, expected in _KNOWN_NORMALS.items():
        if _restart(generator, list(key)).standard_normal(4).tolist() != list(expected):
            raise SimulatorError(f"Philox normals under key {key} differ from their known values")
    return generator


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
    generator = _generator()
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
    elements and seed must be exact_int integers, and direct_blocked a bool,
    Python's or numpy's, else InvalidInput.
    """
    elements, seed = checked_args(exact_int, elements=elements, seed=seed)
    if not isinstance(direct_blocked, (bool, np.bool_)):
        raise InvalidInput(f"direct_blocked must be a bool, got {type(direct_blocked).__name__}")
    magnitudes = hop_magnitudes(geom, tx_gain_dbi=tx_gain_dbi,
                                ris_element_gain_dbi=ris_element_gain_dbi,
                                rx_gain_dbi=rx_gain_dbi, direct_blocked=direct_blocked)
    return channel_set(geom, draw_fades(fading, elements, [seed & _MASK64])[0], magnitudes)
