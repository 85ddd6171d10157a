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
hop magnitudes (config.hop_magnitudes), and generate_channels, the one complex draw,
multiplies one seed's fades by the complex hop amplitudes (channel_set) into
a ChannelSet, the type of one channel realization.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, FadingSpec, LinkGeometry, hop_magnitudes
from .errors import InvalidInput, SimulatorError, checked_args, exact_int, number_array

_MASK64 = (1 << 64) - 1

# The first four standard normals of Generator(Philox(key=key)), from numpy 2.4.6.
_KNOWN_NORMALS = {
    (0, 0): (0.15929546600623282, -1.7741885208017214, 1.3265118818830892, 1.2048090979493156),
    (_MASK64, 0): (-2.7686715823603945, 1.6779206516595908, -0.45223270389849135, 2.5150349369881924),
}


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
