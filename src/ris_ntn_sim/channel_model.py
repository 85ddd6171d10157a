"""Seeded channel realizations for the satellite / relay-surface / terminal stack.

Each hop combines a deterministic free-space amplitude and carrier phase with
an optional Rician fade per element. Randomness comes from counter-based
Philox streams, one per (seed, link, component); draws are laid out
element-major, so growing the element count extends every stream instead of
reshuffling earlier draws.

A stream's Philox key is the one numpy derives from
SeedSequence(seed, spawn_key=(link, component)).generate_state(2, uint64).
That derivation is fixed uint32 hashing and mixing, which numpy keeps stable
across releases (NEP 19), so stream_keys evaluates it for a whole array of
seeds at once: the seed-independent hash constants, zero entropy words and
spawn words are precomputed, the seed words are mixed into the pool once,
and the six spawn keys are mixed in by broadcasting. draw_channels then
draws a chunk of seeds with one local Philox generator, setting its state
from plain ints to each stream's key with a zero counter, not building a new
generator per stream. generate_channels is its one-seed case. The first
Rician draw of a process checks stream_keys against numpy's own SeedSequence
and fails closed on any difference.
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

# Stream keys. One independent Philox stream per (link, component) pair so a
# draw for one quantity never shifts the draws for another.
_LINK_SAT_RIS, _LINK_RIS_UT, _LINK_DIRECT = 0, 1, 2
_COMPONENT_LOS_PHASE, _COMPONENT_DIFFUSE = 0, 1
LINKS, COMPONENTS = 3, 2

# numpy's SeedSequence hashing and mixing (numpy/random/bit_generator.pyx),
# evaluated on uint32 arrays, which wrap modulo 2^32 as its C code does.
_MIX_L, _MIX_R, _XSHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**i mod 2^32 for i = 0 .. count."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


# Hash call k xors with _HASH_A[k] and multiplies by _HASH_A[k + 1];
# generate_state hashes pool word i the same way with _HASH_B.
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 24)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 4)


def _calls(k) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of hash call k, elementwise for an array of calls."""
    k = np.asarray(k)
    return _HASH_A[k], _HASH_A[k + 1]


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ value >> _XSHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> _XSHIFT


def _pool_calls(src: int) -> tuple[np.ndarray, np.ndarray]:
    """Hash calls mixing pool word src into the others, listed as src+1, src+2, src+3 mod 4."""
    rolled = [(src + j) % 4 for j in (1, 2, 3)]
    return _calls([[4 + 3 * src + sorted(rolled).index(dst)] for dst in rolled])


# With a spawn key, numpy pads the seed's words with zeros to the pool size,
# so the entropy is (seed low word, seed high word, 0, 0, link, component).
# Hash calls 0-3 take the first four words into the pool, calls 4-15 mix each
# pool word into the three others, and calls 16-23 mix in link and component.
# Everything but the seed words is precomputed here.
_SEED_CALLS = _calls([[0], [1]])
_ZERO_WORDS = _hashmix(np.zeros((2, 1), dtype=np.uint32), *_calls([[2], [3]]))
_POOL_CALLS = [_pool_calls(src) for src in range(4)]
_POOL_WORD = np.arange(4)[:, None]
# (link, component, pool word, seed) broadcasting shapes
_SPAWN_LINK = _hashmix(np.arange(LINKS, dtype=np.uint32)[:, None, None, None],
                       *_calls(16 + _POOL_WORD))
_SPAWN_COMPONENT = _hashmix(np.arange(COMPONENTS, dtype=np.uint32)[None, :, None, None],
                            *_calls(20 + _POOL_WORD))
_STATE_CALLS = _HASH_B[:4, None], _HASH_B[1:, None]

_PHILOX_ZERO = (0, 0, 0, 0)


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


def stream_keys(seeds) -> np.ndarray:
    """Philox keys of each seed's streams, shape (seeds, LINKS, COMPONENTS, 2).

    keys[i, link, component] equals
    np.random.SeedSequence(seeds[i], spawn_key=(link, component)).generate_state(2, np.uint64)
    for every seed in [0, 2^64), computed for all seeds at once.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    # Rows src .. src+3 hold the pool rolled so that word src, the one mixed
    # into the others next, comes first; rows 4-7 end up as words 0-3.
    pool = np.empty((8, seeds.size), dtype=np.uint32)
    pool[0] = seeds
    pool[1] = seeds >> np.uint64(32)
    pool[:2] = _hashmix(pool[:2], *_SEED_CALLS)
    pool[2:4] = _ZERO_WORDS
    for src, calls in enumerate(_POOL_CALLS):
        pool[src + 1:src + 4] = _mix(pool[src + 1:src + 4], _hashmix(pool[src], *calls))
        pool[src + 4] = pool[src]
    state = _hashmix(_mix(_mix(pool[4:], _SPAWN_LINK), _SPAWN_COMPONENT), *_STATE_CALLS)
    # generate_state pairs the uint32 words little-endian into uint64
    state = np.ascontiguousarray(state.transpose(3, 0, 1, 2), dtype="<u4").view("<u8")
    return state.astype(np.uint64, copy=False)


@functools.cache
def _check_stream_keys() -> None:
    """Fail closed unless stream_keys gives numpy's SeedSequence keys; checked once per process.

    The seeds cover one- and two-word entropy, with every (link, component) spawn key.
    """
    seeds = (0, 2**32 - 1, 2**32, 2**64 - 1)
    for seed, keys in zip(seeds, stream_keys(seeds)):
        for link in range(LINKS):
            for component in range(COMPONENTS):
                sequence = np.random.SeedSequence(seed, spawn_key=(link, component))
                if keys[link, component].tolist() != sequence.generate_state(2, np.uint64).tolist():
                    raise SimulatorError(
                        f"Philox key of stream (link={link}, component={component}) "
                        f"differs from numpy's SeedSequence for seed {seed}")


def _restart(generator: np.random.Generator, key) -> np.random.Generator:
    """generator, its Philox reset to the start of the stream under key, a pair of uint64 ints."""
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZERO, "key": key},
        "buffer": _PHILOX_ZERO,
        "buffer_pos": 4,  # buffer empty, as in a new Philox
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def _rician_fades(fading: FadingSpec, count: int, keys: np.ndarray,
                  generator: np.random.Generator) -> np.ndarray:
    """(seeds, count) fades of one link, from its (seeds, component, 2) stream keys."""
    k_lin = 10.0 ** (fading.k_factor_db / 10.0)
    los_amp = math.sqrt(k_lin / (k_lin + 1.0))
    diffuse_amp = math.sqrt(1.0 / (k_lin + 1.0))
    if fading.phase_mode == "common_los":
        los = np.full((len(keys), count), los_amp, dtype=np.complex128)
    else:
        theta = np.empty((len(keys), count))
        for key, row in zip(keys[:, _COMPONENT_LOS_PHASE].tolist(), theta):
            _restart(generator, key).random(out=row)
        # uniform(0, 2 pi) is 0 + 2 pi u with the u that random() draws
        theta *= 2.0 * math.pi
        los = los_amp * np.exp(1j * theta)
    # (count, 2) per seed in C order: element i always consumes draws 2i and 2i+1
    pair = np.empty((len(keys), count, 2))
    for key, row in zip(keys[:, _COMPONENT_DIFFUSE].tolist(), pair):
        _restart(generator, key).standard_normal(out=row)
    diffuse = (pair[..., 0] + 1j * pair[..., 1]) / math.sqrt(2.0)
    return los + diffuse_amp * diffuse


def _python_product(a: complex, z: np.ndarray) -> np.ndarray:
    """a * z elementwise, rounded as Python's complex product (numpy's may fuse a multiply-add)."""
    out = np.empty_like(z)
    out.real = a.real * z.real - a.imag * z.imag
    out.imag = a.real * z.imag + a.imag * z.real
    return out


def draw_channels(
    geom: LinkGeometry,
    fading: FadingSpec,
    elements: int,
    seeds,
    *,
    tx_gain_dbi: float = 0.0,
    ris_element_gain_dbi: float = 0.0,
    rx_gain_dbi: float = 0.0,
    direct_blocked: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h and g, (seeds, elements), and h_d, (seeds,), of one realization per uint64 seed.

    Row i is generate_channels(geom, fading, elements, seeds[i], ...) bit for
    bit. Pure line-of-sight fading draws nothing and derives no keys.
    Channel entries are not checked for finiteness. A Rician draw raises
    SimulatorError if stream_keys differs from numpy's SeedSequence.
    """
    if elements < 1:
        raise InvalidInput(f"element count must be positive, got {elements}")
    trials = len(seeds)
    f = geom.carrier_hz
    gain_tx = 10.0 ** (tx_gain_dbi / 20.0)
    gain_ris = 10.0 ** (ris_element_gain_dbi / 20.0)
    gain_rx = 10.0 ** (rx_gain_dbi / 20.0)

    def hop(distance_m: float) -> complex:
        phase = -2.0 * math.pi * distance_m * f / SPEED_OF_LIGHT
        return fspl_amplitude(distance_m, f) * complex(math.cos(phase), math.sin(phase))

    if fading.model == "pure_los":
        def fades(link: int, count: int) -> np.ndarray:
            return np.ones((trials, count), dtype=np.complex128)
    else:
        _check_stream_keys()
        keys = stream_keys(seeds)
        # its seed is immaterial: every stream sets its own key and counter
        generator = np.random.Generator(np.random.Philox(0))

        def fades(link: int, count: int) -> np.ndarray:
            return _rician_fades(fading, count, keys[:, link], generator)

    h = gain_tx * gain_ris * hop(geom.d_leo_ris_m) * fades(_LINK_SAT_RIS, elements)
    g = gain_ris * gain_rx * hop(geom.d_ris_ut_m) * fades(_LINK_RIS_UT, elements)
    if direct_blocked:
        h_d = np.zeros(trials, dtype=np.complex128)
    else:
        h_d = _python_product(gain_tx * gain_rx * hop(geom.d_direct_m),
                              fades(_LINK_DIRECT, 1)[:, 0])
    return h, g, h_d


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
    h, g, h_d = draw_channels(
        geom, fading, elements, [int(seed) & _MASK64],
        tx_gain_dbi=tx_gain_dbi, ris_element_gain_dbi=ris_element_gain_dbi,
        rx_gain_dbi=rx_gain_dbi, direct_blocked=direct_blocked,
    )
    return ChannelSet(h=h[0], g=g[0], h_d=h_d[0])
