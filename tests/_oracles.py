"""Reference implementations that cross-check the package.

The brute-force grid searches check the closed-form optimizers
independently of them: each one searches a uniform grid of feasible
matrices and is refused for instances too large to search. loop_validate
is the entry-by-entry, block-by-block form of ris_core.validate.
per_trial_channels is the channel draw with one SeedSequence -> Philox ->
Generator construction per stream, the reference for the batched draw.
reference_csv is the CSV written one '%' format per row, the reference for
emit_csv's batched formatter. prefix_closed_form is the closed form of one
cell computed on its own prefix arrays, the reference for the shared
per-chunk terms of phase_optimizer.closed_form_cells.
"""

import math

import numpy as np

from ris_ntn_sim import (
    CSV_HEADER,
    SPEED_OF_LIGHT,
    Architecture,
    ChannelSet,
    ConstraintViolated,
    InvalidInput,
    OptimizeResult,
    PhaseShiftMatrix,
    fspl_amplitude,
    validate,
)
from ris_ntn_sim.ris_core import UNIT_TOLERANCE

# Floats carry 17 significant digits, which round-trips any finite double exactly.
ROW_FORMAT = "%s,%d,%s,%.17g,%.17g,%.17g,%.17g,%d\n"

_MASK64 = (1 << 64) - 1
_LINK_SAT_RIS, _LINK_RIS_UT, _LINK_DIRECT = 0, 1, 2
_COMPONENT_LOS_PHASE, _COMPONENT_DIFFUSE = 0, 1


def loop_validate(phi: PhaseShiftMatrix) -> None:
    """validate written as Python loops over entries and blocks, with the same errors."""
    mat = phi.matrix
    m = phi.elements
    size = phi.arch.block_size(m)
    for i in range(m):
        for j in range(m):
            if not np.isfinite(mat[i, j]):
                raise ConstraintViolated((i, j), float("inf"), "non-finite entry")
    for i in range(m):
        for j in range(m):
            if i // size != j // size and mat[i, j] != 0:
                raise ConstraintViolated(
                    (i, j), abs(mat[i, j]), "entry outside the diagonal/block pattern must be exactly zero"
                )
    for s in range(0, m, size):
        blk = mat[s:s + size, s:s + size]
        if size == 1:
            residual = abs(abs(blk[0, 0]) - 1.0)
            if not residual <= UNIT_TOLERANCE:
                raise ConstraintViolated((s, s), residual, "diagonal entry must have unit modulus")
        else:
            deviation = np.abs(blk.conj().T @ blk - np.eye(size))
            if not deviation.max() <= UNIT_TOLERANCE:
                i, j = np.unravel_index(int(deviation.argmax()), deviation.shape)
                raise ConstraintViolated((s + i, s + j), deviation.max(), "block is not unitary")


def brute_force_sc(ch: ChannelSet, grid: int) -> OptimizeResult:
    """Exhaustive search over per-element phases drawn from a uniform grid.

    Cost grows as grid**elements; refuses more than 4 elements. Test oracle,
    not a production path.
    """
    m = ch.elements
    if m > 4:
        raise ValueError(f"exhaustive search over grid^{m} points refused for more than 4 elements")
    if grid < 4:
        raise ValueError(f"grid must be at least 4, got {grid}")
    phasors = np.exp(2j * np.pi * np.arange(grid) / grid)
    cascade = ch.g * ch.h

    # accumulate elements m-1 .. 1 into a (grid,)*(m-1) tensor, then scan
    # element 0 one grid point at a time to bound memory
    acc = np.array(ch.h_d, dtype=np.complex128)
    for c_m in cascade[:0:-1]:
        acc = c_m * phasors.reshape((grid,) + (1,) * acc.ndim) + acc[None, ...]

    best_val = -1.0
    best_key: tuple[int, ...] = ()
    for k0 in range(grid):
        vals = np.abs(cascade[0] * phasors[k0] + acc)
        if m == 1:
            candidate, key = float(vals), (k0,)
        else:
            flat = int(vals.argmax())
            candidate = float(vals.ravel()[flat])
            key = (k0,) + tuple(int(i) for i in np.unravel_index(flat, vals.shape))
        if candidate > best_val:
            best_val, best_key = candidate, key

    phi = PhaseShiftMatrix(np.diag(phasors[list(best_key)]), Architecture("sc"), m)
    validate(phi)
    return OptimizeResult(phi, best_val, phi.arch)


def brute_force_fc2(ch: ChannelSet, grid: int) -> OptimizeResult:
    """Exhaustive search over 2x2 unitaries via the four-angle parametrization.

    Phi = exp(ja) [[exp(jb) cos c, exp(jd) sin c],
                   [-exp(-jd) sin c, exp(-jb) cos c]]
    with each angle swept over a uniform grid. Test oracle for two elements.
    """
    if ch.elements != 2:
        raise ValueError(f"this oracle is defined for exactly 2 elements, got {ch.elements}")
    if grid < 4:
        raise ValueError(f"grid must be at least 4, got {grid}")
    angles = 2.0 * np.pi * np.arange(grid) / grid
    e = np.exp(1j * angles)
    cos_c, sin_c = np.cos(angles), np.sin(angles)

    g1, g2 = ch.g
    h1, h2 = ch.h
    # g^T Phi h with the parametrized matrix, grouped by angle:
    # exp(ja) [cos c (g1 h1 e^{jb} + g2 h2 e^{-jb}) + sin c (g1 h2 e^{jd} - g2 h1 e^{-jd})]
    p = g1 * h1 * e + g2 * h2 * e.conj()  # over b
    q = g1 * h2 * e - g2 * h1 * e.conj()  # over d
    inner = (
        cos_c[None, :, None] * p[:, None, None]
        + sin_c[None, :, None] * q[None, None, :]
    ).ravel()

    best_val = -1.0
    best_a = best_flat = 0
    for a_idx in range(grid):
        vals = np.abs(ch.h_d + e[a_idx] * inner)
        flat = int(vals.argmax())
        if vals[flat] > best_val:
            best_val = float(vals[flat])
            best_a, best_flat = a_idx, flat

    b_idx, c_idx, d_idx = np.unravel_index(best_flat, (grid, grid, grid))
    mat = e[best_a] * np.array(
        [
            [e[b_idx] * cos_c[c_idx], e[d_idx] * sin_c[c_idx]],
            [-e[d_idx].conjugate() * sin_c[c_idx], e[b_idx].conjugate() * cos_c[c_idx]],
        ],
        dtype=np.complex128,
    )
    phi = PhaseShiftMatrix(mat, Architecture("fc"), 2)
    validate(phi)
    return OptimizeResult(phi, best_val, phi.arch)


def _stream(seed: int, link: int, component: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=(link, component))
    return np.random.Generator(np.random.Philox(seq))


def _fades(fading, count: int, seed: int, link: int) -> np.ndarray:
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


def per_trial_channels(
    geom,
    fading,
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


def prefix_closed_form(g: np.ndarray, h: np.ndarray, h_d, arch, m: int) -> np.ndarray:
    """|h_d| + sum_u ||g_u|| ||h_u|| over the blocks of the first m elements, from copies of them."""
    g, h = g[..., :m].copy(), h[..., :m].copy()
    if arch.kind == "sc":
        gain = np.abs(g * h).sum(axis=-1)
    else:
        blocks = g.shape[:-1] + (-1, arch.block_size(m))
        norms = [np.sqrt((x.real ** 2 + x.imag ** 2).reshape(blocks).sum(axis=-1)) for x in (g, h)]
        gain = (norms[0] * norms[1]).sum(axis=-1)
    return np.abs(h_d) + gain


def reference_csv(records) -> bytes:
    """The bytes of the CSV emit_csv writes for records: the header, then one formatted line per row."""
    return (CSV_HEADER + "\n" + "".join(ROW_FORMAT % tuple(r) for r in records)).encode()
