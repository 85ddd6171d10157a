"""Reference implementations that cross-check the package.

The brute-force grid searches check the closed-form optimizers
independently of them: each one searches a uniform grid of feasible
matrices and is refused for instances too large to search. loop_validate
is the entry-by-entry, block-by-block form of ris_core.validate.
per_trial_fades and per_trial_channels draw one trial with a Philox generator
of its own, the reference for the batched draw_fades and for
generate_channels. reference_csv is the CSV written one '%' format per row,
the reference for emit_csv's batched formatter. prefix_closed_form is the
cascade gain of one cell computed on its own prefix arrays, the reference for
the shared per-chunk terms of phase_optimizer.closed_form_cells.
trial_by_trial_csv is a sweep's CSV with every trial drawn and evaluated on
its own, the reference for run_sweep's chunks and for its single evaluated
row of a pure line-of-sight chunk.
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
    RfConfig,
    build_geometry,
    derive_trial_seed,
    fspl_amplitude,
    link_columns,
    validate,
)
from ris_ntn_sim import sweep
from ris_ntn_sim.phase_optimizer import closed_form_cells
from ris_ntn_sim.ris_core import UNIT_TOLERANCE

# Floats carry 17 significant digits, which round-trips any finite double exactly.
ROW_FORMAT = "%s,%d,%s,%.17g,%.17g,%.17g,%.17g,%d\n"

_MASK64 = (1 << 64) - 1


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


def per_trial_fades(fading, rows: int, seed: int) -> np.ndarray:
    """(rows,) complex fades of one trial: row 0 the direct link, rows 1 + 2i, 2 + 2i element i's hops."""
    if fading.model == "pure_los":
        return np.ones(rows, dtype=np.complex128)
    key = np.array([int(seed) & _MASK64, 0], dtype=np.uint64)
    n = np.random.Generator(np.random.Philox(key=key)).standard_normal((rows, 2))
    k_lin = 10.0 ** (fading.k_factor_db / 10.0)
    sigma = math.sqrt(0.5 / (k_lin + 1.0))  # per real component
    fades = np.empty(rows, dtype=np.complex128)
    fades.real = math.sqrt(k_lin / (k_lin + 1.0)) + sigma * n[:, 0]
    fades.imag = sigma * n[:, 1]
    return fades


def _hop_magnitudes(geom, tx_gain_dbi: float, ris_element_gain_dbi: float, rx_gain_dbi: float,
                    direct_blocked: bool) -> tuple[float, float, float]:
    """(a_d, a_h, a_g): free-space gain times end antenna gains of each hop, a_d = 0 if blocked."""
    f = geom.carrier_hz
    gain_tx = 10.0 ** (tx_gain_dbi / 20.0)
    gain_ris = 10.0 ** (ris_element_gain_dbi / 20.0)
    gain_rx = 10.0 ** (rx_gain_dbi / 20.0)
    a_d = 0.0 if direct_blocked else gain_tx * gain_rx * fspl_amplitude(geom.d_direct_m, f)
    return (a_d, gain_tx * gain_ris * fspl_amplitude(geom.d_leo_ris_m, f),
            gain_ris * gain_rx * fspl_amplitude(geom.d_ris_ut_m, f))


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
    element gets one fade draw. With direct_blocked the direct path gain is
    zero.
    """
    if elements < 1:
        raise InvalidInput(f"element count must be positive, got {elements}")
    f = geom.carrier_hz

    def phasor(distance_m: float) -> complex:
        phase = -2.0 * math.pi * distance_m * f / SPEED_OF_LIGHT
        return complex(math.cos(phase), math.sin(phase))

    a_d, a_h, a_g = _hop_magnitudes(geom, tx_gain_dbi, ris_element_gain_dbi, rx_gain_dbi,
                                    direct_blocked)
    fades = per_trial_fades(fading, 1 + 2 * elements, seed)
    h = a_h * phasor(geom.d_leo_ris_m) * fades[1::2]
    g = a_g * phasor(geom.d_ris_ut_m) * fades[2::2]
    return ChannelSet(h=h, g=g, h_d=a_d * phasor(geom.d_direct_m) * fades[0])


def prefix_closed_form(power_g: np.ndarray, power_h: np.ndarray, arch, m: int) -> np.ndarray:
    """sum_u ||g_u|| ||h_u|| over the blocks of the first m elements, from copies of |g|^2 and |h|^2."""
    power_g, power_h = power_g[..., :m].copy(), power_h[..., :m].copy()
    if arch.kind == "sc":
        return np.sqrt(power_g * power_h).sum(axis=-1)
    blocks = power_g.shape[:-1] + (-1, arch.block_size(m))
    norms = [np.sqrt(x.reshape(blocks).sum(axis=-1)) for x in (power_g, power_h)]
    return (norms[0] * norms[1]).sum(axis=-1)


def reference_csv(records) -> bytes:
    """The bytes of the CSV emit_csv writes for records: the header, then one formatted line per row."""
    return (CSV_HEADER + "\n" + "".join(ROW_FORMAT % tuple(r) for r in records)).encode()


def trial_by_trial_csv(cfg, chunk_trials: int) -> bytes:
    """The CSV of cfg's sweep with each trial's channel drawn from its own seed and evaluated alone.

    The aggregates merge the trial values chunk_trials trials at a time
    through the sweep's own moments, as run_sweep merges its chunks.
    """
    geom = build_geometry(cfg)
    rf = RfConfig(cfg.tx_power_dbm, cfg.bandwidth_hz, cfg.noise_psd_dbm_hz, cfg.static_power_w)
    a_d, a_h, a_g = _hop_magnitudes(geom, cfg.tx_gain_dbi, cfg.ris_element_gain_dbi,
                                    cfg.rx_gain_dbi, cfg.direct_link == "blocked")
    cells = sweep._cells(cfg)
    designs = [(arch, m) for _, arch, m in cells]
    m_max = max(m for _, m in designs)
    seeds = [derive_trial_seed(cfg.seed, t) for t in range(cfg.trials)]
    rows = []
    for seed in seeds:
        fades = per_trial_fades(cfg.fading_spec, 1 + 2 * m_max, seed)
        power = (fades.real * fades.real + fades.imag * fades.imag)[None]
        h_eff = a_g * a_h * closed_form_cells(power[:, 2::2], power[:, 1::2], designs)
        rows.append(link_columns(h_eff + a_d * np.sqrt(power[:, 0]), rf)[:, 0])
    values = np.stack(rows, axis=1)  # (cells, trials, 4)
    moments = sweep._Moments(len(cells))
    for start in range(0, cfg.trials, chunk_trials):
        moments.add(np.ascontiguousarray(values[:, start:start + chunk_trials]))
    records = []
    for c, (label, _, m) in enumerate(cells):
        records += [(label, m, t, *values[c, t].tolist(), seed) for t, seed in enumerate(seeds)]
        records.append((label, m, "mean", *moments.mean[c].tolist(), cfg.seed))
        records.append((label, m, "stderr", *moments.stderr()[c].tolist(), cfg.seed))
    return reference_csv(records)
