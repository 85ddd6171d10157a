"""Closed-form phase-shift designs maximizing |g^T Phi h + h_d|, plus oracles.

With one transmit and one receive antenna every architecture has an exact
optimum. A diagonal matrix aligns each cascade term g_m h_m with the direct
path, reaching |h_d| + sum |g_m h_m|. A unitary matrix rotates h onto the
conjugate of g, reaching |h_d| + ||g|| ||h|| (the Cauchy-Schwarz bound), and
a block-diagonal design applies that rotation per group. The brute-force
searches exist as independent cross-checks for small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooLarge, WrongDimension
from .ris_core import Architecture, ChannelSet, PhaseShiftMatrix, validate


@dataclass(frozen=True)
class OptimizeResult:
    """A feasible phase-shift matrix and the channel magnitude it achieves.

    degenerate marks the all-zero-channel fallback where the objective
    collapses to |h_d| and the matrix is an arbitrary feasible choice.
    """

    phi: PhaseShiftMatrix
    objective: float
    architecture: Architecture
    degenerate: bool = False


def _reference_phase(h_d: complex) -> float:
    # explicit zero branch: np.angle(-0.0 + 0j) is pi, not 0
    return float(np.angle(h_d)) if h_d != 0 else 0.0


def _block_norms(x: np.ndarray, size: int) -> np.ndarray:
    """Euclidean norms of consecutive size-element blocks along the last axis."""
    power = x.real ** 2 + x.imag ** 2
    return np.sqrt(power.reshape(power.shape[:-1] + (-1, size)).sum(axis=-1))


def closed_form_objective(g, h, h_d, arch: Architecture) -> np.ndarray:
    """Optimal |g^T Phi h + h_d| for every channel row of (..., M) arrays.

    sc gives |h_d| + sum_m |g_m h_m|, gc:U gives |h_d| + sum_u ||g_u|| ||h_u||
    and fc is the one-group case |h_d| + ||g|| ||h||. h_d is a scalar or has
    the leading shape of g and h. Each row is reduced on its own along the
    last axis, so a row's result does not depend on the rows batched with it,
    and the optimize_* functions report exactly this value.
    """
    g = np.asarray(g, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if g.shape != h.shape or g.ndim < 1:
        raise DimensionMismatch(f"g and h must have equal shapes, got {g.shape} and {h.shape}")
    if arch.kind == "sc":
        gain = np.abs(g * h).sum(axis=-1)
    else:
        size = arch.block_size(g.shape[-1])  # raises DimensionMismatch unless groups | M
        gain = (_block_norms(g, size) * _block_norms(h, size)).sum(axis=-1)
    return np.abs(h_d) + gain


def _objective(ch: ChannelSet, arch: Architecture) -> float:
    return float(closed_form_objective(ch.g, ch.h, ch.h_d, arch))


def optimize_sc(ch: ChannelSet) -> OptimizeResult:
    """Best diagonal design: phase-align every cascade term with the direct path.

    phi_m = exp(j(arg(h_d) - arg(g_m h_m))), with reference phase 0 when
    h_d = 0. The objective |h_d| + sum_m |g_m h_m| is the global optimum over
    unit-modulus diagonal matrices.
    """
    reference = _reference_phase(ch.h_d)
    phases = np.exp(1j * (reference - np.angle(ch.g * ch.h)))
    phi = PhaseShiftMatrix.diagonal(phases)
    validate(phi)
    return OptimizeResult(phi, _objective(ch, phi.arch), phi.arch)


def _orthonormal_complement(unit: np.ndarray) -> np.ndarray:
    """Columns spanning the orthogonal complement of a unit vector, m x (m-1)."""
    m = unit.shape[0]
    q, _ = np.linalg.qr(unit.reshape(m, 1), mode="complete")
    return q[:, 1:]


def _unitary_block(g_blk: np.ndarray, h_blk: np.ndarray, reference: float) -> np.ndarray:
    """Optimal unitary for one block, reaching the block gain ||g|| ||h||.

    Falls back to exp(j reference) * I when either block channel is zero,
    which keeps single-element blocks consistent with the diagonal design.
    """
    size = g_blk.shape[0]
    g_norm = float(np.linalg.norm(g_blk))
    h_norm = float(np.linalg.norm(h_blk))
    if g_norm == 0.0 or h_norm == 0.0:
        return np.exp(1j * reference) * np.eye(size, dtype=np.complex128)
    u = g_blk.conj() / g_norm
    v = h_blk / h_norm
    block = np.exp(1j * reference) * np.outer(u, v.conj())
    if size > 1:
        block = block + _orthonormal_complement(u) @ _orthonormal_complement(v).conj().T
    return block


def optimize_fc(ch: ChannelSet) -> OptimizeResult:
    """Best unitary design: rank-one rotation of h onto conj(g).

    Phi = exp(j arg(h_d)) u v^H + U_perp V_perp^H with u = conj(g)/||g|| and
    v = h/||h||; the objective |h_d| + ||g|| ||h|| is the global optimum over
    unitary matrices. An all-zero g or h degenerates to the identity with
    objective |h_d|.
    """
    m = ch.elements
    if np.linalg.norm(ch.g) == 0.0 or np.linalg.norm(ch.h) == 0.0:
        phi = PhaseShiftMatrix.full(np.eye(m, dtype=np.complex128))
        validate(phi)
        return OptimizeResult(phi, _objective(ch, phi.arch), phi.arch, degenerate=True)
    phi = PhaseShiftMatrix.full(_unitary_block(ch.g, ch.h, _reference_phase(ch.h_d)))
    validate(phi)
    return OptimizeResult(phi, _objective(ch, phi.arch), phi.arch)


def optimize_gc(ch: ChannelSet, groups: int) -> OptimizeResult:
    """Best block-diagonal design: the unitary construction applied per group.

    All groups share the reference phase arg(h_d), so the block gains add
    coherently with the direct path: objective |h_d| + sum_u ||g_u|| ||h_u||.
    """
    m = ch.elements
    arch = Architecture.group_connected(groups)
    size = arch.block_size(m)  # raises DimensionMismatch unless groups | m
    reference = _reference_phase(ch.h_d)
    blocks = [_unitary_block(ch.g[s:s + size], ch.h[s:s + size], reference)
              for s in range(0, m, size)]
    phi = PhaseShiftMatrix.block_diagonal(blocks)
    validate(phi)
    degenerate = np.linalg.norm(ch.g) == 0.0 or np.linalg.norm(ch.h) == 0.0
    return OptimizeResult(phi, _objective(ch, arch), phi.arch, degenerate=degenerate)


def optimize(ch: ChannelSet, arch: Architecture) -> OptimizeResult:
    """Dispatch to the closed form for the given architecture."""
    if arch.kind == "sc":
        return optimize_sc(ch)
    if arch.kind == "fc":
        return optimize_fc(ch)
    return optimize_gc(ch, arch.groups)


def brute_force_sc(ch: ChannelSet, grid: int) -> OptimizeResult:
    """Exhaustive search over per-element phases drawn from a uniform grid.

    Cost grows as grid**elements; refuses more than 4 elements. Test oracle,
    not a production path.
    """
    m = ch.elements
    if m > 4:
        raise TooLarge(f"exhaustive search over grid^{m} points refused for more than 4 elements")
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

    phi = PhaseShiftMatrix.diagonal(phasors[list(best_key)])
    validate(phi)
    return OptimizeResult(phi, best_val, phi.arch)


def brute_force_fc2(ch: ChannelSet, grid: int) -> OptimizeResult:
    """Exhaustive search over 2x2 unitaries via the four-angle parametrization.

    Phi = exp(ja) [[exp(jb) cos c, exp(jd) sin c],
                   [-exp(-jd) sin c, exp(-jb) cos c]]
    with each angle swept over a uniform grid. Test oracle for two elements.
    """
    if ch.elements != 2:
        raise WrongDimension(f"this oracle is defined for exactly 2 elements, got {ch.elements}")
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
    phi = PhaseShiftMatrix.full(mat)
    validate(phi)
    return OptimizeResult(phi, best_val, phi.arch)
