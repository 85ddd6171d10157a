"""Closed-form phase-shift designs maximizing |g^T Phi h + h_d|.

With one transmit and one receive antenna every architecture has an exact
optimum. A diagonal matrix aligns each cascade term g_m h_m with the direct
path, reaching |h_d| + sum |g_m h_m|. A unitary matrix rotates h onto the
conjugate of g, reaching |h_d| + ||g|| ||h|| (the Cauchy-Schwarz bound), and
a block-diagonal design applies that rotation per group. All three are one
construction on blocks of size 1, M or M/U. optimize builds the M x M
matrix of that design; certify checks the same design from its factors in
O(M), without the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch
from .ris_core import Architecture, ChannelSet, PhaseShiftMatrix, diagonal_blocks, validate

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class OptimizeResult:
    """A feasible phase-shift matrix and the channel magnitude it achieves.

    degenerate marks a channel where every block has a zero g or h: the
    objective collapses to |h_d| and the matrix is the identity.
    """

    phi: PhaseShiftMatrix
    objective: float
    architecture: Architecture
    degenerate: bool = False


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
    and optimize reports exactly this value.
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


def _reflectors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder vectors w and unit phases beta with (I - 2 w w^H) x = beta e_1, per row.

    Exact for rows of unit norm. beta = -exp(j arg x_1) keeps x - beta e_1
    clear of cancellation, so its norm is at least 1 for any row.
    """
    beta = -np.exp(1j * np.angle(x[:, 0]))
    w = x.copy()
    w[:, 0] -= beta
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return w, beta


def _block_matrix(w_u: np.ndarray, w_v: np.ndarray, corner: np.ndarray,
                  live: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the blocks R_u diag(corner, 1, ..., 1) R_v, I where not live.

    R_x = I - 2 w_x w_x^H. Each block costs O(size^2), built in place in the
    diagonal blocks of one M x M array.
    """
    groups, size = w_u.shape
    mat = np.zeros((groups * size, groups * size), dtype=np.complex128)
    blocks = diagonal_blocks(mat, size)
    # R_v, then its first row times corner, then R_u applied from the left
    np.multiply(w_v[:, :, None], -2.0 * w_v.conj()[:, None, :], out=blocks)
    diagonal = np.arange(size)
    blocks[:, diagonal, diagonal] += 1.0
    blocks[:, 0, :] *= corner[:, None]
    blocks -= 2.0 * w_u[:, :, None] * (w_u.conj()[:, None, :] @ blocks)
    blocks[~live] = np.eye(size)
    return mat


class _Design(NamedTuple):
    """Factors of the block-diagonal design: block u is R_u diag(corner_u, 1, ..., 1) R_v.

    R_x = I - 2 w_x w_x^H with w_u, w_v of shape (groups, size); blocks that
    are not live are the identity.
    """

    w_u: np.ndarray
    w_v: np.ndarray
    corner: np.ndarray
    live: np.ndarray


def _design(ch: ChannelSet, arch: Architecture) -> _Design:
    """Reflector vectors, corner phases and live mask of the optimal design, in O(M)."""
    size = arch.block_size(ch.elements)  # raises DimensionMismatch unless groups | M
    g_norm, h_norm = _block_norms(ch.g, size), _block_norms(ch.h, size)
    live = (g_norm > 0) & (h_norm > 0)
    w_u, beta_u = _reflectors(ch.g.conj().reshape(-1, size) / np.where(live, g_norm, 1.0)[:, None])
    w_v, beta_v = _reflectors(ch.h.reshape(-1, size) / np.where(live, h_norm, 1.0)[:, None])
    reference = ch.h_d / abs(ch.h_d) if ch.h_d else 1.0
    return _Design(w_u, w_v, reference * beta_u * beta_v.conj(), live)


def optimize(ch: ChannelSet, arch: Architecture) -> OptimizeResult:
    """Optimal design for any architecture: each block rotates h onto conj(g).

    With size = arch.block_size(M) (1 for sc, M for fc, M/U for gc:U), block
    u is R_u diag(c, 1, ..., 1) R_v, where R_x is the Householder reflector
    with R_x x = beta_x e_1 for x = conj(g_u)/||g_u|| and x = h_u/||h_u||, and
    c = exp(j arg h_d) beta_u conj(beta_v), with reference phase 0 when
    h_d = 0. The block maps h_u/||h_u|| to exp(j arg h_d) conj(g_u)/||g_u||,
    so every block gain adds in phase with the direct path and the objective
    is |h_d| + sum_u ||g_u|| ||h_u||, the global optimum over the feasible
    set. Size-1 blocks are the phase alignment exp(j(arg h_d - arg g_m h_m)).
    A block whose g or h is zero is the identity; degenerate marks a channel
    where every block is, so the objective collapses to |h_d|.
    """
    design = _design(ch, arch)
    # the build buffers are gone before validate runs: only phi's copy stays
    phi = PhaseShiftMatrix(_block_matrix(*design), arch, ch.elements)
    validate(phi)
    objective = float(closed_form_objective(ch.g, ch.h, ch.h_d, arch))
    return OptimizeResult(phi, objective, arch, degenerate=not design.live.any())


class Certificate(NamedTuple):
    """What the design optimize(ch, arch) builds achieves, computed from its factors.

    achieved is |g^T Phi h + h_d|. unitarity_bound bounds the max-norm residual
    max |B^H B - I| over the blocks B of Phi, the residual validate checks
    against UNIT_TOLERANCE; it is inf when a factor is not finite.
    """

    achieved: float
    unitarity_bound: float


def _norm_excess(squared_norm: np.ndarray, terms: int) -> np.ndarray:
    """Bound on | ||x||^2 - 1 | from the rounded squared norm of a terms-entry complex vector."""
    return np.abs(squared_norm - 1.0) + (terms + 2) * _EPS * squared_norm


def _reflector_error(w: np.ndarray) -> np.ndarray:
    """Bound e on ||R^H R - I||_2 for R = I - 2 w w^H, per row of w."""
    delta = _norm_excess((w.real ** 2 + w.imag ** 2).sum(axis=1), w.shape[1])
    return 4.0 * delta * (1.0 + delta)


def certify(ch: ChannelSet, arch: Architecture) -> Certificate:
    """Certificate of the design optimize(ch, arch) builds, in O(M) and without Phi.

    R_x^H R_x - I = 4 (||w_x||^2 - 1) w_x w_x^H, so with delta_x bounding
    | ||w_x||^2 - 1 | its spectral norm is at most e_x = 4 delta_x (1 + delta_x),
    and with f bounding | |c|^2 - 1 | each block B = R_u D R_v satisfies
    ||B^H B - I||_2 <= e_v + (1 + e_v)(f + (1 + f) e_u), which bounds every
    entry of B^H B - I. The bounds include the rounding of the squared norms.
    The identity blocks that are not live contribute no residual.
    """
    w_u, w_v, corner, live = _design(ch, arch)
    g, h = ch.g.reshape(w_u.shape), ch.h.reshape(w_u.shape)
    # g_u^T R_u D R_v h_u through the reflectors. A block that is not live has
    # g_u = 0 or h_u = 0, so it adds exactly 0 here, as its identity block does.
    y = h - 2.0 * w_v * (w_v.conj() * h).sum(axis=1, keepdims=True)
    y[:, 0] *= corner
    gain = (g * y).sum(axis=1) - 2.0 * (g * w_u).sum(axis=1) * (w_u.conj() * y).sum(axis=1)
    achieved = abs(gain.sum() + ch.h_d)

    if not all(np.isfinite(x).all() for x in (w_u, w_v, corner)):
        return Certificate(float(achieved), math.inf)
    e_u, e_v = _reflector_error(w_u), _reflector_error(w_v)
    f = _norm_excess(corner.real ** 2 + corner.imag ** 2, 1)
    bound = e_v + (1.0 + e_v) * (f + (1.0 + f) * e_u)
    return Certificate(float(achieved), float(bound.max(where=live, initial=0.0)))


def optimize_sc(ch: ChannelSet) -> OptimizeResult:
    """Best diagonal design: phase-align every cascade term with the direct path."""
    return optimize(ch, Architecture.single_connected())


def optimize_fc(ch: ChannelSet) -> OptimizeResult:
    """Best unitary design: one rotation of h onto conj(g), objective |h_d| + ||g|| ||h||."""
    return optimize(ch, Architecture.fully_connected())


def optimize_gc(ch: ChannelSet, groups: int) -> OptimizeResult:
    """Best block-diagonal design: the rotation applied per group of M/groups elements."""
    return optimize(ch, Architecture.group_connected(groups))
