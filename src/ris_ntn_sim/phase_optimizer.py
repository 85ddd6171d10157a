"""Phase-shift matrices of the three RIS architectures and the designs maximizing |g^T Phi h + h_d|.

A surface with M elements acts on the incident per-element signals through an
M x M complex matrix. How the elements are wired together determines which
matrices are realizable:

  single connected ("sc") : diagonal, every diagonal entry of unit modulus
  fully connected  ("fc") : any unitary matrix
  group connected  ("gc") : block diagonal, U unitary blocks of size M/U

validate checks membership in the feasible set.

With one transmit and one receive antenna every architecture has an exact
optimum. A diagonal matrix aligns each cascade term g_m h_m with the direct
path, reaching |h_d| + sum |g_m h_m|. A unitary matrix rotates h onto the
conjugate of g, reaching |h_d| + ||g|| ||h|| (the Cauchy-Schwarz bound), and
a block-diagonal design applies that rotation per group. All three are one
construction on blocks of size 1, M or M/U, and optimize builds the M x M
matrix of that design. certify_cells checks the designs of many (architecture,
element prefix) cells of one channel from their factors, without any matrix:
it lays the prefixes end to end, one segment per block, so every norm and
inner product of all cells is one segment sum, in bounded passes of at most
PASS_ENTRIES entries, and returns one array entry per cell.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel_model import ChannelSet
from .config import Architecture
from .errors import ConstraintViolated, InvalidInput, checked_args, number_array

# Feasibility tolerance in max-norm. Double-precision construction lands
# around 1e-15; the headroom absorbs accumulated rounding.
UNIT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PhaseShiftMatrix:
    """An M x M phase-shift matrix tagged with its architecture; M is its element count.

    Construction only checks that matrix holds numbers (number_array) and its
    shape; feasibility is checked by ``validate``.
    The stored array is a read-only copy, so instances are immutable and safe
    to share across threads.
    """

    matrix: np.ndarray
    arch: Architecture

    def __post_init__(self):
        mat = np.array(checked_args(number_array, matrix=self.matrix)[0], dtype=np.complex128,
                       copy=True, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.size == 0:
            raise InvalidInput(
                f"phase-shift matrix must be square and non-empty, got shape {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def elements(self) -> int:
        return self.matrix.shape[0]


def _diagonal_blocks(mat: np.ndarray, size: int) -> np.ndarray:
    """(M/size, size, size) view of the diagonal blocks of an M x M array, writable when mat is."""
    groups = mat.shape[0] // size
    return np.einsum("iaib->iab", mat.reshape(groups, size, groups, size))


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Row-major index of the first True entry of mask, or None."""
    k = int(mask.argmax())
    return np.unravel_index(k, mask.shape) if mask.flat[k] else None


def validate(phi: PhaseShiftMatrix) -> None:
    """Check phi against its architecture's feasibility constraints.

    Raises InvalidInput when the group count does not divide the element
    count, and ConstraintViolated at the row-major first offending entry
    otherwise, checking in this order: a non-finite entry, a nonzero entry
    outside the diagonal/block pattern, then a non-unit-modulus diagonal
    entry (sc and size-1 blocks) or the first block that is not unitary.
    """
    mat = phi.matrix
    m = phi.elements
    size = phi.arch.block_size(m)

    hit = _first(~np.isfinite(mat))
    if hit is not None:
        raise ConstraintViolated(hit, float("inf"), "non-finite entry")

    if size < m:
        owner = np.arange(m) // size
        hit = _first((mat != 0) & (owner[:, None] != owner))
        if hit is not None:
            raise ConstraintViolated(
                hit, abs(mat[hit]), "entry outside the diagonal/block pattern must be exactly zero"
            )

    blocks = _diagonal_blocks(mat, size)
    if size == 1:
        # hypot rounds like abs() of one entry; np.abs over an array can differ in the last bit
        deviation = np.abs(np.hypot(blocks.real, blocks.imag) - 1.0)
        reason = "diagonal entry must have unit modulus"
    else:
        gram = blocks.conj().transpose(0, 2, 1) @ blocks
        diagonal = np.arange(size)
        gram[:, diagonal, diagonal] -= 1.0
        deviation = np.abs(gram)
        reason = "block is not unitary"
    # "not <=" instead of ">" so NaN residuals fail closed
    failing = ~(deviation.max(axis=(1, 2)) <= UNIT_TOLERANCE)
    if failing.any():
        u = int(failing.argmax())
        i, j = np.unravel_index(int(deviation[u].argmax()), (size, size))
        raise ConstraintViolated((u * size + i, u * size + j), deviation[u, i, j], reason)


_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class OptimizeResult:
    """A feasible phase-shift matrix, of architecture phi.arch, and the channel magnitude it achieves.

    degenerate marks a channel where every block has a zero g or h: the
    objective collapses to |h_d| and the matrix is the identity.
    """

    phi: PhaseShiftMatrix
    objective: float
    degenerate: bool = False


def _power(x: np.ndarray) -> np.ndarray:
    """Squared magnitude of every entry."""
    return x.real ** 2 + x.imag ** 2


def closed_form_cells(power_g, power_h, cells: Sequence[tuple[Architecture, int]]) -> np.ndarray:
    """Row c is the optimal cascade gain of cells[c] = (arch, m) on the [..., :m] prefix.

    power_g and power_h hold |g_m|^2 and |h_m|^2 along their last axis. sc
    gives sum_m |g_m| |h_m|, gc:U gives sum_u ||g_u|| ||h_u|| and fc
    ||g|| ||h||. Bit for bit: the sc terms are taken once at M >= m, and each
    cell sums its [..., :m] prefix as a one-cell call on that prefix does.
    """
    power_g = np.asarray(power_g, dtype=np.float64)
    power_h = np.asarray(power_h, dtype=np.float64)
    if power_g.shape != power_h.shape or power_g.ndim < 1:
        raise InvalidInput(
            f"g and h must have equal shapes, got {power_g.shape} and {power_h.shape}")
    cascade = np.sqrt(power_g * power_h) if any(a.kind == "sc" for a, _ in cells) else None
    out = np.empty((len(cells),) + power_g.shape[:-1])
    for c, (arch, m) in enumerate(cells):
        size = arch.block_size(m)  # raises InvalidInput unless m is positive and groups | m
        if arch.kind == "sc":
            out[c] = cascade[..., :m].sum(axis=-1)
        else:
            blocks = power_g.shape[:-1] + (-1, size)
            out[c] = (np.sqrt(power_g[..., :m].reshape(blocks).sum(axis=-1))
                      * np.sqrt(power_h[..., :m].reshape(blocks).sum(axis=-1))).sum(axis=-1)
    return out


# Laid-out entries certified in one pass. A pass holds about 115 bytes per
# entry, so memory stays bounded for any number of cells; a sweep whose cells
# add up to at most this many elements (the default sweep has 576) takes one
# pass, and a larger cell takes a pass alone. Passes of 4096 entries raised
# peak RSS on cells of 2048 elements by about 0.4 MB.
PASS_ENTRIES = 2048


class _Layout(NamedTuple):
    """Element prefixes of g and h laid end to end, one segment per (cell, block)."""

    g: np.ndarray
    h: np.ndarray
    starts: np.ndarray  # first entry of every segment
    lengths: np.ndarray  # entries of every segment
    cells: np.ndarray  # first segment of every cell


def _layout(ch: ChannelSet, cells: Sequence[tuple[Architecture, int]]) -> _Layout:
    """Layout of the (architecture, element count) cells of ch, in order, built from whole arrays."""
    elements = np.array([m for _, m in cells])
    # raises InvalidInput unless groups | M
    sizes = np.array([arch.block_size(m) for arch, m in cells])
    groups = elements // sizes
    ends = np.cumsum(elements)
    index = np.arange(ends[-1]) - np.repeat(ends - elements, elements)
    lengths = np.repeat(sizes, groups)
    return _Layout(ch.g[index], ch.h[index], np.cumsum(lengths) - lengths, lengths,
                   np.cumsum(groups) - groups)


def _segment_power(x: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every segment of x."""
    return np.add.reduceat(_power(x), starts)


def _reflectors(x: np.ndarray, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Householder vectors w and unit phases beta with (I - 2 w w^H) x = beta e_1, per segment.

    Exact for segments of unit norm. beta = -exp(j arg x_1) keeps x - beta e_1
    clear of cancellation, so its norm is at least 1 for any segment.
    """
    beta = -np.exp(1j * np.angle(x[layout.starts]))
    w = x.copy()
    w[layout.starts] -= beta
    w /= np.repeat(np.sqrt(_segment_power(w, layout.starts)), layout.lengths)
    return w, beta


def _block_matrix(w_u: np.ndarray, w_v: np.ndarray, corner: np.ndarray,
                  live: np.ndarray) -> np.ndarray:
    """Block-diagonal matrix of the blocks R_u diag(corner, 1, ..., 1) R_v, I where not live.

    R_x = I - 2 w_x w_x^H with w_u, w_v of shape (groups, size). Each block
    costs O(size^2), built in place in the diagonal blocks of one M x M array.
    """
    groups, size = w_u.shape
    mat = np.zeros((groups * size, groups * size), dtype=np.complex128)
    blocks = _diagonal_blocks(mat, size)
    # R_v, then its first row times corner, then R_u applied from the left
    np.multiply(w_v[:, :, None], -2.0 * w_v.conj()[:, None, :], out=blocks)
    diagonal = np.arange(size)
    blocks[:, diagonal, diagonal] += 1.0
    blocks[:, 0, :] *= corner[:, None]
    blocks -= 2.0 * w_u[:, :, None] * (w_u.conj()[:, None, :] @ blocks)
    blocks[~live] = np.eye(size)
    return mat


class _Design(NamedTuple):
    """Factors of the block-diagonal designs: block s is R_u diag(corner_s, 1, ..., 1) R_v.

    R_x = I - 2 w_x w_x^H, where w_u and w_v hold segment s of the layout
    the design was computed on; blocks that are not live are the identity.
    """

    w_u: np.ndarray
    w_v: np.ndarray
    corner: np.ndarray
    live: np.ndarray


def _design(ch: ChannelSet, layout: _Layout) -> _Design:
    """Reflector vectors, corner phases and live mask of every laid-out block, in O(entries)."""
    g, h = layout.g, layout.h
    g_norm = np.sqrt(_segment_power(g, layout.starts))
    h_norm = np.sqrt(_segment_power(h, layout.starts))
    live = (g_norm > 0) & (h_norm > 0)
    w_u, beta_u = _reflectors(g.conj() / np.repeat(np.where(live, g_norm, 1.0), layout.lengths),
                              layout)
    w_v, beta_v = _reflectors(h / np.repeat(np.where(live, h_norm, 1.0), layout.lengths), layout)
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
    cells = [(arch, ch.elements)]
    w_u, w_v, corner, live = _design(ch, _layout(ch, cells))
    groups = corner.size
    # the build buffers are gone before validate runs: only phi's copy stays
    phi = PhaseShiftMatrix(_block_matrix(w_u.reshape(groups, -1), w_v.reshape(groups, -1),
                                         corner, live), arch)
    validate(phi)
    objective = float(np.abs(ch.h_d) + closed_form_cells(_power(ch.g), _power(ch.h), cells)[0])
    return OptimizeResult(phi, objective, degenerate=not live.any())


def _norm_excess(squared_norm: np.ndarray, terms: np.ndarray | int) -> np.ndarray:
    """Bound on | ||x||^2 - 1 | from the rounded squared norm of a terms-entry complex vector."""
    return np.abs(squared_norm - 1.0) + (terms + 2) * _EPS * squared_norm


def _certify_pass(ch: ChannelSet, layout: _Layout) -> tuple[np.ndarray, np.ndarray]:
    """Achieved gain and unitarity bound of every cell of the layout, in one evaluation."""
    w_u, w_v, corner, live = _design(ch, layout)
    g, h = layout.g, layout.h
    starts, lengths = layout.starts, layout.lengths
    # g_u^T R_u D R_v h_u through the reflectors, per segment. A block that is
    # not live has g_u = 0 or h_u = 0, so it adds exactly 0 here, as its
    # identity block does.
    y = h - 2.0 * w_v * np.repeat(np.add.reduceat(w_v.conj() * h, starts), lengths)
    # not "*=": numpy's in-place product on a one-entry operand rounds unlike
    # the vector loop, so a one-segment pass would differ by an ulp
    y[starts] = y[starts] * corner
    gain = (np.add.reduceat(g * y, starts)
            - 2.0 * np.add.reduceat(g * w_u, starts) * np.add.reduceat(w_u.conj() * y, starts))
    achieved = np.abs(np.add.reduceat(gain, layout.cells) + ch.h_d)

    delta_u, delta_v = (_norm_excess(_segment_power(w, starts), lengths) for w in (w_u, w_v))
    e_u, e_v = 4.0 * delta_u * (1.0 + delta_u), 4.0 * delta_v * (1.0 + delta_v)
    f = _norm_excess(corner.real ** 2 + corner.imag ** 2, 1)
    # nan from a non-finite factor survives np.maximum, so the cell fails closed
    bound = np.where(live, e_v + (1.0 + e_v) * (f + (1.0 + f) * e_u), 0.0)
    return achieved, np.maximum.reduceat(bound, layout.cells)


def certify_cells(ch: ChannelSet,
                  cells: Sequence[tuple[Architecture, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(achieved, bound) arrays, one entry per (arch, m) cell, in O(entries) and without Phi.

    Entry c certifies the design optimize(ChannelSet(h=ch.h[:m], g=ch.g[:m],
    h_d=ch.h_d), arch) builds, from its factors: achieved[c] is
    |g^T Phi h + h_d|, and bound[c] bounds the max-norm residual
    max |B^H B - I| over the blocks B of Phi, and so the residual validate
    checks against UNIT_TOLERANCE, also | |b| - 1 | <= | |b|^2 - 1 | of a
    size-1 block b; it is nan or inf when a factor of a live block is not finite. The cells' prefixes lie end to end, one segment per block,
    and every norm and inner product is a segment sum (np.add.reduceat).
    Cells go in order into passes of at most PASS_ENTRIES entries and at
    least one cell, so memory does not grow with the number of cells.

    R_x^H R_x - I = 4 (||w_x||^2 - 1) w_x w_x^H, so with delta_x bounding
    | ||w_x||^2 - 1 | its spectral norm is at most e_x = 4 delta_x (1 + delta_x),
    and with f bounding | |c|^2 - 1 | each block B = R_u D R_v satisfies
    ||B^H B - I||_2 <= e_v + (1 + e_v)(f + (1 + f) e_u), which bounds every
    entry of B^H B - I. The identity blocks that are not live add nothing.
    delta_x covers the rounding of an n-entry segment's squared norm: 2n
    rounded squares, n pair sums, then n - 1 additions, which reduceat may do
    in sequence. Any order of adding nonnegative terms errs by at most n - 1
    roundings of the total, so the error is about (n + 1) eps/2 relative,
    inside the (n + 2) eps margin, n being the segment's own length.
    """
    out = np.empty((2, len(cells)))
    first = 0
    while first < len(cells):
        stop, entries = first + 1, cells[first][1]
        while stop < len(cells) and entries + cells[stop][1] <= PASS_ENTRIES:
            stop, entries = stop + 1, entries + cells[stop][1]
        out[:, first:stop] = _certify_pass(ch, _layout(ch, cells[first:stop]))
        first = stop
    return out[0], out[1]

