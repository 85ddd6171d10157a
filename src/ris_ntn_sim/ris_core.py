"""Phase-shift matrix types for the three RIS coupling architectures.

A surface with M elements acts on the incident per-element signals through an
M x M complex matrix. How the elements are wired together determines which
matrices are realizable:

  single connected ("sc") : diagonal, every diagonal entry of unit modulus
  fully connected  ("fc") : any unitary matrix
  group connected  ("gc") : block diagonal, U unitary blocks of size M/U

``validate`` checks membership in the feasible set, and ``effective_channel``
applies a matrix to one channel realization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, DimensionMismatch

# Feasibility tolerance in max-norm. Double-precision construction lands
# around 1e-15; the headroom absorbs accumulated rounding.
UNIT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Architecture:
    """Element interconnection topology of the surface."""

    kind: str  # "sc" | "fc" | "gc"
    groups: int | None = None  # group count, "gc" only

    def __post_init__(self):
        if self.kind not in ("sc", "fc", "gc"):
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if self.kind == "gc":
            if not isinstance(self.groups, int) or self.groups < 1:
                raise ValueError("group-connected architecture needs a positive integer group count")
        elif self.groups is not None:
            raise ValueError(f"architecture {self.kind!r} takes no group count")

    @classmethod
    def from_label(cls, label: str) -> "Architecture":
        """Parse a textual label: "sc", "fc" or "gc:U", spelled as label gives it back."""
        text = label.strip()
        if text in ("sc", "fc"):
            return cls(text)
        if text.startswith("gc:"):
            count = text[3:]
            # no sign, space, underscore or leading zero: one spelling per architecture
            if not (count.isascii() and count.isdigit() and count == str(int(count))):
                raise ValueError(f"bad group count in architecture label {label!r}")
            return cls("gc", int(count))
        raise ValueError(f"unknown architecture label {label!r} (expected sc, fc or gc:U)")

    @property
    def label(self) -> str:
        if self.kind == "gc":
            return f"gc:{self.groups}"
        return self.kind

    def block_size(self, elements: int) -> int:
        """Side length of the unitary blocks for a surface with this many elements."""
        if elements < 1:
            raise DimensionMismatch(f"element count must be positive, got {elements}")
        if self.kind == "sc":
            return 1
        if self.kind == "fc":
            return elements
        if elements % self.groups:
            raise DimensionMismatch(
                f"group count {self.groups} does not divide element count {elements}"
            )
        return elements // self.groups


@dataclass(frozen=True)
class PhaseShiftMatrix:
    """An M x M phase-shift matrix tagged with its architecture.

    Construction only checks shapes; feasibility is checked by ``validate``.
    The stored array is a read-only copy, so instances are immutable and safe
    to share across threads.
    """

    matrix: np.ndarray
    arch: Architecture
    elements: int

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=np.complex128, copy=True, order="C")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"phase-shift matrix must be square, got shape {mat.shape}")
        if self.elements < 1 or mat.shape[0] != self.elements:
            raise DimensionMismatch(
                f"matrix is {mat.shape[0]}x{mat.shape[1]} but element count is {self.elements}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization: per-element hop vectors plus the direct path.

    h holds the satellite-to-surface amplitude gains, g the surface-to-terminal
    amplitude gains, and h_d the direct satellite-to-terminal gain. All values
    are dimensionless complex amplitude ratios.
    """

    h: np.ndarray
    g: np.ndarray
    h_d: complex

    def __post_init__(self):
        h = np.array(self.h, dtype=np.complex128, copy=True)
        g = np.array(self.g, dtype=np.complex128, copy=True)
        if h.ndim != 1 or g.ndim != 1 or h.size != g.size or h.size < 1:
            raise DimensionMismatch(
                f"h and g must be 1-D vectors of equal positive length, got {h.shape} and {g.shape}"
            )
        h_d = complex(self.h_d)
        if not (np.isfinite(h).all() and np.isfinite(g).all() and np.isfinite([h_d]).all()):
            raise ValueError("channel entries must be finite")
        h.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h_d", h_d)

    @property
    def elements(self) -> int:
        return int(self.h.size)


def diagonal_blocks(mat: np.ndarray, size: int) -> np.ndarray:
    """(M/size, size, size) view of the diagonal blocks of an M x M array, writable when mat is."""
    groups = mat.shape[0] // size
    return np.einsum("iaib->iab", mat.reshape(groups, size, groups, size))


def _first(mask: np.ndarray) -> tuple[int, ...] | None:
    """Row-major index of the first True entry of mask, or None."""
    k = int(mask.argmax())
    return np.unravel_index(k, mask.shape) if mask.flat[k] else None


def validate(phi: PhaseShiftMatrix) -> None:
    """Check phi against its architecture's feasibility constraints.

    Raises DimensionMismatch when the group count does not divide the element
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

    blocks = diagonal_blocks(mat, size)
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


def effective_channel(phi: PhaseShiftMatrix, ch: ChannelSet) -> complex:
    """End-to-end scalar gain g^T Phi h + h_d (row-vector convention, no conjugation)."""
    if ch.elements != phi.elements:
        raise DimensionMismatch(
            f"channel has {ch.elements} elements but matrix expects {phi.elements}"
        )
    return complex(ch.g @ phi.matrix @ ch.h + ch.h_d)

