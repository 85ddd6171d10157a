"""Phase-shift matrix types for the three RIS coupling architectures.

A surface with M elements acts on the incident per-element signals through an
M x M complex matrix. How the elements are wired together determines which
matrices are realizable:

  single connected ("sc") : diagonal, every diagonal entry of unit modulus
  fully connected  ("fc") : any unitary matrix
  group connected  ("gc") : block diagonal, U unitary blocks of size M/U

``validate`` checks membership in the feasible set, ``effective_channel``
applies a matrix to one channel realization, and ``project_to_unitary``
repairs numerically drifted fully-connected matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConstraintViolated, DimensionMismatch, InvalidInput

# Feasibility tolerance in max-norm. Double-precision construction lands
# around 1e-15; the headroom absorbs projection round-trips.
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
    def single_connected(cls) -> "Architecture":
        return cls("sc")

    @classmethod
    def fully_connected(cls) -> "Architecture":
        return cls("fc")

    @classmethod
    def group_connected(cls, groups: int) -> "Architecture":
        return cls("gc", groups)

    @classmethod
    def from_label(cls, label: str) -> "Architecture":
        """Parse a textual label: "sc", "fc" or "gc:U"."""
        text = label.strip()
        if text == "sc":
            return cls.single_connected()
        if text == "fc":
            return cls.fully_connected()
        if text.startswith("gc:"):
            try:
                groups = int(text[3:])
            except ValueError:
                raise ValueError(f"bad group count in architecture label {label!r}") from None
            return cls.group_connected(groups)
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

    @classmethod
    def diagonal(cls, phases: Sequence[complex]) -> "PhaseShiftMatrix":
        """Single-connected matrix from the vector of per-element coefficients."""
        vec = np.asarray(phases, dtype=np.complex128)
        if vec.ndim != 1 or vec.size < 1:
            raise DimensionMismatch("diagonal entries must be a non-empty 1-D vector")
        return cls(np.diag(vec), Architecture.single_connected(), vec.size)

    @classmethod
    def full(cls, matrix: np.ndarray) -> "PhaseShiftMatrix":
        """Fully-connected matrix."""
        mat = np.asarray(matrix, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"matrix must be square, got shape {mat.shape}")
        return cls(mat, Architecture.fully_connected(), mat.shape[0])

    @classmethod
    def block_diagonal(cls, blocks: Sequence[np.ndarray]) -> "PhaseShiftMatrix":
        """Group-connected matrix from equally sized square blocks."""
        if not blocks:
            raise DimensionMismatch("need at least one block")
        arrs = [np.asarray(b, dtype=np.complex128) for b in blocks]
        size = arrs[0].shape[0] if arrs[0].ndim == 2 else -1
        for b in arrs:
            if b.ndim != 2 or b.shape != (size, size) or size < 1:
                raise DimensionMismatch("blocks must all be square and equally sized")
        m = size * len(arrs)
        mat = np.zeros((m, m), dtype=np.complex128)
        for i, b in enumerate(arrs):
            s = i * size
            mat[s:s + size, s:s + size] = b
        return cls(mat, Architecture.group_connected(len(arrs)), m)


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


def _first_nonzero_outside_blocks(mat: np.ndarray, block: int) -> tuple[int, int] | None:
    """Row-major first entry outside the block-diagonal pattern that is not exactly zero."""
    m = mat.shape[0]
    outside = np.ones((m, m), dtype=bool)
    for s in range(0, m, block):
        outside[s:s + block, s:s + block] = False
    hits = np.argwhere((mat != 0) & outside)
    if hits.size == 0:
        return None
    return int(hits[0, 0]), int(hits[0, 1])


def validate(phi: PhaseShiftMatrix) -> None:
    """Check phi against its architecture's feasibility constraints.

    Raises DimensionMismatch when the group count does not divide the element
    count, and ConstraintViolated at the first offending entry otherwise:
    a non-unit-modulus diagonal entry, a non-unitary block, or a nonzero
    entry outside the diagonal/block pattern.
    """
    mat = phi.matrix
    m = phi.elements
    block = phi.arch.block_size(m)

    finite = np.isfinite(mat.real) & np.isfinite(mat.imag)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ConstraintViolated((i, j), float("inf"), "non-finite entry")

    if block < m:
        hit = _first_nonzero_outside_blocks(mat, block)
        if hit is not None:
            i, j = hit
            raise ConstraintViolated(
                (i, j), abs(mat[i, j]), "entry outside the diagonal/block pattern must be exactly zero"
            )

    eye = np.eye(block)
    for s in range(0, m, block):
        blk = mat[s:s + block, s:s + block]
        if block == 1:
            residual = abs(abs(blk[0, 0]) - 1.0)
            # "not <=" instead of ">" so NaN residuals fail closed
            if not residual <= UNIT_TOLERANCE:
                raise ConstraintViolated((s, s), residual, "diagonal entry must have unit modulus")
        else:
            deviation = np.abs(blk.conj().T @ blk - eye)
            residual = float(deviation.max())
            if not residual <= UNIT_TOLERANCE:
                i, j = np.unravel_index(int(deviation.argmax()), deviation.shape)
                raise ConstraintViolated((s + i, s + j), residual, "block is not unitary")


def effective_channel(phi: PhaseShiftMatrix, ch: ChannelSet) -> complex:
    """End-to-end scalar gain g^T Phi h + h_d (row-vector convention, no conjugation)."""
    if ch.elements != phi.elements:
        raise DimensionMismatch(
            f"channel has {ch.elements} elements but matrix expects {phi.elements}"
        )
    return complex(ch.g @ phi.matrix @ ch.h + ch.h_d)


def project_to_unitary(matrix: np.ndarray) -> np.ndarray:
    """Closest unitary matrix in Frobenius norm (unitary factor of the polar form)."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {mat.shape}")
    if not np.isfinite(mat.real).all() or not np.isfinite(mat.imag).all():
        raise ValueError("matrix entries must be finite")
    u, s, vh = np.linalg.svd(mat)
    if s[0] == 0.0 or s[-1] <= s[0] * mat.shape[0] * np.finfo(np.float64).eps:
        raise InvalidInput(
            f"matrix is singular to working precision (smallest singular value {s[-1]:.3e})"
        )
    return u @ vh
