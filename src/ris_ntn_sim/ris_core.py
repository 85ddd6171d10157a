"""Phase-shift matrix types for the three RIS coupling architectures.

A surface with M elements acts on the incident per-element signals through an
M x M complex matrix. How the elements are wired together determines which
matrices are realizable:

  single connected ("sc") : diagonal, every diagonal entry of unit modulus
  fully connected  ("fc") : any unitary matrix
  group connected  ("gc") : block diagonal, U unitary blocks of size M/U

``validate`` checks membership in the feasible set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, InvalidInput, checked_args, exact_int, number_array

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
            raise InvalidInput(f"unknown architecture kind {self.kind!r}")
        if self.kind == "gc":
            try:
                groups = exact_int(self.groups)
            except ValueError:
                groups = 0
            if groups < 1:
                raise InvalidInput("group-connected architecture needs a positive integer group count")
            object.__setattr__(self, "groups", groups)
        elif self.groups is not None:
            raise InvalidInput(f"architecture {self.kind!r} takes no group count")

    @classmethod
    def from_label(cls, label: str) -> "Architecture":
        """Parse a textual label: "sc", "fc" or "gc:U", spelled as label gives it back."""
        if not isinstance(label, str):
            raise InvalidInput(f"architecture label must be a string, got {type(label).__name__}")
        text = label.strip()
        if text in ("sc", "fc"):
            return cls(text)
        if text.startswith("gc:"):
            count = text[3:]
            # no sign, space, underscore or leading zero: one spelling per architecture
            if not (count.isascii() and count.isdigit() and count == str(int(count))):
                raise InvalidInput(f"bad group count in architecture label {label!r}")
            return cls("gc", int(count))
        raise InvalidInput(f"unknown architecture label {label!r} (expected sc, fc or gc:U)")

    @property
    def label(self) -> str:
        if self.kind == "gc":
            return f"gc:{self.groups}"
        return self.kind

    def block_size(self, elements: int) -> int:
        """Side length of the unitary blocks for a surface with this many elements.

        InvalidInput unless elements is a positive exact_int integer that the group count divides.
        """
        elements = checked_args(exact_int, elements=elements)[0]
        if elements < 1:
            raise InvalidInput(f"element count must be positive, got {elements}")
        if self.kind == "sc":
            return 1
        if self.kind == "fc":
            return elements
        if elements % self.groups:
            raise InvalidInput(
                f"group count {self.groups} does not divide element count {elements}"
            )
        return elements // self.groups


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
