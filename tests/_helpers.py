"""Shared test helpers: synthetic unit-scale channel draws and the end-to-end gain of a matrix."""

import numpy as np

from ris_ntn_sim import ChannelSet


def unit_channel(elements: int, seed: int, h_d_scale: float = 1.0) -> ChannelSet:
    """Unit-scale random channel, independent of the physical generator."""
    rng = np.random.default_rng(seed)

    def cvec(n):
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

    h = cvec(elements)
    g = cvec(elements)
    h_d = complex(cvec(1)[0]) * h_d_scale
    return ChannelSet(h=h, g=g, h_d=h_d)


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(a)
    return q


def effective_gain(phi, ch) -> complex:
    """End-to-end scalar gain g^T Phi h + h_d of ch through phi (row-vector convention, no conjugation)."""
    return complex(ch.g @ phi.matrix @ ch.h + ch.h_d)
