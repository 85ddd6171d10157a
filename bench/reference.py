"""Fixed plain-numpy reference jobs that share no code with the program.

The shared machines this benchmark runs on change speed by up to 2x within
seconds. A reference job timed right next to a measurement tracks that speed,
so run.py reports each measurement scaled to a nominal machine: the one that
runs the reference job in exactly NOMINAL_S. A change to the program moves a
scaled metric as it moves the unscaled one at a fixed machine speed.
"""

from __future__ import annotations

import time

import numpy as np

# Near each job's median on the 2-CPU x86 box the benchmark was built on.
NOMINAL_S = {"calls": 0.08, "lapack": 0.04}


def calls(repeat: int = 15000) -> float:
    """Seconds for numpy calls on short vectors: where small-M sweeps spend their time."""
    start = time.perf_counter()
    a = np.arange(32.0)
    for _ in range(repeat):
        float(np.abs(np.exp(1j * a)).sum())
    return time.perf_counter() - start


def lapack() -> float:
    """Seconds for a 384x384 complex QR and Gram product: where large-M sweeps spend their time."""
    start = time.perf_counter()
    q, _ = np.linalg.qr(np.ones((384, 384)) + 1j * np.eye(384), mode="complete")
    float(np.abs(q.conj().T @ q).max())
    return time.perf_counter() - start


JOBS = {"calls": calls, "lapack": lapack}
