"""The benchmark's workloads: each is a config file generated from a run seed.

The program receives only the generated config text; the run seed becomes its
`seed` key, so the same seed always gives the same inputs. Every other key is
fixed per workload. Why each workload exists is in README.md.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict[str, str]] = {
    # SimConfig() with fewer trials: what users run, and the baseline of every claim.
    "default": {"trials": "50"},
    # O(M^3) QR and validate on M x M matrices; also the memory workload.
    "large_m": {
        "architectures": "fc, gc:4",
        "elements_sweep": "256, 1024, 2048",
        "trials": "2",
    },
    # No random draws at all, per-block gc with a non-zero reference phase,
    # and M=6 takes the gc skip path.
    "los_gc": {
        "fading_model": "pure_los",
        "fading_phase_mode": "common_los",
        "direct_link": "clear",
        "architectures": "sc, gc:4",
        "elements_sweep": "6, 8, 16, 32, 64",
        "trials": "300",
    },
}


# The reference job (reference.py) each workload's sweeps are scaled by: the
# one whose work matches where that workload spends its time.
REFERENCE = {"default": "calls", "large_m": "lapack", "los_gc": "calls"}


def config_text(workload: str, seed: int) -> str:
    """The config file the program receives for one workload and run seed."""
    keys = dict(WORKLOADS[workload], seed=str(seed))
    return "".join(f"{key} = {value}\n" for key, value in keys.items())
