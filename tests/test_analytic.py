"""Sweep means against the closed-form expected gains of the channel model.

With unit-power Rician fades of factor K, nu^2 = K/(K+1) is the line-of-sight
power and sigma^2 = 1/(2(K+1)) the diffuse variance per real component.
|f| is Rice distributed, E|f| = sigma sqrt(pi/2) L_1/2(-nu^2 / 2 sigma^2),
and ||f||^2 over n entries is sigma^2 times a noncentral chi-square with 2n
degrees of freedom and noncentrality n nu^2 / sigma^2. The phase mode only
rotates the line-of-sight part, so these hold in both modes. g and h are
independent, so with a_g and a_h the hop amplitudes and a blocked direct link:
E[sc] = M a_g a_h (E|f|)^2, E[gc:U] = U a_g a_h (E||f|| over M/U entries)^2,
and fc is gc with U = 1. A clear direct link adds its own fade's a_d |f|,
and E[fc^2] = E||g||^2 E||h||^2 = M^2 a_g^2 a_h^2.

The seeds and the tolerance were fixed before each test was first run.
"""

import math

import numpy as np
import pytest
from scipy.special import hyp1f1
from scipy.stats import ncx2

from ris_ntn_sim import Architecture, SimConfig, build_geometry, fspl_amplitude, run_sweep

# Sweep means may miss their expectation by this many of their own standard errors.
Z_TOL = 4.0


def hop_amplitudes(cfg: SimConfig) -> tuple[float, float]:
    """(a_g, a_h): free-space amplitude times antenna gains of the two hops of the cascade."""
    geom = build_geometry(cfg)
    tx, ris, rx = (10.0 ** (dbi / 20.0)
                   for dbi in (cfg.tx_gain_dbi, cfg.ris_element_gain_dbi, cfg.rx_gain_dbi))
    return (ris * rx * fspl_amplitude(geom.d_ris_ut_m, geom.carrier_hz),
            tx * ris * fspl_amplitude(geom.d_leo_ris_m, geom.carrier_hz))


def direct_amplitude(cfg: SimConfig) -> float:
    """a_d: free-space amplitude times antenna gains of the direct hop."""
    geom = build_geometry(cfg)
    return (10.0 ** ((cfg.tx_gain_dbi + cfg.rx_gain_dbi) / 20.0)
            * fspl_amplitude(geom.d_direct_m, geom.carrier_hz))


def rice_moments(cfg: SimConfig) -> tuple[float, float]:
    """(nu^2, sigma^2) of the unit-power Rician fade."""
    k = 10.0 ** (cfg.rician_k_db / 10.0)
    return k / (k + 1.0), 0.5 / (k + 1.0)


def rice_mean(cfg: SimConfig) -> float:
    """E|f| of one unit-power Rician fade."""
    nu2, sigma2 = rice_moments(cfg)
    return math.sqrt(sigma2 * math.pi / 2.0) * hyp1f1(-0.5, 1.0, -nu2 / (2.0 * sigma2))


def expected_gain(cfg: SimConfig, label: str, elements: int) -> float:
    """E|h_eff| of one cell under unit-power Rician fades and a blocked direct link."""
    nu2, sigma2 = rice_moments(cfg)
    a_g, a_h = hop_amplitudes(cfg)
    arch = Architecture.from_label(label)
    if arch.kind == "sc":
        return elements * a_g * a_h * rice_mean(cfg) ** 2
    size = arch.block_size(elements)
    mean_norm = math.sqrt(sigma2) * ncx2.expect(np.sqrt, args=(2 * size, size * nu2 / sigma2))
    return elements // size * a_g * a_h * mean_norm ** 2


def test_one_entry_norm_is_the_rice_mean():
    cfg = SimConfig()
    assert expected_gain(cfg, "fc", 1) == pytest.approx(expected_gain(cfg, "sc", 1), rel=1e-10)


def test_rician_means_match_the_closed_forms():
    cfg = SimConfig(trials=1000, architectures=("sc", "fc", "gc:4"), seed=42)
    rows = {(r.arch, r.elements, r.trial): r.h_eff_mag
            for r in run_sweep(cfg) if r.trial in ("mean", "stderr")}
    cells = {(arch, m) for arch, m, _ in rows}
    assert len(cells) == 3 * len(cfg.elements_sweep)
    for arch, m in sorted(cells):
        mean, stderr = rows[arch, m, "mean"], rows[arch, m, "stderr"]
        assert abs(mean - expected_gain(cfg, arch, m)) <= Z_TOL * stderr, (arch, m)


def cell_means(cfg: SimConfig) -> dict[tuple[str, int], tuple[float, float]]:
    """(mean, stderr) of h_eff_mag per (arch, elements) cell, from the sweep's aggregate rows."""
    rows = {(r.arch, r.elements, r.trial): r.h_eff_mag
            for r in run_sweep(cfg) if r.trial in ("mean", "stderr")}
    return {(arch, m): (rows[arch, m, "mean"], rows[arch, m, "stderr"])
            for arch, m, _ in rows}


def test_clear_direct_link_adds_the_direct_rice_mean():
    # a 50 dBi surface lifts the cascade well above the spread of |h_d| at every element count
    cfg = SimConfig(trials=1000, architectures=("sc", "fc", "gc:4"), seed=42,
                    direct_link="clear", ris_element_gain_dbi=50.0)
    direct = direct_amplitude(cfg) * rice_mean(cfg)
    cells = cell_means(cfg)
    assert len(cells) == 3 * len(cfg.elements_sweep)
    for (arch, m), (mean, stderr) in sorted(cells.items()):
        assert abs(mean - direct - expected_gain(cfg, arch, m)) <= Z_TOL * stderr, (arch, m)


def test_common_los_means_match_the_closed_forms():
    cfg = SimConfig(trials=1000, architectures=("sc", "fc", "gc:4"), seed=42,
                    fading_phase_mode="common_los")
    cells = cell_means(cfg)
    assert len(cells) == 3 * len(cfg.elements_sweep)
    for (arch, m), (mean, stderr) in sorted(cells.items()):
        assert abs(mean - expected_gain(cfg, arch, m)) <= Z_TOL * stderr, (arch, m)


def test_fc_second_moment_is_the_product_of_the_hop_powers():
    cfg = SimConfig(trials=1000, architectures=("sc", "fc", "gc:4"), seed=42)
    a_g, a_h = hop_amplitudes(cfg)
    squares: dict[int, list[float]] = {}
    for r in run_sweep(cfg):
        if r.arch == "fc" and isinstance(r.trial, int):
            squares.setdefault(r.elements, []).append(r.h_eff_mag ** 2)
    assert sorted(squares) == sorted(cfg.elements_sweep)
    for m, values in squares.items():
        values = np.array(values)
        assert len(values) == cfg.trials
        stderr = values.std(ddof=1) / math.sqrt(len(values))
        assert abs(values.mean() - (m * a_g * a_h) ** 2) <= Z_TOL * stderr, m


def test_pure_los_rows_equal_the_coherent_gain():
    cfg = SimConfig(trials=3, architectures=("sc", "fc", "gc:4"), fading_model="pure_los",
                    fading_phase_mode="common_los", direct_link="blocked", seed=5)
    a_g, a_h = hop_amplitudes(cfg)
    rows = [r for r in run_sweep(cfg) if isinstance(r.trial, int)]
    assert len(rows) == 3 * 3 * len(cfg.elements_sweep)
    for r in rows:
        assert r.h_eff_mag == pytest.approx(r.elements * a_g * a_h, rel=1e-12)
