"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
import pytest

from ris_ntn_sim import (
    Architecture,
    FadingSpec,
    SimConfig,
    build_geometry,
    emit_csv,
    generate_channels,
    optimize,
    path_loss_db,
    run_sweep,
    validate,
)
from ris_ntn_sim.sweep import _metadata_path

from _helpers import effective_gain, unit_channel
from _oracles import brute_force_fc2, brute_force_sc

RESIDUAL_TOL = 1e-10
CHAIN_SLACK = 1e-9

SC, FC = Architecture("sc"), Architecture("fc")


@pytest.fixture(scope="module")
def default_sweep():
    cfg = SimConfig()
    start = time.perf_counter()
    records = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    return cfg, records, elapsed


def _cell_stats(records, column="ee_bits_per_joule"):
    mean, stderr = {}, {}
    for r in records:
        if r.trial == "mean":
            mean[(r.arch, r.elements)] = getattr(r, column)
        elif r.trial == "stderr":
            stderr[(r.arch, r.elements)] = getattr(r, column)
    return mean, stderr


def test_criterion_1_constraint_suite():
    """Every optimizer output is feasible with residual <= 1e-10, in under 10 s."""
    sizes = (1, 2, 4, 8, 32, 64)
    start = time.perf_counter()
    checked = 0
    for index in range(200):
        m = sizes[index % len(sizes)]
        ch = unit_channel(m, 10_000 + index)
        divisors = [u for u in (1, 2, 4, 8, 16) if m % u == 0]
        groups = divisors[index % len(divisors)]
        for label in ("sc", "fc", f"gc:{groups}"):
            result = optimize(ch, Architecture.from_label(label))
            validate(result.phi)  # enforces the 1e-10 max-norm residual
            gram = result.phi.matrix.conj().T @ result.phi.matrix
            assert np.abs(gram - np.eye(m)).max() <= RESIDUAL_TOL
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 PASS: {checked} optimizer outputs feasible "
          f"(residual <= {RESIDUAL_TOL}) in {elapsed:.2f}s")


def test_criterion_2_architecture_ordering_chain():
    """sc <= gc(U) <= fc per instance, 1000 seeds, M=32, U in {2,4,8,16}, under 30 s."""
    start = time.perf_counter()
    for seed in range(1000):
        ch = unit_channel(32, 20_000 + seed)
        sc = optimize(ch, SC).objective
        fc = optimize(ch, FC).objective
        for groups in (2, 4, 8, 16):
            gc = optimize(ch, Architecture("gc", groups)).objective
            assert sc <= gc + CHAIN_SLACK
            assert gc <= fc + CHAIN_SLACK
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 2 PASS: ordering chain held on 1000 instances in {elapsed:.2f}s")


def test_criterion_3_brute_force_oracles():
    """Grid oracles bracket the closed forms: 50 seeds each, under 2 min."""
    start = time.perf_counter()
    sc_grid = 64
    envelope = 2.0 * (2.0 * math.pi / sc_grid)
    worst_fc_ratio = 1.0
    for seed in range(50):
        for m in (1, 2, 3):
            ch = unit_channel(m, 30_000 + seed)
            oracle = brute_force_sc(ch, sc_grid)
            closed = optimize(ch, SC)
            assert closed.objective >= oracle.objective - 1e-12
            assert closed.objective - oracle.objective <= envelope * closed.objective
        ch2 = unit_channel(2, 40_000 + seed)
        oracle2 = brute_force_fc2(ch2, 32)
        closed2 = optimize(ch2, FC)
        assert closed2.objective >= oracle2.objective - 1e-9
        ratio = oracle2.objective / closed2.objective
        worst_fc_ratio = min(worst_fc_ratio, ratio)
        assert ratio >= 0.99
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 3 PASS: oracle brackets held, worst unitary-grid ratio "
          f"{worst_fc_ratio:.4f}, in {elapsed:.2f}s")


def test_criterion_4_closed_form_certificates():
    """Objectives equal their certificates and the recomputed channel, 1000 seeds."""
    for seed in range(1000):
        m = 1 + seed % 64
        ch = unit_channel(m, 50_000 + seed)
        sc = optimize(ch, SC)
        sc_certificate = abs(ch.h_d) + float(np.abs(ch.g * ch.h).sum())
        assert sc.objective == pytest.approx(sc_certificate, rel=1e-9)
        assert abs(effective_gain(sc.phi, ch)) == pytest.approx(sc.objective, rel=1e-9)
        fc = optimize(ch, FC)
        fc_certificate = abs(ch.h_d) + float(np.linalg.norm(ch.g) * np.linalg.norm(ch.h))
        assert fc.objective == pytest.approx(fc_certificate, rel=1e-9)
        assert abs(effective_gain(fc.phi, ch)) == pytest.approx(fc.objective, rel=1e-9)
    print("criterion 4 PASS: closed-form certificates matched on 1000 instances")


def test_criterion_5_energy_efficiency_sweep_shape(default_sweep):
    """Default sweep: mean EE strictly increasing in M and fc above sc by > 3 SE."""
    cfg, records, elapsed = default_sweep
    assert elapsed < 60.0
    mean, stderr = _cell_stats(records)
    sizes = sorted(cfg.elements_sweep)
    for arch in ("sc", "fc"):
        series = [mean[(arch, m)] for m in sizes]
        assert all(a < b for a, b in zip(series, series[1:])), f"{arch} mean EE not increasing"
    min_margin = math.inf
    for m in sizes:
        gap = mean[("fc", m)] - mean[("sc", m)]
        combined_se = math.hypot(stderr[("fc", m)], stderr[("sc", m)])
        assert gap > 3.0 * combined_se, f"fc-sc gap not significant at M={m}"
        min_margin = min(min_margin, gap / combined_se)
    print(f"criterion 5 PASS: EE increasing in M for both architectures, "
          f"min fc-sc gap {min_margin:.1f} SE, sweep in {elapsed:.1f}s")


def test_criterion_6_link_budget_goldens():
    """Path-loss and noise-power golden values against the direct formulas."""
    from ris_ntn_sim import SPEED_OF_LIGHT

    def oracle_db(d, f):
        return 20.0 * math.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT)

    loss_a = path_loss_db(600e3, 19e9)
    assert loss_a == pytest.approx(oracle_db(600e3, 19e9), rel=1e-12)
    assert abs(loss_a - 173.59) <= 0.01
    loss_b = path_loss_db(15e3, 18.7e9)
    assert loss_b == pytest.approx(oracle_db(15e3, 18.7e9), rel=1e-12)
    assert abs(loss_b - 141.4) <= 0.1
    noise = 10.0 * math.log10(SimConfig(bandwidth_hz=2e7, noise_psd_dbm_hz=-170.0).noise_power_w) + 30.0
    assert abs(noise - (-96.99)) <= 0.01
    print(f"criterion 6 PASS: {loss_a:.2f} dB, {loss_b:.2f} dB, noise {noise:.2f} dBm")


def test_criterion_7_sweep_determinism(tmp_path, default_sweep):
    """Re-runs give byte-identical CSV."""
    cfg, records, _ = default_sweep
    reference = tmp_path / "ref.csv"
    emit_csv(records, reference)
    repeat = tmp_path / "repeat.csv"
    emit_csv(run_sweep(cfg), repeat)
    ref_bytes = reference.read_bytes()
    assert repeat.read_bytes() == ref_bytes
    meta_tail = lambda p: _metadata_path(p).read_text().split("\n", 1)[1]
    assert meta_tail(repeat) == meta_tail(reference)
    print(f"criterion 7 PASS: {len(ref_bytes)} CSV bytes identical across reruns")


def test_criterion_8_no_gap_without_fading():
    """Uniform-magnitude channels: interconnection buys nothing (equality case)."""
    geom = build_geometry(SimConfig())
    worst = 0.0
    for seed in range(10):
        ch = generate_channels(geom, FadingSpec("pure_los"), 16, 60_000 + seed)
        gap = abs(optimize(ch, FC).objective - optimize(ch, SC).objective)
        worst = max(worst, gap)
        assert gap <= 1e-9
    # same statement at unit scale: equal magnitudes with arbitrary phases
    rng = np.random.default_rng(8)
    from ris_ntn_sim import ChannelSet
    ch = ChannelSet(h=np.exp(1j * rng.uniform(0, 2 * np.pi, 16)),
                    g=np.exp(1j * rng.uniform(0, 2 * np.pi, 16)),
                    h_d=complex(rng.standard_normal(), rng.standard_normal()))
    gap = abs(optimize(ch, FC).objective - optimize(ch, SC).objective)
    assert gap <= 1e-9
    print(f"criterion 8 PASS: fc-sc objective gap <= {max(worst, gap):.2e} "
          f"without magnitude fading")
