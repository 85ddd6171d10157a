"""Closed-form optimizer correctness against oracles and analytic bounds."""

import math

import numpy as np
import pytest

from ris_ntn_sim import (
    Architecture,
    ChannelSet,
    FadingSpec,
    InvalidInput,
    SimConfig,
    build_geometry,
    generate_channels,
    optimize,
    validate,
)

from _helpers import effective_gain, unit_channel
from _oracles import brute_force_fc2, brute_force_sc

SC, FC = Architecture("sc"), Architecture("fc")


class TestOptimizeSc:
    def test_aligns_each_term_with_direct_path(self):
        ch = ChannelSet(h=np.array([1.0, 1.0], dtype=complex),
                        g=np.array([1.0, 1j], dtype=complex), h_d=1 + 0j)
        result = optimize(ch, SC)
        assert result.objective == pytest.approx(3.0, rel=1e-12)
        assert np.allclose(np.diag(result.phi.matrix), [1.0, -1j], atol=1e-12)

    def test_single_element_product_of_magnitudes(self):
        a, b = 0.7, 1.9
        ch = ChannelSet(h=np.array([b * np.exp(0.4j)]),
                        g=np.array([a * np.exp(-1.1j)]), h_d=0j)
        assert optimize(ch, SC).objective == pytest.approx(a * b, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_against_dense_grid_search(self, seed):
        ch = unit_channel(3, seed)
        grid = 256
        oracle = brute_force_sc(ch, grid)
        closed = optimize(ch, SC)
        assert closed.objective >= oracle.objective - 1e-12
        assert closed.objective - oracle.objective <= (2 * math.pi / grid) * closed.objective

    def test_zero_direct_path_uses_zero_reference(self):
        ch = unit_channel(4, 9, h_d_scale=0.0)
        result = optimize(ch, SC)
        assert result.objective == pytest.approx(float(np.abs(ch.g * ch.h).sum()), rel=1e-12)
        assert effective_gain(result.phi, ch) == pytest.approx(result.objective, rel=1e-12)


class TestOptimizeFc:
    def test_disjoint_supports_need_interconnection(self):
        ch = ChannelSet(h=np.array([0.0, 1.0], dtype=complex),
                        g=np.array([1.0, 0.0], dtype=complex), h_d=0j)
        assert optimize(ch, SC).objective == pytest.approx(0.0, abs=1e-15)
        assert optimize(ch, FC).objective == pytest.approx(1.0, rel=1e-12)

    def test_equal_magnitude_channels_close_the_gap(self):
        rng = np.random.default_rng(4)
        h = 1.3 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        g = 0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        ch = ChannelSet(h=h, g=g, h_d=0j)
        assert optimize(ch, FC).objective == pytest.approx(optimize(ch, SC).objective, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_against_unitary_grid_search(self, seed):
        ch = unit_channel(2, seed)
        oracle = brute_force_fc2(ch, 32)
        closed = optimize(ch, FC)
        assert oracle.objective <= closed.objective + 1e-9
        assert oracle.objective >= 0.99 * closed.objective

    @pytest.mark.parametrize("label", ["sc", "fc", "gc:3"])
    def test_zero_channel_degenerates_to_identity(self, label):
        ch = ChannelSet(h=np.ones(3, dtype=complex), g=np.zeros(3, dtype=complex), h_d=2j)
        result = optimize(ch, Architecture.from_label(label))
        assert result.degenerate
        assert result.objective == pytest.approx(2.0, rel=1e-12)
        assert np.array_equal(result.phi.matrix, np.eye(3))
        validate(result.phi)

    def test_single_element(self):
        ch = unit_channel(1, 17)
        result = optimize(ch, FC)
        expected = abs(ch.h_d) + abs(ch.g[0]) * abs(ch.h[0])
        assert result.objective == pytest.approx(expected, rel=1e-12)


class TestOptimizeGc:
    def test_one_group_per_element_reduces_to_sc(self):
        ch = unit_channel(6, 2)
        gc = optimize(ch, Architecture("gc", 6))
        sc = optimize(ch, SC)
        assert gc.objective == pytest.approx(sc.objective, rel=1e-12)
        assert np.allclose(gc.phi.matrix, sc.phi.matrix, atol=1e-12)
        assert gc.phi.arch == Architecture("gc", 6)

    def test_single_group_reduces_to_fc(self):
        ch = unit_channel(6, 3)
        fc = optimize(ch, FC).objective
        assert optimize(ch, Architecture("gc", 1)).objective == pytest.approx(fc, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_sandwiched_between_sc_and_fc(self, seed):
        ch = unit_channel(4, seed)
        sc = optimize(ch, SC).objective
        gc = optimize(ch, Architecture("gc", 2)).objective
        fc = optimize(ch, FC).objective
        assert sc <= gc + 1e-9
        assert gc <= fc + 1e-9

    def test_group_count_must_divide(self):
        with pytest.raises(InvalidInput):
            optimize(unit_channel(4, 0), Architecture("gc", 3))

    def test_zero_block_contributes_nothing(self):
        h = np.array([0.0, 0.0, 1.0, 1.0], dtype=complex)
        g = np.ones(4, dtype=complex)
        ch = ChannelSet(h=h, g=g, h_d=0.5 + 0j)
        result = optimize(ch, Architecture("gc", 2))
        expected = 0.5 + float(np.linalg.norm(g[2:]) * np.linalg.norm(h[2:]))
        assert result.objective == pytest.approx(expected, rel=1e-12)
        assert np.array_equal(result.phi.matrix[:2, :2], np.eye(2))
        validate(result.phi)

    def test_disjoint_blocks_degenerate(self):
        # g and h are nonzero, but no block sees both, so no block has a gain
        g = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex)
        ch = ChannelSet(h=g[::-1], g=g, h_d=0.5j)
        result = optimize(ch, Architecture("gc", 2))
        assert result.degenerate
        assert result.objective == pytest.approx(0.5, rel=1e-12)
        assert np.array_equal(result.phi.matrix, np.eye(4))


class TestOrderingAndInvariance:
    @pytest.mark.parametrize("seed", range(30))
    def test_architecture_ordering_chain(self, seed):
        ch = unit_channel(8, seed)
        sc = optimize(ch, SC).objective
        fc = optimize(ch, FC).objective
        for groups in (1, 2, 4, 8):
            gc = optimize(ch, Architecture("gc", groups)).objective
            assert sc <= gc + 1e-9
            assert gc <= fc + 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_global_phase_invariance(self, seed):
        ch = unit_channel(6, seed)
        rotated = ChannelSet(h=ch.h * np.exp(1.3j), g=ch.g * np.exp(-0.7j), h_d=ch.h_d)
        for arch in ("sc", "fc", "gc:2", "gc:3"):
            a = optimize(ch, Architecture.from_label(arch)).objective
            b = optimize(rotated, Architecture.from_label(arch)).objective
            assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_in_elements_without_fading(self):
        geom = build_geometry(SimConfig())
        full = generate_channels(geom, FadingSpec("pure_los"), 12, 5)
        objectives = [
            optimize(ChannelSet(h=full.h[:m], g=full.g[:m], h_d=full.h_d), SC).objective
            for m in range(1, 13)
        ]
        assert all(a <= b + 1e-18 for a, b in zip(objectives, objectives[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_objective_matches_effective_channel(self, seed):
        ch = unit_channel(5, seed)
        for label in ("sc", "fc", "gc:5"):
            result = optimize(ch, Architecture.from_label(label))
            recomputed = abs(effective_gain(result.phi, ch))
            assert recomputed == pytest.approx(result.objective, rel=1e-9)


class TestBruteForceSc:
    def test_single_element_any_phase_attains_product(self):
        ch = ChannelSet(h=np.ones(1, dtype=complex), g=np.ones(1, dtype=complex), h_d=0j)
        assert brute_force_sc(ch, 4).objective == pytest.approx(1.0, rel=1e-12)

    def test_grid_never_beats_continuous_optimum(self):
        ch = unit_channel(3, 31)
        assert brute_force_sc(ch, 32).objective <= optimize(ch, SC).objective + 1e-12

    def test_refuses_large_instances(self):
        with pytest.raises(ValueError, match="refused for more than 4 elements"):
            brute_force_sc(unit_channel(5, 0), 8)

    def test_refuses_tiny_grid(self):
        with pytest.raises(ValueError):
            brute_force_sc(unit_channel(2, 0), 3)

    def test_four_elements_supported(self):
        ch = unit_channel(4, 13)
        result = brute_force_sc(ch, 8)
        assert result.objective <= optimize(ch, SC).objective + 1e-12
        validate(result.phi)


class TestBruteForceFc2:
    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="defined for exactly 2 elements"):
            brute_force_fc2(unit_channel(3, 0), 16)

    def test_disjoint_supports_reach_optimum(self):
        ch = ChannelSet(h=np.array([0.0, 1.0], dtype=complex),
                        g=np.array([1.0, 0.0], dtype=complex), h_d=0j)
        assert brute_force_fc2(ch, 32).objective >= 0.995

    def test_identity_favorable_channel(self):
        ch = ChannelSet(h=np.array([1.0, 0.0], dtype=complex),
                        g=np.array([1.0, 0.0], dtype=complex), h_d=0j)
        assert brute_force_fc2(ch, 32).objective >= 0.995

    def test_feasible_subset_bound(self):
        ch = unit_channel(2, 8)
        assert brute_force_fc2(ch, 16).objective <= optimize(ch, FC).objective + 1e-9

    def test_returned_matrix_is_unitary(self):
        result = brute_force_fc2(unit_channel(2, 21), 16)
        validate(result.phi)
