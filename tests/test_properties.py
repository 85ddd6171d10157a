"""Property tests of the batched closed forms and the factored certificate the sweep evaluates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ris_ntn_sim import (
    UNIT_TOLERANCE,
    Architecture,
    ChannelSet,
    SimConfig,
    effective_channel,
    optimize,
    run_sweep,
)
from ris_ntn_sim.phase_optimizer import certify, closed_form_objective

# The ordering bounds are exact in real arithmetic; the two sides are rounded
# through different sums, so they may cross by a few ulps.
ORDER_RTOL = 1e-12

SC = Architecture.single_connected()
FC = Architecture.fully_connected()

# Magnitudes well inside the range where squared norms neither overflow nor
# underflow, plus exact zeros for the degenerate blocks.
_COMPONENT = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def channel_batches(draw, divisible_by=1):
    """(g, h, h_d) for a batch of trials over an element count divisible_by divides."""
    trials = draw(st.integers(1, 4))
    elements = divisible_by * draw(st.integers(1, 6))
    parts = draw(arrays(np.float64, (4, trials, elements), elements=_COMPONENT))
    direct = draw(arrays(np.float64, (2, trials), elements=_COMPONENT))
    return parts[0] + 1j * parts[1], parts[2] + 1j * parts[3], direct[0] + 1j * direct[1]


@st.composite
def channels_with_zero_blocks(draw, max_elements=64):
    """(channel, groups) with up to max_elements elements, some g and h blocks zeroed."""
    groups = draw(st.integers(1, 8))
    elements = groups * draw(st.integers(1, max_elements // groups))
    parts = draw(arrays(np.float64, (4, elements), elements=_COMPONENT))
    g, h = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    zero = draw(arrays(np.bool_, (2, groups)))
    g.reshape(groups, -1)[zero[0]] = 0.0
    h.reshape(groups, -1)[zero[1]] = 0.0
    h_d = draw(st.just(0.0) | st.builds(complex, _COMPONENT, _COMPONENT))
    return ChannelSet(h=h, g=g, h_d=h_d), groups


def _at_most(a, b):
    return np.all(a <= b * (1.0 + ORDER_RTOL))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_batched_objective_equals_optimize_bit_for_bit(data, groups):
    g, h, h_d = data.draw(channel_batches(divisible_by=groups))
    for arch in (SC, FC, Architecture.group_connected(groups)):
        batched = closed_form_objective(g, h, h_d, arch)
        for t in range(g.shape[0]):
            ch = ChannelSet(h=h[t], g=g[t], h_d=h_d[t])
            assert optimize(ch, arch).objective == batched[t]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_sc_below_gc_below_fc(data, groups):
    g, h, h_d = data.draw(channel_batches(divisible_by=groups))
    sc = closed_form_objective(g, h, h_d, SC)
    gc = closed_form_objective(g, h, h_d, Architecture.group_connected(groups))
    fc = closed_form_objective(g, h, h_d, FC)
    assert _at_most(sc, gc)
    assert _at_most(gc, fc)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_coarser_grouping_never_loses(data, groups, factor):
    g, h, h_d = data.draw(channel_batches(divisible_by=groups * factor))
    coarse = closed_form_objective(g, h, h_d, Architecture.group_connected(groups))
    fine = closed_form_objective(g, h, h_d, Architecture.group_connected(groups * factor))
    assert _at_most(fine, coarse)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**63 - 1),
    elements=st.sets(st.integers(1, 48), min_size=2, max_size=5),
    direct_link=st.sampled_from(["blocked", "clear"]),
)
def test_shared_draws_never_lose_gain_as_the_surface_grows(seed, elements, direct_link):
    cfg = SimConfig(trials=3, elements_sweep=tuple(elements), architectures=("sc", "fc"),
                    seed=seed, direct_link=direct_link)
    series = {}
    for r in run_sweep(cfg):
        if isinstance(r.trial, int):
            series.setdefault((r.arch, r.trial), []).append(r.h_eff_mag)
    for gains in series.values():
        assert gains == sorted(gains)


@settings(max_examples=100, deadline=None)
@given(channels_with_zero_blocks())
def test_factored_certificate_matches_the_dense_matrix(drawn):
    ch, groups = drawn
    for arch in (SC, FC, Architecture.group_connected(groups)):
        achieved, bound = certify(ch, arch)
        phi = optimize(ch, arch).phi
        dense = abs(effective_channel(phi, ch))
        assert abs(achieved - dense) <= 1e-12 * dense
        assert bound <= UNIT_TOLERANCE
        assert bound >= np.abs(phi.matrix.conj().T @ phi.matrix - np.eye(ch.elements)).max()
