"""Property tests of the batched closed forms and the factored certificate the sweep evaluates."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
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
from ris_ntn_sim import phase_optimizer
from ris_ntn_sim.phase_optimizer import certify_cells, closed_form_cells, closed_form_objective

from _oracles import prefix_closed_form

# The ordering bounds are exact in real arithmetic; the two sides are rounded
# through different sums, so they may cross by a few ulps.
ORDER_RTOL = 1e-12

SC = Architecture("sc")
FC = Architecture("fc")

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


@st.composite
def prefix_cells(draw, elements, groups):
    """Up to 8 (architecture, m) cells on prefixes of an elements-long channel of groups blocks.

    Prefixes of whole blocks make some gc blocks coincide with the zeroed ones.
    """
    size = elements // groups
    cells = []
    for _ in range(draw(st.integers(1, 8))):
        m = draw(st.integers(1, elements) | st.integers(1, groups).map(size.__mul__))
        kind = draw(st.sampled_from(["sc", "fc", "gc"]))
        if kind == "gc":
            divisors = [u for u in range(1, m + 1) if m % u == 0]
            cells.append((Architecture("gc", draw(st.sampled_from(divisors))), m))
        else:
            cells.append((Architecture(kind), m))
    return cells


def _at_most(a, b):
    return np.all(a <= b * (1.0 + ORDER_RTOL))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_batched_objective_equals_optimize_bit_for_bit(data, groups):
    g, h, h_d = data.draw(channel_batches(divisible_by=groups))
    for arch in (SC, FC, Architecture("gc", groups)):
        batched = closed_form_objective(g, h, h_d, arch)
        for t in range(g.shape[0]):
            ch = ChannelSet(h=h[t], g=g[t], h_d=h_d[t])
            assert optimize(ch, arch).objective == batched[t]


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_shared_closed_forms_equal_each_prefix_call_bit_for_bit(data, trials, elements, seed):
    # up to 300 elements, so the prefix sums reach numpy's pairwise blocks of 128
    rng = np.random.default_rng(seed)
    # the sweep's layout: one row of fade powers per trial, direct link first, then h and g interleaved
    power = rng.exponential(size=(trials, 1 + 2 * elements))
    power[rng.random(power.shape) < 0.1] = 0.0
    power_g, power_h = power[:, 2::2], power[:, 1::2]
    cells = data.draw(prefix_cells(elements, 1))
    shared = closed_form_cells(power_g, power_h, cells)
    assert shared.shape == (len(cells), trials)
    for row, (arch, m) in zip(shared, cells):
        alone = closed_form_cells(power_g[:, :m], power_h[:, :m], [(arch, m)])[0]
        assert np.array_equal(row.view(np.uint64), alone.view(np.uint64))
        reference = prefix_closed_form(power_g, power_h, arch, m)
        assert np.array_equal(row.view(np.uint64), reference.view(np.uint64))


def test_closed_form_broadcasts_h_d_over_the_channel_rows():
    # one channel row against three direct links gives three objectives
    rng = np.random.default_rng(5)
    g, h = rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8))
    h_d = np.array([0.0, 0.5 - 2j, 3.0])
    for arch in (SC, FC, Architecture("gc", 4)):
        objective = closed_form_objective(g, h, h_d, arch)
        gain = closed_form_objective(g, h, 0.0, arch)
        assert objective.shape == (3,)
        assert np.array_equal(objective.view(np.uint64), (np.abs(h_d) + gain).view(np.uint64))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_sc_below_gc_below_fc(data, groups):
    g, h, h_d = data.draw(channel_batches(divisible_by=groups))
    sc = closed_form_objective(g, h, h_d, SC)
    gc = closed_form_objective(g, h, h_d, Architecture("gc", groups))
    fc = closed_form_objective(g, h, h_d, FC)
    assert _at_most(sc, gc)
    assert _at_most(gc, fc)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_coarser_grouping_never_loses(data, groups, factor):
    g, h, h_d = data.draw(channel_batches(divisible_by=groups * factor))
    coarse = closed_form_objective(g, h, h_d, Architecture("gc", groups))
    fine = closed_form_objective(g, h, h_d, Architecture("gc", groups * factor))
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
    for arch in (SC, FC, Architecture("gc", groups)):
        [achieved], [bound] = certify_cells(ch, [(arch, ch.elements)])
        phi = optimize(ch, arch).phi
        dense = abs(effective_channel(phi, ch))
        assert abs(achieved - dense) <= 1e-12 * dense
        assert bound <= UNIT_TOLERANCE
        assert bound >= np.abs(phi.matrix.conj().T @ phi.matrix - np.eye(ch.elements)).max()


@settings(max_examples=100, deadline=None)
@given(channels_with_zero_blocks(), st.data(),
       st.sampled_from([phase_optimizer.PASS_ENTRIES, 1, 7, 40]))
def test_cell_certificates_match_the_dense_matrices(drawn, data, pass_entries):
    # the default pass constant certifies all cells in one pass, the small ones in several
    ch, groups = drawn
    cells = data.draw(prefix_cells(ch.elements, groups))
    with mock.patch.object(phase_optimizer, "PASS_ENTRIES", pass_entries):
        certificates = list(zip(*certify_cells(ch, cells)))
    assert len(certificates) == len(cells)
    for (arch, m), (achieved, bound) in zip(cells, certificates):
        prefix = ChannelSet(h=ch.h[:m], g=ch.g[:m], h_d=ch.h_d)
        phi = optimize(prefix, arch).phi
        dense = abs(effective_channel(phi, prefix))
        assert abs(achieved - dense) <= 1e-12 * dense
        assert bound <= UNIT_TOLERANCE
        assert bound >= np.abs(phi.matrix.conj().T @ phi.matrix - np.eye(m)).max()


@settings(max_examples=50, deadline=None)
@given(channels_with_zero_blocks())
@example((ChannelSet(h=[1 + 1j], g=[1j], h_d=0), 1))
def test_sc_pass_alone_equals_a_pass_shared_with_fc(drawn):
    # a cell's values do not depend on the cells sharing its pass
    ch, _ = drawn
    cells = [(SC, ch.elements), (FC, ch.elements)]
    shared = certify_cells(ch, cells)
    with mock.patch.object(phase_optimizer, "PASS_ENTRIES", ch.elements):
        alone = certify_cells(ch, cells)  # each cell in a pass of its own
    for a, b in zip(shared, alone):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
