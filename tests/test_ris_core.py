"""Constraint validation and channel application."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from ris_ntn_sim import (
    Architecture,
    ChannelSet,
    ConstraintViolated,
    DimensionMismatch,
    PhaseShiftMatrix,
    effective_channel,
    optimize,
    validate,
)

from _helpers import random_unitary, unit_channel
from _oracles import loop_validate

SC, FC = Architecture("sc"), Architecture("fc")


def _outcome(check, phi):
    """(reason, location, residual) of the error check raises on phi, or None."""
    try:
        check(phi)
    except ConstraintViolated as err:
        return err.reason, err.location, repr(err.residual)
    return None


class TestArchitecture:
    def test_labels_round_trip(self):
        for label in ("sc", "fc", "gc:1", "gc:4", "gc:16"):
            assert Architecture.from_label(label).label == label

    def test_bad_labels_rejected(self):
        for label in ("xx", "gc", "gc:", "gc:0", "gc:-2", "gc:four",
                      "gc:04", "gc: 4", "gc:+4", "gc:4_0", "gc:\u0664"):
            with pytest.raises(ValueError):
                Architecture.from_label(label)

    def test_group_count_must_divide_elements(self):
        arch = Architecture("gc", 3)
        assert arch.block_size(9) == 3
        with pytest.raises(DimensionMismatch):
            arch.block_size(8)

    def test_kind_checked(self):
        with pytest.raises(ValueError):
            Architecture("diag")
        with pytest.raises(ValueError):
            Architecture("sc", groups=2)


class TestValidate:
    def test_accepts_unit_modulus_diagonal(self):
        phi = PhaseShiftMatrix(np.diag([1.0, 1j, -1.0]), SC, 3)
        validate(phi)

    def test_accepts_identity_as_fully_connected(self):
        phi = PhaseShiftMatrix(np.eye(4), FC, 4)
        validate(phi)

    def test_rejects_non_unit_diagonal_entry(self):
        phi = PhaseShiftMatrix(np.diag([2.0, 1.0]), SC, 2)
        with pytest.raises(ConstraintViolated) as err:
            validate(phi)
        assert err.value.location == (0, 0)
        assert err.value.residual == pytest.approx(1.0)

    def test_rejects_offdiagonal_entry_for_sc(self):
        mat = np.diag([1.0 + 0j, 1.0, 1.0])
        mat[0, 2] = 1e-14  # any exact nonzero off the pattern is rejected
        phi = PhaseShiftMatrix(mat, SC, 3)
        with pytest.raises(ConstraintViolated) as err:
            validate(phi)
        assert err.value.location == (0, 2)

    def test_rejects_non_unitary_full_matrix(self):
        phi = PhaseShiftMatrix(np.ones((3, 3)) / 2.0, FC, 3)
        with pytest.raises(ConstraintViolated):
            validate(phi)

    def test_rejects_non_finite_entries(self):
        mat = np.eye(2, dtype=complex)
        mat[1, 1] = np.nan
        phi = PhaseShiftMatrix(mat, SC, 2)
        with pytest.raises(ConstraintViolated):
            validate(phi)

    def test_group_connected_blocks(self):
        blocks = [random_unitary(2, 0), random_unitary(2, 1)]
        validate(PhaseShiftMatrix(block_diag(*blocks), Architecture("gc", 2), 4))

    def test_group_connected_rejects_offblock_entry(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[:2, :2] = random_unitary(2, 0)
        mat[2:, 2:] = random_unitary(2, 1)
        mat[0, 3] = 1e-13
        phi = PhaseShiftMatrix(mat, Architecture("gc", 2), 4)
        with pytest.raises(ConstraintViolated) as err:
            validate(phi)
        assert err.value.location == (0, 3)

    def test_group_connected_rejects_non_unitary_block(self):
        bad = 0.5 * random_unitary(2, 0)
        phi = PhaseShiftMatrix(block_diag(random_unitary(2, 1), bad), Architecture("gc", 2), 4)
        with pytest.raises(ConstraintViolated) as err:
            validate(phi)
        assert err.value.location[0] >= 2

    def test_first_of_several_non_unitary_blocks_reported(self):
        # block 1 has Gram diag(1, 4), block 2 diag(9, 1): block 1's (1, 1) entry is reported
        blocks = [random_unitary(2, 0), np.diag([1.0, 2.0]), np.diag([3.0, 1.0])]
        with pytest.raises(ConstraintViolated) as err:
            validate(PhaseShiftMatrix(block_diag(*blocks), Architecture("gc", 3), 6))
        assert err.value.location == (3, 3)
        assert err.value.residual == 3.0
        assert err.value.reason == "block is not unitary"

    @pytest.mark.parametrize("label", ["sc", "gc:2"])
    def test_first_of_several_off_pattern_entries_reported(self, label):
        mat = np.diag([2.0 + 0j, 1.0, 1.0, 1.0])  # also non-unit: the pattern is checked first
        mat[2, 0] = 5.0
        mat[1, 3] = 0.25
        mat[3, 1] = 7.0
        phi = PhaseShiftMatrix(mat, Architecture.from_label(label), 4)
        with pytest.raises(ConstraintViolated) as err:
            validate(phi)
        assert err.value.location == (1, 3)
        assert err.value.residual == 0.25

    def test_first_of_several_non_unit_diagonal_entries_reported(self):
        phi = PhaseShiftMatrix(np.diag([1.0, 1j, 1.5j, -0.25, 2.0]), SC, 5)
        with pytest.raises(ConstraintViolated) as err:
            validate(phi)
        assert err.value.location == (2, 2)
        assert err.value.residual == 0.5
        assert err.value.reason == "diagonal entry must have unit modulus"

    @pytest.mark.parametrize("label,m", [("sc", 6), ("fc", 4), ("gc:2", 6), ("gc:3", 6), ("gc:6", 6)])
    def test_matches_loop_reference(self, label, m):
        # feasible matrices with 0-2 entries perturbed: small drifts, large
        # changes, off-pattern fill-ins and overflowing or non-finite values
        arch = Architecture.from_label(label)
        rng = np.random.default_rng(m)
        outcomes = set()
        for trial in range(200):
            mat = np.array(optimize(unit_channel(m, trial), arch).phi.matrix)
            for _ in range(rng.integers(0, 3)):
                i, j = rng.integers(0, m, 2)
                mat[i, j] = [mat[i, j] * (1 + 1e-9), mat[i, j] + 0.5, 1e-13, 1e200j, np.nan][trial % 5]
            phi = PhaseShiftMatrix(mat, arch, m)
            with np.errstate(all="ignore"):
                expected = _outcome(loop_validate, phi)
                assert _outcome(validate, phi) == expected
            outcomes.add(expected and expected[0])
        assert None in outcomes and len(outcomes) >= 3  # passes and two kinds of failure or more

    def test_memory_peak_of_a_fully_connected_check(self):
        phi = PhaseShiftMatrix(random_unitary(256, 4), FC, 256)
        tracemalloc.start()
        try:
            validate(phi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * phi.matrix.nbytes

    def test_group_count_not_dividing_elements(self):
        phi = PhaseShiftMatrix(np.eye(4), Architecture("gc", 3), 4)
        with pytest.raises(DimensionMismatch):
            validate(phi)

    def test_gc_with_unit_blocks_matches_sc(self):
        # U = M: block size 1 unitarity is exactly the unit-modulus rule
        rng = np.random.default_rng(5)
        good = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        validate(PhaseShiftMatrix(np.diag(good), Architecture("gc", 4), 4))
        bad = np.diag(good * 1.001)
        for arch in (SC, Architecture("gc", 4)):
            with pytest.raises(ConstraintViolated):
                validate(PhaseShiftMatrix(bad, arch, 4))

    def test_gc_with_one_group_matches_fc(self):
        u = random_unitary(4, 3)
        validate(PhaseShiftMatrix(u, Architecture("gc", 1), 4))
        validate(PhaseShiftMatrix(u, FC, 4))


class TestEffectiveChannel:
    def test_orthogonal_supports_through_identity(self):
        phi = PhaseShiftMatrix(np.eye(2), FC, 2)
        ch = ChannelSet(h=np.array([0.0, 1.0], dtype=complex),
                        g=np.array([1.0, 0.0], dtype=complex), h_d=0j)
        assert effective_channel(phi, ch) == 0j

    def test_direct_expansion(self):
        phi = PhaseShiftMatrix(np.diag([1.0, 1j]), SC, 2)
        ch = ChannelSet(h=np.array([1.0, 1.0], dtype=complex),
                        g=np.array([1.0, 1.0], dtype=complex), h_d=1 + 0j)
        assert effective_channel(phi, ch) == pytest.approx(2 + 1j)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_summation(self, seed):
        # independent oracle: literal double loop over matrix entries
        ch = unit_channel(5, seed)
        for phi in (optimize(ch, SC).phi, optimize(ch, FC).phi,
                    PhaseShiftMatrix(random_unitary(5, seed + 100), FC, 5)):
            naive = complex(ch.h_d)
            for i in range(5):
                for j in range(5):
                    naive += ch.g[i] * phi.matrix[i, j] * ch.h[j]
            fast = effective_channel(phi, ch)
            assert math.isclose(abs(fast - naive), 0.0, abs_tol=1e-12)

    def test_dimension_mismatch(self):
        phi = PhaseShiftMatrix(np.eye(3), FC, 3)
        with pytest.raises(DimensionMismatch):
            effective_channel(phi, unit_channel(4, 0))


class TestConstruction:
    def test_matrix_must_be_square(self):
        with pytest.raises(DimensionMismatch):
            PhaseShiftMatrix(np.ones((2, 3)), FC, 2)

    def test_elements_must_match_matrix(self):
        with pytest.raises(DimensionMismatch):
            PhaseShiftMatrix(np.eye(3), FC, 4)

    def test_matrix_is_read_only(self):
        phi = PhaseShiftMatrix(np.eye(2), FC, 2)
        with pytest.raises(ValueError):
            phi.matrix[0, 0] = 0.0

    def test_channel_set_checks(self):
        with pytest.raises(DimensionMismatch):
            ChannelSet(h=np.ones(3, dtype=complex), g=np.ones(2, dtype=complex), h_d=0j)
        with pytest.raises(ValueError):
            ChannelSet(h=np.array([np.inf + 0j]), g=np.ones(1, dtype=complex), h_d=0j)
        with pytest.raises(ValueError):
            ChannelSet(h=np.ones(1, dtype=complex), g=np.ones(1, dtype=complex), h_d=complex("nan"))


class TestBounds:
    @pytest.mark.parametrize("seed", range(8))
    def test_sc_triangle_inequality(self, seed):
        ch = unit_channel(6, seed)
        bound = abs(ch.h_d) + float(np.abs(ch.g * ch.h).sum())
        rng = np.random.default_rng(seed)
        for _ in range(10):
            phi = PhaseShiftMatrix(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 6))), SC, 6)
            assert abs(effective_channel(phi, ch)) <= bound * (1 + 1e-12)
        achieved = abs(effective_channel(optimize(ch, SC).phi, ch))
        assert achieved == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_fc_cauchy_schwarz(self, seed):
        ch = unit_channel(6, seed)
        bound = float(np.linalg.norm(ch.g) * np.linalg.norm(ch.h))
        for k in range(10):
            phi = PhaseShiftMatrix(random_unitary(6, 31 * seed + k), FC, 6)
            assert abs(ch.g @ phi.matrix @ ch.h) <= bound * (1 + 1e-12)
        best = optimize(ch, FC).phi
        assert abs(ch.g @ best.matrix @ ch.h) == pytest.approx(bound, rel=1e-12)

    def test_constructors_and_optimizers_validate_for_all_sizes(self):
        rng = np.random.default_rng(99)
        for m in range(1, 65):
            validate(PhaseShiftMatrix(np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, m))), SC, m))
            validate(PhaseShiftMatrix(random_unitary(m, m), FC, m))
            ch = unit_channel(m, m)
            divisors = [u for u in range(1, m + 1) if m % u == 0]
            for label in ["sc", "fc"] + [f"gc:{u}" for u in divisors]:
                result = optimize(ch, Architecture.from_label(label))
                validate(result.phi)
