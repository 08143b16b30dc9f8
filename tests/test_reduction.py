"""Tests for bipartite views, reduced matrices, and purities."""

import random

import numpy as np
import pytest

from onticsim.bitstate import OnticVector, complement, random_ontic
from onticsim.errors import ConfigError, DimensionCap, NumericViolation, TrivialSubsystem
from onticsim.indexing import FactorizationShape, SubsystemMask, split_index
from onticsim.reduction import (
    bipartite_view,
    purity,
    purity_from_density,
    reduced_density,
    reduced_density_bruteforce,
)
from onticsim.states import PureState, state_from_ontic


def bs(text):
    return OnticVector.from_bitstring(text)


def proper_masks(shape):
    return [
        SubsystemMask(bits, shape) for bits in range(1, (1 << shape.k) - 1)
    ]


class TestBipartiteView:
    def test_hand_reshape(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        view = bipartite_view(psi, SubsystemMask.from_positions(shape, [0]))
        np.testing.assert_allclose(
            view, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_complement_view_is_transpose(self):
        shape = FactorizationShape((2, 3, 2))
        psi = state_from_ontic(random_ontic(12, seed=1), shape)
        mask = SubsystemMask.from_positions(shape, [0, 1])
        a = bipartite_view(psi, mask)
        b = bipartite_view(psi, mask.complement())
        np.testing.assert_array_equal(a, b.T)

    def test_norm_one(self):
        shape = FactorizationShape((2, 2, 2, 2))
        rng = random.Random(2)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(16, rng=rng), shape)
            mask = SubsystemMask.from_positions(shape, [1, 3])
            assert np.linalg.norm(bipartite_view(psi, mask)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_placement_matches_split_index(self):
        shape = FactorizationShape((2, 3, 2))
        psi = state_from_ontic(random_ontic(12, seed=3), shape)
        for mask in proper_masks(shape):
            view = bipartite_view(psi, mask)
            for i in range(shape.total):
                row, col = split_index(shape, mask, i)
                assert view[row, col] == psi.amps[i]

    def test_trivial_rejected(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        with pytest.raises(TrivialSubsystem):
            bipartite_view(psi, SubsystemMask(0, shape))
        with pytest.raises(TrivialSubsystem):
            bipartite_view(psi, SubsystemMask(0b11, shape))


class TestReducedDensity:
    def test_product_state_stays_pure(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        rho = reduced_density(psi, SubsystemMask.from_positions(shape, [0]))
        np.testing.assert_allclose(rho.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-14)

    def test_entangled_hand_case(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1000"), shape)
        rho = reduced_density(psi, SubsystemMask.from_positions(shape, [0]))
        expected = np.array([[5 / 6, -1 / 6], [-1 / 6, 1 / 6]])
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15)

    def test_trace_one_everywhere(self):
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(4)
        for _ in range(5):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            for mask in proper_masks(shape):
                rho = reduced_density(psi, mask)
                assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_cap(self):
        shape = FactorizationShape((4, 4))
        psi = state_from_ontic(random_ontic(16, seed=5), shape)
        with pytest.raises(DimensionCap):
            reduced_density(psi, SubsystemMask.from_positions(shape, [0]), cap=2)


class TestBruteForceOracle:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_agrees_with_fast_path(self, dims):
        shape = FactorizationShape(dims)
        rng = random.Random(6)
        for _ in range(20):
            psi = state_from_ontic(random_ontic(shape.total, rng=rng), shape)
            for mask in proper_masks(shape):
                fast = reduced_density(psi, mask).entries
                slow = reduced_density_bruteforce(psi, mask).entries
                assert np.abs(fast - slow).max() < 1e-12

    def test_shape_contract(self):
        shape = FactorizationShape((2, 3))
        psi = state_from_ontic(random_ontic(6, seed=7), shape)
        rho = reduced_density_bruteforce(psi, SubsystemMask.from_positions(shape, [1]))
        assert rho.dim == 3
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    def test_complement_spectra_match(self):
        # nonzero eigenvalues of the two halves of a bipartition agree
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(8)
        for _ in range(5):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            for mask in proper_masks(shape):
                lhs = np.linalg.eigvalsh(reduced_density_bruteforce(psi, mask).entries)
                rhs = np.linalg.eigvalsh(
                    reduced_density_bruteforce(psi, mask.complement()).entries
                )
                big_l = np.sort(lhs[lhs > 1e-10])[::-1]
                big_r = np.sort(rhs[rhs > 1e-10])[::-1]
                assert big_l.size == big_r.size
                np.testing.assert_allclose(big_l, big_r, atol=1e-10)

    def test_oracle_scale_cap(self):
        shape = FactorizationShape((2,) * 9)
        psi = state_from_ontic(random_ontic(512, seed=9), shape)
        with pytest.raises(DimensionCap):
            reduced_density_bruteforce(psi, SubsystemMask.from_positions(shape, [0]))


class TestPurity:
    def test_product_state(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        assert purity(psi, SubsystemMask.from_positions(shape, [0])) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_hand_value(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1000"), shape)
        assert purity(psi, SubsystemMask.from_positions(shape, [0])) == pytest.approx(
            7 / 9, abs=1e-14
        )

    def test_schmidt_symmetry(self):
        shape = FactorizationShape((2, 2, 2, 2))
        rng = random.Random(10)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(16, rng=rng), shape)
            for mask in proper_masks(shape):
                assert purity(psi, mask) == pytest.approx(
                    purity(psi, mask.complement()), abs=1e-12
                )

    def test_bounds(self):
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(11)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            for mask in proper_masks(shape):
                p = purity(psi, mask)
                floor = 1.0 / min(mask.dim, shape.total // mask.dim)
                assert floor - 1e-12 <= p <= 1.0 + 1e-12

    def test_complement_state_gives_identical_purity(self):
        # dyadic shape: the amplitude sign flip is exact, so the purity
        # computation is bit-identical
        shape = FactorizationShape((2, 2, 2))
        rng = random.Random(12)
        for _ in range(10):
            q = random_ontic(8, rng=rng)
            psi_q = state_from_ontic(q, shape)
            psi_nq = state_from_ontic(complement(q), shape)
            for mask in proper_masks(shape):
                assert purity(psi_q, mask) == purity(psi_nq, mask)

    def test_sum_formula_cross_path(self):
        # Gram fast path vs the explicit diagonal + off-diagonal sum
        for dims in [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            shape = FactorizationShape(dims)
            rng = random.Random(13)
            for _ in range(20):
                psi = state_from_ontic(random_ontic(shape.total, rng=rng), shape)
                for mask in proper_masks(shape):
                    fast = purity(psi, mask)
                    slow = purity_from_density(reduced_density(psi, mask))
                    assert abs(fast - slow) < 1e-12

    def test_complex_state_matches_sum_formula(self):
        # sweeps and evolve from subsets now run in float64; this keeps the
        # single-state complex path checked against the density-matrix sum
        for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 2, 2)]:
            shape = FactorizationShape(dims)
            stack = phased(ontic_stack(shape, 4, seed=len(dims) + 40), seed=41)
            for amps in stack:
                psi = PureState(amps, shape)
                assert psi.amps.dtype == np.complex128
                for mask in proper_masks(shape):
                    slow = purity_from_density(reduced_density(psi, mask))
                    assert abs(purity(psi, mask) - slow) < 1e-12

    def test_trivial_rejected(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        with pytest.raises(TrivialSubsystem):
            purity(psi, SubsystemMask(0, shape))


class TestLargeScaleSymmetry:
    def test_full_width_pair_at_4096(self):
        # one complementary pair at the flagship scale; the sweep test
        # covers all of them
        shape = FactorizationShape.parse("2^12")
        psi = state_from_ontic(random_ontic(4096, seed=99), shape)
        mask = SubsystemMask.from_positions(shape, [0, 3, 5])
        assert purity(psi, mask) == pytest.approx(
            purity(psi, mask.complement()), abs=1e-11
        )


def ontic_stack(shape, count, seed):
    rng = random.Random(seed)
    return np.stack(
        [state_from_ontic(random_ontic(shape.total, rng=rng), shape).amps
         for _ in range(count)]
    )


def phased(stack, seed):
    # a per-amplitude random phase keeps each row unit-norm and makes it
    # genuinely complex
    rng = np.random.default_rng(seed)
    return stack * np.exp(2j * np.pi * rng.random(stack.shape))


class TestStackedPurity:
    @pytest.mark.parametrize("dims", [(2, 3, 2, 3, 2), (3, 2, 2), (2, 2, 3)])
    @pytest.mark.parametrize("complex_amps", [False, True])
    def test_matches_bruteforce_oracle(self, dims, complex_amps):
        shape = FactorizationShape(dims)
        stack = ontic_stack(shape, 3, seed=sum(dims))
        if complex_amps:
            stack = phased(stack, seed=len(dims))
        assert stack.dtype == (np.complex128 if complex_amps else np.float64)
        for mask in proper_masks(shape):
            got = purity(stack, mask)
            for row, amps in enumerate(stack):
                rho = reduced_density_bruteforce(PureState(amps, shape), mask)
                assert abs(got[row] - purity_from_density(rho)) < 1e-12

    @pytest.mark.parametrize("text", ["3x2x2", "2x3x2x3x2", "2^8"])
    @pytest.mark.parametrize("complex_amps", [False, True])
    def test_row_alone_equals_row_in_stack(self, text, complex_amps):
        shape = FactorizationShape.parse(text)
        stack = ontic_stack(shape, 5, seed=21)
        if complex_amps:
            stack = phased(stack, seed=22)
        for mask in proper_masks(shape):
            together = purity(stack, mask)
            for row in range(len(stack)):
                alone = purity(stack[row:row + 1].copy(), mask)
                assert alone[0] == together[row]

    def test_out_of_range_purity_raises(self):
        shape = FactorizationShape((2, 3, 2))
        stack = ontic_stack(shape, 2, seed=24) * 1.5
        with pytest.raises(NumericViolation, match="state row 0"):
            purity(stack, SubsystemMask.from_positions(shape, [0]))

    def test_rejects_bad_inputs(self):
        shape = FactorizationShape((2, 3, 2))
        stack = ontic_stack(shape, 2, seed=25)
        with pytest.raises(TrivialSubsystem):
            purity(stack, SubsystemMask(0, shape))
        with pytest.raises(ConfigError):
            purity(stack[:, :6], SubsystemMask.from_positions(shape, [0]))
