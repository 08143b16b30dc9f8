"""Tests for state construction, projection, and small density matrices."""

import random
from fractions import Fraction

import numpy as np
import pytest

from onticsim.bitstate import OnticVector, complement, overlap_standard, random_ontic
from onticsim.errors import (
    DegenerateState,
    DimensionCap,
    LengthMismatch,
    NumericViolation,
)
from onticsim.indexing import FactorizationShape
from onticsim.states import (
    DensityMatrix,
    NaturalVector,
    PureState,
    density_full,
    project_standard,
    state_from_natural,
    state_from_ontic,
)


def bs(text):
    return OnticVector.from_bitstring(text)


def flat_shape(n):
    return FactorizationShape((n,))


class TestProjectStandard:
    def test_annihilates_all_ones(self):
        np.testing.assert_allclose(project_standard(np.ones(4)), np.zeros(4))

    def test_hand_case(self):
        np.testing.assert_allclose(
            project_standard([1.0, 0.0, 0.0, 0.0]),
            [0.75, -0.25, -0.25, -0.25],
        )

    def test_idempotent(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = rng.normal(size=9) + 1j * rng.normal(size=9)
            once = project_standard(v)
            np.testing.assert_allclose(project_standard(once), once, atol=1e-15)


class TestStateFromOntic:
    def test_two_elements(self):
        psi = state_from_ontic(bs("10"), flat_shape(2))
        np.testing.assert_allclose(psi.amps, [2**-0.5, -(2**-0.5)], atol=1e-15)

    def test_four_elements(self):
        psi = state_from_ontic(bs("1001"), flat_shape(4))
        np.testing.assert_allclose(psi.amps, [0.5, -0.5, -0.5, 0.5], atol=1e-15)

    def test_complement_flips_sign(self):
        shape = flat_shape(4)
        q = bs("1000")
        plus = state_from_ontic(q, shape)
        minus = state_from_ontic(complement(q), shape)
        np.testing.assert_allclose(minus.amps, -plus.amps, atol=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateState):
            state_from_ontic(bs("0000"), flat_shape(4))
        with pytest.raises(DegenerateState):
            state_from_ontic(bs("1111"), flat_shape(4))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            state_from_ontic(bs("101"), flat_shape(4))

    def test_unit_norm_and_zero_sum(self):
        rng = random.Random(11)
        shape = flat_shape(64)
        for _ in range(25):
            psi = state_from_ontic(random_ontic(64, rng=rng), shape)
            assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12
            assert abs(psi.coordinate_sum()) < 1e-10

    def test_projected_norm_exact_in_rationals(self):
        # ||q - (k/n) ones||^2 == k (n - k) / n, checked in exact arithmetic
        for n in (5, 12):
            for bits in (1, (1 << n) - 2, 0b10110 % (1 << n)):
                q = OnticVector(bits, n)
                k = Fraction(q.bits.bit_count())
                alpha = k / n
                total = sum((Fraction(b) - alpha) ** 2 for b in q.to_array().tolist())
                assert total == k * (n - k) / n

    def test_inner_products_match_overlap(self):
        rng = random.Random(21)
        shape = flat_shape(16)
        for _ in range(50):
            q = random_ontic(16, rng=rng)
            r = random_ontic(16, rng=rng)
            lhs = np.vdot(
                state_from_ontic(q, shape).amps, state_from_ontic(r, shape).amps
            ).real
            assert lhs == pytest.approx(overlap_standard(q, r), abs=1e-12)


class TestStateFromNatural:
    def test_hand_case(self):
        psi = state_from_natural([1, 0, 0, 0], flat_shape(4))
        np.testing.assert_allclose(
            psi.amps, np.array([3, -1, -1, -1]) / np.sqrt(12), atol=1e-15
        )

    def test_bit_pattern_matches_ontic_path(self):
        q = bs("0110")
        shape = flat_shape(4)
        via_natural = state_from_natural(q.to_array(), shape)
        via_ontic = state_from_ontic(q, shape)
        np.testing.assert_allclose(via_natural.amps, via_ontic.amps, atol=1e-14)

    def test_uniform_vector_degenerate(self):
        with pytest.raises(DegenerateState):
            state_from_natural([2, 2, 2, 2], flat_shape(4))

    def test_natural_vector_type_validates(self):
        with pytest.raises(DegenerateState):
            NaturalVector(np.array([3, 3, 3]), order=3)
        with pytest.raises(DegenerateState):
            NaturalVector(np.array([0, 0, 0]), order=2)
        nat = NaturalVector(np.array([2, 1, 0, 1]), order=2)
        psi = state_from_natural(nat, flat_shape(4))
        assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-12


class TestDensityFull:
    def test_two_element_outer_product(self):
        psi = state_from_ontic(bs("10"), flat_shape(2))
        rho = density_full(psi)
        np.testing.assert_allclose(
            rho.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_trace_one_and_pure(self):
        rng = random.Random(31)
        shape = flat_shape(12)
        for _ in range(10):
            rho = density_full(state_from_ontic(random_ontic(12, rng=rng), shape))
            assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)
            purity = np.trace(rho.entries @ rho.entries).real
            assert purity == pytest.approx(1.0, abs=1e-12)

    def test_complement_duality(self):
        # q and its complement give the same rank-one matrix: the global
        # minus sign cancels in the outer product.
        shape = flat_shape(4)
        q = bs("1100")
        rho_q = density_full(state_from_ontic(q, shape))
        rho_nq = density_full(state_from_ontic(complement(q), shape))
        assert np.abs(rho_q.entries - rho_nq.entries).max() < 1e-14

    def test_dimension_cap(self):
        shape = flat_shape(512)
        psi = state_from_ontic(random_ontic(512, seed=1), shape)
        with pytest.raises(DimensionCap):
            density_full(psi)
        assert density_full(psi, cap=512).dim == 512


class TestDtypeRule:
    # the stored dtype follows the input's dtype, never its values

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.float64])
    def test_real_input_stored_as_float64(self, dtype):
        psi = PureState(np.array([0, 1, 0, 0], dtype=dtype), flat_shape(4))
        assert psi.amps.dtype == np.float64
        assert psi.amps.tolist() == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("amps", [
        np.array([0, 1, 0, 0], dtype=np.complex128),
        np.array([0, 1, 0, 0], dtype=np.complex64),
        np.array([0.5, 0.5j, -0.5, -0.5j]),
    ])
    def test_complex_input_stored_as_complex128(self, amps):
        psi = PureState(amps, flat_shape(4))
        assert psi.amps.dtype == np.complex128
        np.testing.assert_array_equal(psi.amps, amps)

    def test_subset_states_are_float64(self):
        shape = FactorizationShape((2, 3, 2))
        q = random_ontic(12, seed=30)
        ontic = state_from_ontic(q, shape)
        assert ontic.amps.dtype == np.float64
        for entries in (q.to_array(), q.to_array().tolist(), NaturalVector(q.to_array())):
            natural = state_from_natural(entries, shape)
            assert natural.amps.dtype == np.float64
            np.testing.assert_allclose(natural.amps, ontic.amps, atol=1e-15)

    def test_single_precision_input_projected_in_double(self):
        # the projection runs in at least double precision, so float32
        # entries still give a state normalized to 1e-12
        shape = FactorizationShape((2, 3, 2))
        q = random_ontic(12, seed=31)
        expected = state_from_ontic(q, shape).amps
        for dtype in (np.float32, np.complex64):
            psi = state_from_natural(q.to_array().astype(dtype), shape)
            np.testing.assert_allclose(psi.amps, expected, atol=1e-15)
        assert project_standard(np.ones(3, dtype=np.float32)).dtype == np.float64
        assert project_standard(np.ones(3, dtype=np.complex64)).dtype == np.complex128


class TestTypes:
    def test_pure_state_validates_norm(self):
        with pytest.raises(NumericViolation):
            PureState(np.array([1.0, 1.0]), flat_shape(2))

    def test_pure_state_amps_read_only(self):
        psi = state_from_ontic(bs("10"), flat_shape(2))
        with pytest.raises(ValueError):
            psi.amps[0] = 0.0

    def test_density_matrix_validates(self):
        with pytest.raises(NumericViolation):
            DensityMatrix(np.array([[0.6, 0.0], [0.0, 0.6]]))
