"""Tests for the entropy functionals and spectra."""

import math
import random

import numpy as np
import pytest

from onticsim.bitstate import OnticVector, random_ontic
from onticsim.entropy import (
    Spectrum,
    collision_entropy,
    renyi_entropy,
    spectrum_of,
    von_neumann_entropy,
)
from onticsim.errors import AlphaOne, DomainError, NotHermitian, NumericViolation
from onticsim.indexing import FactorizationShape, SubsystemMask
from onticsim.reduction import purity, reduced_density
from onticsim.states import DensityMatrix, PureState, state_from_ontic


def random_spectra(count, dim, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.dirichlet(np.ones(dim)) for _ in range(count)]


class TestCollisionEntropy:
    def test_pure(self):
        assert collision_entropy(1.0) == 0.0

    def test_maximally_mixed_qubit(self):
        assert collision_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        assert collision_entropy(7 / 9) == pytest.approx(math.log2(9 / 7), abs=1e-15)
        assert collision_entropy(7 / 9) == pytest.approx(0.36257, abs=5e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            collision_entropy(0.0)
        with pytest.raises(DomainError):
            collision_entropy(-0.1)
        with pytest.raises(DomainError):
            collision_entropy(1.1)

    def test_slight_over_unity_clamps_to_zero(self):
        assert collision_entropy(1.0 + 5e-10) == 0.0

    def test_scalar_gives_float(self):
        assert type(collision_entropy(0.5)) is float
        assert type(collision_entropy(np.float64(0.5))) is float

    def test_pure_gives_plus_zero(self):
        assert math.copysign(1.0, collision_entropy(1.0)) == 1.0
        s2 = collision_entropy(np.array([1.0, 1.0 + 5e-10]))
        assert np.all(np.copysign(1.0, s2) == 1.0)

    def test_array_matches_scalar_formula(self):
        # 1/d for every d up to 4096 plus a uniform grid and the clamp
        # region, in a 2-D shape
        p = np.concatenate([
            1.0 / np.arange(1, 4097), np.linspace(1e-6, 1.0, 4095), [1.0 + 5e-10]
        ]).reshape(64, 128)
        s2 = collision_entropy(p)
        assert s2.shape == p.shape and s2.dtype == np.float64
        for got, value in zip(s2.ravel().tolist(), p.ravel().tolist()):
            want = -math.log2(min(value, 1.0))
            assert abs(got - want) <= 1e-15 * max(1.0, want)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.nan, 1.0 + 2e-9])
    def test_array_domain(self, bad):
        with pytest.raises(DomainError):
            collision_entropy(np.array([[0.5, 0.25], [bad, 1.0]]))
        with pytest.raises(DomainError):
            collision_entropy(bad)


class TestRenyiEntropy:
    @pytest.mark.parametrize("d", [2, 3, 8, 16])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0, 3.0, 50.0])
    def test_uniform_spectrum(self, d, alpha):
        spec = Spectrum(np.full(d, 1.0 / d))
        assert renyi_entropy(spec, alpha) == pytest.approx(math.log2(d), abs=1e-12)

    def test_alpha_two_matches_collision(self):
        for vals in random_spectra(20, 6, seed=1):
            expected = collision_entropy(float(np.sum(vals**2)))
            assert renyi_entropy(vals, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_alpha_zero_counts_support(self):
        spec = Spectrum(np.array([0.5, 0.5, 0.0, 0.0]))
        assert renyi_entropy(spec, 0.0) == 1.0

    def test_alpha_one_rejected(self):
        spec = Spectrum(np.array([0.5, 0.5]))
        with pytest.raises(AlphaOne):
            renyi_entropy(spec, 1.0)
        with pytest.raises(AlphaOne):
            renyi_entropy(spec, 1.0 + 1e-10)

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            renyi_entropy(Spectrum(np.array([1.0])), -0.5)

    def test_monotone_in_alpha(self):
        alphas = [0.0, 0.5, 2.0, 3.0, 50.0]
        for vals in random_spectra(100, 8, seed=2):
            series = [renyi_entropy(vals, a) for a in alphas]
            for lo, hi in zip(series[1:], series[:-1]):
                assert lo <= hi + 1e-10

    def test_hand_spectrum_from_reduction_example(self):
        # eigenvalues of [[5/6, -1/6], [-1/6, 1/6]]: the characteristic
        # polynomial x^2 - x + 1/9 has roots (3 +- sqrt(5)) / 6
        lam = np.array([(3 + math.sqrt(5)) / 6, (3 - math.sqrt(5)) / 6])
        assert lam.sum() == pytest.approx(1.0, abs=1e-15)
        s2 = renyi_entropy(Spectrum(lam), 2.0)
        assert s2 == pytest.approx(math.log2(9 / 7), abs=1e-12)
        assert s2 == pytest.approx(0.36257, abs=5e-6)


class TestVonNeumann:
    def test_pure(self):
        assert von_neumann_entropy(Spectrum(np.array([1.0, 0.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(Spectrum(np.full(4, 0.25))) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_dominates_collision(self):
        for vals in random_spectra(100, 5, seed=3):
            s1 = von_neumann_entropy(vals)
            s2 = renyi_entropy(vals, 2.0)
            assert s1 >= s2 - 1e-10

    def test_is_alpha_to_one_limit(self):
        # centered estimate: the pair at 1 +- eps cancels the first-order
        # term, leaving an O(eps^2) error
        for vals in random_spectra(10, 6, seed=4):
            s1 = von_neumann_entropy(vals)
            above = renyi_entropy(vals, 1.0 + 1e-4)
            below = renyi_entropy(vals, 1.0 - 1e-4)
            assert (above + below) / 2 == pytest.approx(s1, abs=1e-6)
            assert above <= s1 + 1e-12 <= below + 1e-6


class TestSpectrumOf:
    def test_identity_over_d(self):
        rho = DensityMatrix(np.eye(4) / 4)
        np.testing.assert_allclose(spectrum_of(rho).values, np.full(4, 0.25), atol=1e-14)

    def test_hand_matrix(self):
        rho = DensityMatrix(np.array([[5 / 6, -1 / 6], [-1 / 6, 1 / 6]]))
        expected = np.array([(3 + math.sqrt(5)) / 6, (3 - math.sqrt(5)) / 6])
        np.testing.assert_allclose(spectrum_of(rho).values, expected, atol=1e-14)

    def test_rank_one_input(self):
        shape = FactorizationShape((6,))
        psi = state_from_ontic(random_ontic(6, seed=5), shape)
        rho = DensityMatrix(np.outer(psi.amps, psi.amps.conj()))
        vals = spectrum_of(rho).values
        assert vals[0] == pytest.approx(1.0, abs=1e-10)
        assert np.abs(vals[1:]).max() < 1e-10

    def test_not_hermitian(self):
        with pytest.raises(NotHermitian):
            spectrum_of(np.array([[0.5, 0.1], [0.0, 0.5]]))

    def test_schmidt_pairs_share_spectra(self):
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(6)
        for _ in range(5):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            mask = SubsystemMask.from_positions(shape, [0, 2])
            lhs = spectrum_of(reduced_density(psi, mask)).values
            other = SubsystemMask(mask.mask ^ ((1 << shape.k) - 1), shape)
            rhs = spectrum_of(reduced_density(psi, other)).values
            keep_l = lhs[lhs > 1e-10]
            keep_r = rhs[rhs > 1e-10]
            assert keep_l.size == keep_r.size
            np.testing.assert_allclose(keep_l, keep_r, atol=1e-10)


class TestSpectrumType:
    def test_sorted_clamped_normalized(self):
        spec = Spectrum(np.array([0.25, 0.75, -5e-11]))
        assert spec.values[0] == pytest.approx(0.75, abs=1e-9)
        assert spec.values[-1] == 0.0
        assert spec.values.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(NumericViolation):
            Spectrum(np.array([0.5, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NumericViolation):
            Spectrum(np.array([1.0, -1e-6]))


NAN = float("nan")


class TestNanRejected:
    # a NaN compares False with everything, so each check must be written
    # to fail unless the value is within its tolerance
    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: PureState(np.array([NAN, 0, 0, 0]), FactorizationShape((2, 2))),
             NumericViolation),
            (lambda: DensityMatrix(np.array([[NAN, 0], [0, 0.5]])), NotHermitian),
            (lambda: Spectrum(np.array([NAN, 0.5])), NumericViolation),
            (lambda: spectrum_of(np.array([[NAN, 0], [0, 0.5]])), NotHermitian),
        ],
        ids=["PureState", "DensityMatrix", "Spectrum", "spectrum_of"],
    )
    def test_nan_fails_the_check(self, build, error):
        with pytest.raises(error):
            build()


class TestCrossPaths:
    def test_collision_of_purity_matches_eigen_route(self):
        # the sweep's purity fast path against the full eigenvalue route
        for dims in [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            shape = FactorizationShape(dims)
            rng = random.Random(7)
            for _ in range(10):
                psi = state_from_ontic(random_ontic(shape.total, rng=rng), shape)
                for bits in range(1, (1 << shape.k) - 1):
                    mask = SubsystemMask(bits, shape)
                    fast = collision_entropy(purity(psi, mask))
                    eigen = renyi_entropy(spectrum_of(reduced_density(psi, mask)), 2.0)
                    assert fast == pytest.approx(eigen, abs=1e-9)

    def test_additive_on_product_states(self):
        # psi = psi_1 (x) psi_2 on (2,2) x (2,2): the entropy of a union
        # of one factor from each half is the sum of the parts
        shape_half = FactorizationShape((2, 2))
        shape = FactorizationShape((2, 2, 2, 2))
        psi_1 = state_from_ontic(OnticVector(int("1000", 2), 4), shape_half)
        psi_2 = state_from_ontic(OnticVector(int("1100", 2), 4), shape_half)
        from onticsim.states import PureState

        joint = PureState(np.kron(psi_1.amps, psi_2.amps), shape)
        s_union = collision_entropy(
            purity(joint, SubsystemMask.from_positions(shape, [0, 2]))
        )
        s_first = collision_entropy(
            purity(psi_1, SubsystemMask.from_positions(shape_half, [0]))
        )
        s_second = collision_entropy(
            purity(psi_2, SubsystemMask.from_positions(shape_half, [0]))
        )
        assert s_union == pytest.approx(s_first + s_second, abs=1e-9)

    def test_dimension_bound(self):
        shape = FactorizationShape((2, 2, 2, 2))
        rng = random.Random(8)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(16, rng=rng), shape)
            for bits in range(1, 15):
                mask = SubsystemMask(bits, shape)
                s2 = collision_entropy(purity(psi, mask))
                assert -1e-12 <= s2 <= math.log2(mask.dim) + 1e-9
