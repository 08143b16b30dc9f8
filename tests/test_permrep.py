"""Tests for permutations, evolution, and the diagonalizing basis."""

import random

import numpy as np
import pytest

from onticsim.bitstate import OnticVector, popcount, random_ontic
from onticsim.errors import ConfigError, InvalidCycle, SizeMismatch
from onticsim.indexing import FactorizationShape
from onticsim.permrep import (
    EnergyBasis,
    Permutation,
    apply_permutation,
    energy_basis,
    evolve_ontic,
    fourier_block,
    permutation_matrix,
    random_permutation,
)
from onticsim.states import PureState, density_full, state_from_ontic


def flat_shape(n):
    return FactorizationShape((n,))


class TestConstruction:
    def test_cycle_type(self):
        g = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
        assert g.cycle_type == (3, 2)
        assert g.order == 6

    def test_empty_is_identity(self):
        g = Permutation.from_cycles(3, [])
        assert g.cycle_type == (1, 1, 1)
        assert g == Permutation.identity(3)

    def test_point_reuse_rejected(self):
        with pytest.raises(InvalidCycle):
            Permutation.from_cycles(4, [[0, 1], [1, 2]])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidCycle):
            Permutation.from_cycles(3, [[0, 3]])

    def test_canonical_cycles(self):
        g = Permutation.from_cycles(6, [[4, 5], [2, 0, 1]])
        assert g.cycles == ((0, 1, 2), (3,), (4, 5))

    def test_images_follow_right_action(self):
        g = Permutation.from_cycles(3, [[0, 1, 2]])
        assert g.images.tolist() == [1, 2, 0]

    def test_parse(self):
        g = Permutation.parse(5, "(0 1 2)(3 4)")
        assert g == Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
        assert Permutation.parse(3, "") == Permutation.identity(3)
        with pytest.raises(ConfigError):
            Permutation.parse(3, "0 1)")

    def test_matrix_is_delta_of_action(self):
        # P[i, j] = 1 exactly when j is the image of i
        rng = np.random.default_rng(1)
        for n in (2, 5, 17, 64):
            g = random_permutation(n, seed=int(rng.integers(1 << 30)))
            mat = permutation_matrix(g)
            expected = np.zeros((n, n))
            for i in range(n):
                expected[i, g.images[i]] = 1.0
            np.testing.assert_array_equal(mat, expected)
            assert np.array_equal(mat.sum(axis=0), np.ones(n))


class TestRandomPermutation:
    def test_size_one(self):
        assert random_permutation(1, seed=0) == Permutation.identity(1)

    def test_deterministic(self):
        assert random_permutation(20, seed=9) == random_permutation(20, seed=9)

    def test_cycle_counts_near_expected(self):
        # mean number of l-cycles over uniform permutations is 1/l
        counts = {l: 0 for l in range(1, 9)}
        samples = 20_000
        rng = np.random.default_rng(77)
        for _ in range(samples):
            g = Permutation.from_images(rng.permutation(20))
            for c in g.cycles:
                if len(c) <= 8:
                    counts[len(c)] += 1
        for l in range(1, 9):
            mean = counts[l] / samples
            # variance of the count is ~1/l for l <= n/2
            three_se = 3 * (1 / l / samples) ** 0.5
            assert abs(mean - 1 / l) < max(three_se, 0.02)


class TestApplyPermutation:
    def test_time_zero_is_identity(self):
        shape = flat_shape(8)
        psi = state_from_ontic(random_ontic(8, seed=2), shape)
        assert apply_permutation(random_permutation(8, seed=3), psi, 0) is psi

    def test_full_period_is_identity(self):
        shape = flat_shape(10)
        psi = state_from_ontic(random_ontic(10, seed=4), shape)
        g = random_permutation(10, seed=5)
        again = apply_permutation(g, psi, g.order)
        np.testing.assert_allclose(again.amps, psi.amps, atol=0)

    def test_hand_swap(self):
        shape = flat_shape(2)
        psi = state_from_ontic(OnticVector.from_bitstring("10"), shape)
        g = Permutation.from_cycles(2, [[0, 1]])
        out = apply_permutation(g, psi, 1)
        np.testing.assert_allclose(out.amps, [-(2**-0.5), 2**-0.5], atol=1e-15)

    def test_negative_time_inverts(self):
        shape = flat_shape(12)
        psi = state_from_ontic(random_ontic(12, seed=6), shape)
        g = random_permutation(12, seed=7)
        round_trip = apply_permutation(g, apply_permutation(g, psi, 5), -5)
        np.testing.assert_allclose(round_trip.amps, psi.amps, atol=0)

    def test_preserves_standard_subspace(self):
        shape = flat_shape(32)
        psi = state_from_ontic(random_ontic(32, seed=8), shape)
        g = random_permutation(32, seed=9)
        for t in (1, 7, 100):
            assert abs(apply_permutation(g, psi, t).coordinate_sum()) < 1e-10

    def test_size_mismatch(self):
        psi = state_from_ontic(random_ontic(8, seed=1), flat_shape(8))
        with pytest.raises(SizeMismatch):
            apply_permutation(random_permutation(9, seed=1), psi, 1)


class TestEvolveOntic:
    def test_time_zero(self):
        q = random_ontic(16, seed=3)
        g = random_permutation(16, seed=4)
        assert evolve_ontic(g, q, 0) == q

    def test_popcount_preserved(self):
        rng = random.Random(10)
        g = random_permutation(64, seed=11)
        for t in (1, 2, 13, -5):
            q = random_ontic(64, rng=rng)
            assert popcount(evolve_ontic(g, q, t)) == popcount(q)

    def test_commutes_with_state_construction(self):
        # building a state then evolving equals evolving the subset then
        # building the state
        rng = random.Random(12)
        for n in (4, 8, 16):
            shape = flat_shape(n)
            g = random_permutation(n, seed=n)
            for t in (0, 1, 3, -2):
                q = random_ontic(n, rng=rng)
                lhs = state_from_ontic(evolve_ontic(g, q, t), shape)
                rhs = apply_permutation(g, state_from_ontic(q, shape), t)
                np.testing.assert_allclose(lhs.amps, rhs.amps, atol=1e-15)


class TestFourierBlock:
    def test_length_one(self):
        np.testing.assert_array_equal(fourier_block(1), [[1.0]])

    def test_length_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(fourier_block(2), expected, atol=1e-15)

    def test_diagonalizes_shift_of_two(self):
        f = fourier_block(2)
        shift = np.array([[0.0, 1.0], [1.0, 0.0]])
        diag = f @ shift @ f.conj().T
        np.testing.assert_allclose(diag, np.diag([1.0, -1.0]), atol=1e-15)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5, 7, 9, 12])
    def test_unitary_symmetric_diagonalizing(self, length):
        f = fourier_block(length)
        np.testing.assert_allclose(f, f.T, atol=1e-14)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(length), atol=1e-13)
        shift = np.zeros((length, length))
        for j in range(length):
            shift[j, (j + 1) % length] = 1.0
        diag = f @ shift @ f.conj().T
        roots = np.exp(2j * np.pi * np.arange(length) / length)
        np.testing.assert_allclose(diag, np.diag(roots), atol=1e-13)


class TestEnergyBasis:
    def test_identity_generator(self):
        basis = energy_basis(Permutation.identity(3))
        np.testing.assert_allclose(basis.matrix(), np.eye(3), atol=0)
        np.testing.assert_allclose(basis.eigenvalues(), np.ones(3), atol=0)

    def test_single_cycle_is_full_fourier(self):
        g = Permutation.from_cycles(6, [[0, 1, 2, 3, 4, 5]])
        basis = energy_basis(g)
        np.testing.assert_allclose(basis.matrix(), fourier_block(6), atol=1e-15)

    def test_eigenphases_example(self):
        g = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
        basis = energy_basis(g)
        assert basis.eigenphase_exponents == ((3, 0), (3, 1), (3, 2), (2, 0), (2, 1))
        # numerical diagonalization oracle
        f = basis.matrix()
        diag = f @ permutation_matrix(g) @ np.linalg.inv(f)
        np.testing.assert_allclose(np.diag(diag), basis.eigenvalues(), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonalization_random(self, seed):
        g = random_permutation(24, seed=seed)
        basis = energy_basis(g)
        f = basis.matrix()
        np.testing.assert_allclose(f @ f.conj().T, np.eye(24), atol=1e-12)
        diag = f @ permutation_matrix(g) @ f.conj().T
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() < 1e-10
        np.testing.assert_allclose(np.diag(diag), basis.eigenvalues(), atol=1e-10)

    def test_transform_matches_matrix(self):
        shape = flat_shape(12)
        g = random_permutation(12, seed=13)
        basis = energy_basis(g)
        psi = state_from_ontic(random_ontic(12, seed=14), shape)
        out = basis.transform(psi)
        np.testing.assert_allclose(out.amps, basis.matrix() @ psi.amps, atol=1e-13)

    def test_transform_preserves_norm(self):
        shape = flat_shape(32)
        rng = random.Random(15)
        for seed in range(5):
            g = random_permutation(32, seed=seed)
            basis = energy_basis(g)
            psi = state_from_ontic(random_ontic(32, rng=rng), shape)
            out = basis.transform(psi)
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12
            back = basis.inverse_transform(out)
            np.testing.assert_allclose(back.amps, psi.amps, atol=1e-13)

    def test_transform_of_real_state_is_exactly_the_complex_transform(self):
        # the FFT of float64 amplitudes equals, bit for bit, the FFT of the
        # same amplitudes cast to complex128
        rng = random.Random(18)
        cases = [Permutation.from_cycles(n, [range(n)]) for n in (2, 3, 7, 64, 97)]
        cases += [random_permutation(n, seed=n) for n in (2, 12, 40, 128)]
        for g in cases:
            basis = energy_basis(g)
            psi = state_from_ontic(random_ontic(g.n, rng=rng), flat_shape(g.n))
            assert psi.amps.dtype == np.float64
            out = basis.transform(psi)
            cast = basis.transform(PureState(psi.amps.astype(np.complex128), psi.shape))
            assert out.amps.dtype == np.complex128
            assert np.array_equal(out.amps, cast.amps)

    def test_inverse_transform_round_trips(self):
        rng = random.Random(19)
        for seed in range(4):
            g = random_permutation(36, seed=seed)
            basis = energy_basis(g)
            psi = state_from_ontic(random_ontic(36, rng=rng), flat_shape(36))
            back = basis.inverse_transform(basis.transform(psi))
            assert back.amps.dtype == np.complex128
            np.testing.assert_allclose(back.amps, psi.amps, atol=1e-13)
            # and from the other side, starting from real energy-basis
            # amplitudes
            forth = basis.transform(basis.inverse_transform(psi))
            np.testing.assert_allclose(forth.amps, psi.amps, atol=1e-13)

    def test_density_conjugation(self):
        # rank-one check of rho -> F rho F^{-1} at small size
        shape = flat_shape(16)
        g = random_permutation(16, seed=16)
        basis = energy_basis(g)
        psi = state_from_ontic(random_ontic(16, seed=17), shape)
        rho_o = density_full(psi).entries
        f = basis.matrix()
        expected = f @ rho_o @ f.conj().T
        actual = density_full(basis.transform(psi)).entries
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_transform_size_mismatch(self):
        basis = energy_basis(random_permutation(8, seed=1))
        psi = state_from_ontic(random_ontic(9, seed=1), flat_shape(9))
        with pytest.raises(SizeMismatch):
            basis.transform(psi)
