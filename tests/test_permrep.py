"""Tests for permutations, evolution, and the diagonalizing basis."""

import itertools
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from oracle import (
    apply_permutation,
    energy_matrix,
    fourier_block,
    permutation_matrix,
    squaring_images,
)

import onticsim.permrep
from onticsim.bitstate import OnticVector, random_ontic
from onticsim.errors import ConfigError, InvalidCycle, SizeMismatch
from onticsim.experiment import run_cycle_census
from onticsim.indexing import POINT_CAP, FactorizationShape
from onticsim.permrep import (
    EnergyBasis,
    Permutation,
    _keys,
    _random_rows,
    _stream_base,
    energy_basis,
    random_permutation,
)
from onticsim.states import PureState, state_from_ontic


def flat_shape(n):
    return FactorizationShape((n,))


def layout_by_walk(images):
    """The cycle layout by walking every cycle from its least point, one
    point at a time: the reference the labelled layout must equal exactly."""
    img = np.asarray(images).tolist()
    seen = bytearray(len(img))
    points = []
    starts = []
    for start in range(len(img)):
        if not seen[start]:
            starts.append(len(points))
            j = start
            while not seen[j]:
                seen[j] = 1
                points.append(j)
                j = img[j]
    first = np.array(starts, dtype=np.int64)
    return np.array(points, dtype=np.int64), np.diff(first, append=len(img)), first


def prime_cycles():
    """Cycles of every prime length 2-53 on 381 points: the order, their
    product, exceeds 2**63."""
    primes = [p for p in range(2, 54) if all(p % d for d in range(2, p))]
    ends = np.cumsum(primes)
    return Permutation.from_cycles(int(ends[-1]), [range(e - p, e) for p, e in zip(primes, ends)])


def census_block(n=20, rows=819, seed=25):
    """A census batch: rows random permutations of n points, row s shifted
    onto points s*n..s*n+n-1 (16,380 points by default)."""
    rng = np.random.default_rng(seed)
    batch = rng.permuted(np.tile(np.arange(n), (rows, 1)), axis=1)
    return Permutation((batch + n * np.arange(rows)[:, None]).ravel())


def oracle_cases():
    """Random permutations of sizes 1-200, 1,500 transpositions plus a
    7-cycle on 4096 points, and the prime-length cycles."""
    rng = np.random.default_rng(21)
    sizes = [1, 2, 3, 7, 64, 200] + rng.integers(1, 201, size=14).tolist()
    cases = [random_permutation(n, seed=int(rng.integers(1 << 30))) for n in sizes]
    pairs = [[2 * i, 2 * i + 1] for i in range(1500)]
    cases.append(Permutation.from_cycles(4096, pairs + [list(range(3000, 3007))]))
    cases.append(prime_cycles())
    return cases


def oracle_times(g):
    big = 2**70 + 3
    return (0, 1, -1, g.order, g.order + 1, big, -big)


class TestConstruction:
    def test_cycle_type(self):
        g = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
        assert sorted(map(len, g.cycles), reverse=True) == [3, 2]
        assert g.order == 6

    def test_empty_is_identity(self):
        g = Permutation.from_cycles(3, [])
        assert g.cycles == ((0,), (1,), (2,))
        assert g == Permutation(np.arange(3))

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
        assert Permutation.parse(3, "") == Permutation(np.arange(3))
        assert Permutation.parse(3, "()") == Permutation(np.arange(3))
        with pytest.raises(ConfigError):
            Permutation.parse(3, "0 1)")

    def test_matrix_is_delta_of_action(self):
        # P[i, j] = 1 exactly when j is the image of i
        rng = np.random.default_rng(1)
        for n in (2, 5, 17, 64):
            g = random_permutation(n, seed=int(rng.integers(1 << 30)))
            mat = permutation_matrix(g.images)
            expected = np.zeros((n, n))
            for i in range(n):
                expected[i, g.images[i]] = 1.0
            np.testing.assert_array_equal(mat, expected)
            assert np.array_equal(mat.sum(axis=0), np.ones(n))


class TestBijectionCheck:
    @pytest.mark.parametrize(
        "images",
        [[0, 0, 2], [1, 2, 3], [-1, 0, 1], [], [[0, 1], [1, 0]]],
        ids=["duplicate", "too-large", "negative", "empty", "2-D"],
    )
    def test_rejected(self, images):
        with pytest.raises(InvalidCycle):
            Permutation(images)

    @pytest.mark.parametrize(
        "point, value",
        [(5000, -1), (5000, -16_380), (5000, 16_380), (0, 1 << 40), (5000, 7)],
        ids=["negative", "minus-n", "equal-n", "far-above-n", "duplicate"],
    )
    def test_one_bad_entry_in_a_census_block_is_rejected(self, point, value):
        images = census_block().images.copy()
        assert images[point] != value
        images[point] = value
        with pytest.raises(InvalidCycle):
            Permutation(images)

    def test_accepted_images_are_a_read_only_copy(self):
        source = np.array([2, 0, 1])
        g = Permutation(source)
        source[0] = 0
        assert g.images.tolist() == [2, 0, 1]
        assert not g.images.flags.writeable


class TestCycleLayout:
    def test_example(self):
        g = Permutation.from_cycles(6, [[4, 5], [2, 0, 1]])
        points, lengths, starts = g.layout
        assert points.tolist() == [0, 1, 2, 3, 4, 5]
        assert lengths.tolist() == [3, 1, 2]
        assert starts.tolist() == [0, 3, 4]
        assert g.labels.tolist() == [0, 0, 0, 3, 4, 4]

    @pytest.mark.parametrize(
        "g",
        [
            Permutation(np.arange(1)),
            Permutation(np.arange(4096)),
            # 0 -> 1 -> ... -> 2**16 - 1 -> 0: the label of point 1 needs
            # the window of all 2**16 points, the most doubling rounds
            Permutation(np.roll(np.arange(1 << 16), -1)),
            Permutation.from_cycles(1 << 16, [np.random.default_rng(26).permutation(1 << 16)]),
            census_block(),
            random_permutation(2, seed=27),
            random_permutation(4096, seed=28),
            random_permutation(100_000, seed=29),
            prime_cycles(),
        ],
        ids=[
            "identity-1",
            "identity-4096",
            "ordered-2^16-cycle",
            "shuffled-2^16-cycle",
            "census-block",
            "random-2",
            "random-4096",
            "random-100000",
            "prime-cycles",
        ],
    )
    def test_equals_walk(self, g):
        points, lengths, starts = layout_by_walk(g.images)
        expected_labels = np.empty(g.n, dtype=np.int64)
        expected_labels[points] = np.repeat(points[starts], lengths)
        assert np.array_equal(g.labels, expected_labels)
        for got, want in zip(g.layout, (points, lengths, starts)):
            assert got.dtype == np.int64
            assert not got.flags.writeable
            assert np.array_equal(got, want)
        assert not g.labels.flags.writeable

    def test_random_permutations_equal_walk(self):
        for g in oracle_cases():
            for got, want in zip(g.layout, layout_by_walk(g.images)):
                assert np.array_equal(got, want), g.n

    def test_walked_once_for_every_reader(self, monkeypatch):
        # one labels pass per permutation serves every cycle reader
        calls = []
        label = onticsim.permrep._cycle_labels

        def counted(images):
            calls.append(1)
            return label(images)

        monkeypatch.setattr(onticsim.permrep, "_cycle_labels", counted)
        g = random_permutation(40, seed=3)
        assert not calls
        g.cycles, g.order, g.cycle_string(), g.power_images(5)
        basis = energy_basis(g)
        basis.transform(state_from_ontic(random_ontic(40, seed=4), flat_shape(40)))
        basis.eigenvalues()
        g.labels, g.layout
        assert len(calls) == 1

    def test_census_builds_no_layout(self, monkeypatch):
        labelled = []
        label = onticsim.permrep._cycle_labels

        def counted(images):
            labelled.append(images.size)
            return label(images)

        def refuse(images, labels):
            raise AssertionError("the census built a cycle layout")

        monkeypatch.setattr(onticsim.permrep, "_cycle_labels", counted)
        monkeypatch.setattr(onticsim.permrep, "_cycle_slots", refuse)
        run_cycle_census(20, 2000, seed=30)
        # 819 samples of 20 points per batch: 819 + 819 + 362
        assert labelled == [16_380, 16_380, 7_240]


class TestPowerOracle:
    def test_power_images(self):
        for g in oracle_cases():
            assert np.array_equal(squaring_images(g.images, g.order), np.arange(g.n))
            for t in oracle_times(g):
                expected = squaring_images(g.images, t)
                assert np.array_equal(g.power_images(t), expected), (g.n, t)

    def test_order_beyond_int64(self):
        g = prime_cycles()
        assert g.n == 381
        assert g.order > 2**63
        for t in (2**70 + 3, -(2**70 + 3), g.order - 1, 2**63, -(2**63) - 1):
            assert np.array_equal(g.power_images(t), squaring_images(g.images, t)), t

    def test_transform_matches_concatenated_cycles(self):
        # the block layout the basis had when it stored its own copy of the
        # cycles: concatenated in canonical order, one FFT per cycle
        rng = random.Random(23)
        for g in oracle_cases():
            if g.n == 1:
                continue
            order = np.concatenate([np.asarray(c, dtype=np.int64) for c in g.cycles])
            psi = state_from_ontic(random_ontic(g.n, rng=rng), flat_shape(g.n))
            expected = np.empty(g.n, dtype=np.complex128)
            start = 0
            for length in (len(c) for c in g.cycles):
                block = slice(start, start + length)
                expected[block] = np.fft.fft(psi.amps[order[block]]) / math.sqrt(length)
                start += length
            assert np.array_equal(energy_basis(g).transform(psi).amps, expected)

    def test_matrix_matches_concatenated_cycles(self):
        # the oracle's energy matrix, built by its own cycle walk, against
        # the package's canonical cycles
        for g in oracle_cases():
            if g.n > 512:
                continue  # a dense 4096 x 4096 complex matrix takes 256 MiB
            order = np.concatenate([np.asarray(c, dtype=np.int64) for c in g.cycles])
            mat = energy_matrix(g.images)
            start = 0
            for length in (len(c) for c in g.cycles):
                block = slice(start, start + length)
                assert np.array_equal(mat[block, order[block]], fourier_block(length))
                mat[block, order[block]] = 0
                start += length
            assert not mat.any()


class TestRandomPermutation:
    def test_size_one(self):
        assert random_permutation(1, seed=0) == Permutation(np.arange(1))

    def test_deterministic(self):
        assert random_permutation(20, seed=9) == random_permutation(20, seed=9)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            random_permutation(4, seed=-1)

    def test_size_checked_before_allocating(self):
        for n in (POINT_CAP + 1, 2**70):
            with pytest.raises(ConfigError, match="a permutation of more than"):
                random_permutation(n, seed=0)

    def test_seeds_past_64_bits_give_their_own_streams(self):
        seeds = [5, 2**64 + 5, 2**128 + 5, 2**64, 2**64 - 1, 2**200]
        draws = {tuple(random_permutation(40, seed=s).images.tolist()) for s in seeds}
        assert len(draws) == len(seeds)

    def test_no_seed_reads_urandom(self, monkeypatch):
        word = bytes(range(3, 11))
        monkeypatch.setattr(onticsim.permrep.os, "urandom", lambda size: word[:size])
        seeded = random_permutation(30, seed=int.from_bytes(word, "little"))
        assert random_permutation(30) == seeded

    def test_first_sample_of_the_census_stream(self):
        base = _stream_base(12)
        assert random_permutation(25, seed=12).images.tolist() == (
            _random_rows(25, 0, 1, base).tolist()
        )

    def test_cycle_counts_near_expected(self):
        # mean number of l-cycles over uniform permutations is 1/l
        counts = {l: 0 for l in range(1, 9)}
        samples = 20_000
        for seed in range(77, 77 + samples):
            g = random_permutation(20, seed=seed)
            for c in g.cycles:
                if len(c) <= 8:
                    counts[len(c)] += 1
        for l in range(1, 9):
            mean = counts[l] / samples
            # variance of the count is ~1/l for l <= n/2
            three_se = 3 * (1 / l / samples) ** 0.5
            assert abs(mean - 1 / l) < max(three_se, 0.02)


def unshifted(images, n):
    """The sampler's rows, each moved back onto points 0..n-1."""
    rows = images.reshape(-1, n)
    return rows - n * np.arange(rows.shape[0])[:, None]


class TestSampler:
    """``_random_rows``: argsorts of SplitMix64 keys, a tied row redrawn."""

    def test_keys_are_splitmix64(self):
        # the stream's first outputs from state 0, as the published
        # generator returns them: next() adds gamma, then mixes
        assert _keys(0, 1, 3).tolist() == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_every_order_of_four_points_equally_often(self):
        samples = 24_000
        rows = unshifted(_random_rows(4, 0, samples, _stream_base(2024)), 4)
        counts = Counter(map(tuple, rows.tolist()))
        assert set(counts) == set(itertools.permutations(range(4)))
        expected = samples / 24
        chi2 = sum((c - expected) ** 2 for c in counts.values()) / expected
        # the 0.999 quantile of chi-square with 23 degrees of freedom
        assert chi2 < 49.7

    def test_a_tied_row_is_redrawn(self, monkeypatch):
        n, first, count, tied_row = 6, 40, 5, 2
        base = _stream_base(8)
        clean = _random_rows(n, first, count, base)
        calls = []

        def one_row_ties(base, counter, size):
            calls.append((counter, size))
            keys = _keys(base, counter, size)
            if size == count * n:
                keys[tied_row * n + 4] = keys[tied_row * n + 1]
            return keys

        monkeypatch.setattr(onticsim.permrep, "_keys", one_row_ties)
        drawn = _random_rows(n, first, count, base)
        # the redraw reads keys 2**62 counters past the row's own: keys no
        # first draw of any row reads
        redraw = (1 << 62) + (first + tied_row) * n
        assert calls == [(first * n, count * n), (redraw, n)]
        rows, clean_rows = unshifted(drawn, n), unshifted(clean, n)
        others = [r for r in range(count) if r != tied_row]
        assert np.array_equal(rows[others], clean_rows[others])
        assert rows[tied_row].tolist() == _keys(base, redraw, n).argsort().tolist()
        for row in rows:
            assert sorted(row.tolist()) == list(range(n))

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_rows_do_not_depend_on_the_batching(self, n):
        base = _stream_base(31)
        whole = unshifted(_random_rows(n, 0, 23, base), n)
        pieces = [
            unshifted(_random_rows(n, start, stop - start, base), n)
            for start, stop in [(0, 1), (1, 8), (8, 9), (9, 23)]
        ]
        assert np.array_equal(np.concatenate(pieces), whole)


def test_cycles_and_sampler_import_no_numpy_random():
    # numpy.random, and the OpenSSL bindings its import of secrets loads,
    # cost about 6 MB of resident memory
    src = Path(onticsim.permrep.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from onticsim.cli import main\n"
        "assert main(['cycles', '--n', '12', '--samples', '500', '--out', '/dev/null']) == 0\n"
        "from onticsim import random_permutation\n"
        "random_permutation(64, seed=3)\n"
        "random_permutation(64)\n"
        "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": ""},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


class TestApplyPermutation:
    """The oracle's state evolution, the reference for ``evolve``."""

    def test_time_zero_is_identity(self):
        psi = state_from_ontic(random_ontic(8, seed=2), flat_shape(8))
        g = random_permutation(8, seed=3)
        assert np.array_equal(apply_permutation(g.images, psi.amps, 0), psi.amps)

    def test_full_period_is_identity(self):
        psi = state_from_ontic(random_ontic(10, seed=4), flat_shape(10))
        g = random_permutation(10, seed=5)
        assert np.array_equal(apply_permutation(g.images, psi.amps, g.order), psi.amps)

    def test_hand_swap(self):
        psi = state_from_ontic(OnticVector(int("10", 2), 2), flat_shape(2))
        g = Permutation.from_cycles(2, [[0, 1]])
        out = apply_permutation(g.images, psi.amps, 1)
        np.testing.assert_allclose(out, [-(2**-0.5), 2**-0.5], atol=1e-15)

    def test_negative_time_inverts(self):
        psi = state_from_ontic(random_ontic(12, seed=6), flat_shape(12))
        g = random_permutation(12, seed=7)
        round_trip = apply_permutation(g.images, apply_permutation(g.images, psi.amps, 5), -5)
        assert np.array_equal(round_trip, psi.amps)

    def test_preserves_standard_subspace(self):
        psi = state_from_ontic(random_ontic(32, seed=8), flat_shape(32))
        g = random_permutation(32, seed=9)
        for t in (1, 7, 100):
            assert abs(apply_permutation(g.images, psi.amps, t).sum()) < 1e-10


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
        g = Permutation(np.arange(3))
        basis = energy_basis(g)
        np.testing.assert_allclose(energy_matrix(g.images), np.eye(3), atol=0)
        np.testing.assert_allclose(basis.eigenvalues(), np.ones(3), atol=0)

    def test_single_cycle_is_full_fourier(self):
        g = Permutation.from_cycles(6, [[0, 1, 2, 3, 4, 5]])
        basis = energy_basis(g)
        np.testing.assert_allclose(energy_matrix(g.images), fourier_block(6), atol=1e-15)

    def test_eigenphases_example(self):
        g = Permutation.from_cycles(5, [[0, 1, 2], [3, 4]])
        basis = energy_basis(g)
        # numerical diagonalization oracle
        f = energy_matrix(g.images)
        diag = f @ permutation_matrix(g.images) @ np.linalg.inv(f)
        np.testing.assert_allclose(np.diag(diag), basis.eigenvalues(), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_diagonalization_random(self, seed):
        g = random_permutation(24, seed=seed)
        basis = energy_basis(g)
        f = energy_matrix(g.images)
        np.testing.assert_allclose(f @ f.conj().T, np.eye(24), atol=1e-12)
        diag = f @ permutation_matrix(g.images) @ f.conj().T
        off = diag - np.diag(np.diag(diag))
        assert np.abs(off).max() < 1e-10
        np.testing.assert_allclose(np.diag(diag), basis.eigenvalues(), atol=1e-10)

    def test_transform_matches_matrix(self):
        shape = flat_shape(12)
        g = random_permutation(12, seed=13)
        basis = energy_basis(g)
        psi = state_from_ontic(random_ontic(12, seed=14), shape)
        out = basis.transform(psi)
        np.testing.assert_allclose(out.amps, energy_matrix(g.images) @ psi.amps, atol=1e-13)

    def test_transform_preserves_norm(self):
        shape = flat_shape(32)
        rng = random.Random(15)
        for seed in range(5):
            g = random_permutation(32, seed=seed)
            basis = energy_basis(g)
            psi = state_from_ontic(random_ontic(32, rng=rng), shape)
            out = basis.transform(psi)
            assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-12

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

    def test_density_conjugation(self):
        # rank-one check of rho -> F rho F^{-1} at small size
        shape = flat_shape(16)
        g = random_permutation(16, seed=16)
        basis = energy_basis(g)
        psi = state_from_ontic(random_ontic(16, seed=17), shape)
        rho_o = np.outer(psi.amps, psi.amps.conj())
        f = energy_matrix(g.images)
        expected = f @ rho_o @ f.conj().T
        out = basis.transform(psi).amps
        actual = np.outer(out, out.conj())
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_transform_size_mismatch(self):
        basis = energy_basis(random_permutation(8, seed=1))
        psi = state_from_ontic(random_ontic(9, seed=1), flat_shape(9))
        with pytest.raises(SizeMismatch):
            basis.transform(psi)
