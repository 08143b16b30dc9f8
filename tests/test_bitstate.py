"""Tests for bit-vector patterns and their overlap algebra."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onticsim.bitstate import (
    OnticVector,
    complement,
    inner_ontic,
    overlap_standard,
    popcount,
    random_ontic,
)
from onticsim.errors import ConfigError, DegenerateState, LengthMismatch


def bs(text):
    return OnticVector(int(text, 2), len(text))


class TestPopcount:
    def test_zero(self):
        assert popcount(bs("0000")) == 0

    def test_all_ones(self):
        assert popcount(bs("1111")) == 4

    def test_mixed(self):
        assert popcount(bs("1010")) == 2


class TestInnerOntic:
    def test_self_is_popcount(self):
        q = bs("1100")
        assert inner_ontic(q, q) == 2

    def test_disjoint(self):
        assert inner_ontic(bs("1100"), bs("0011")) == 0

    def test_partial(self):
        assert inner_ontic(bs("1100"), bs("1010")) == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            inner_ontic(bs("1100"), bs("110"))


class TestOverlapStandard:
    def test_self_overlap_is_one(self):
        assert overlap_standard(bs("1100"), bs("1100")) == 1.0

    def test_hand_case_zero(self):
        # (4*1 - 2*2) / sqrt(2*2*2*2) = 0
        assert overlap_standard(bs("1100"), bs("1010")) == 0.0

    def test_complement_is_minus_one(self):
        assert overlap_standard(bs("1100"), bs("0011")) == -1.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateState):
            overlap_standard(bs("0000"), bs("1100"))
        with pytest.raises(DegenerateState):
            overlap_standard(bs("1100"), bs("1111"))


@st.composite
def nontrivial_pair(draw):
    n = draw(st.integers(min_value=2, max_value=48))
    full = (1 << n) - 1
    q = draw(st.integers(min_value=1, max_value=full - 1))
    r = draw(st.integers(min_value=1, max_value=full - 1))
    return OnticVector(q, n), OnticVector(r, n)


class TestOverlapProperties:
    @settings(max_examples=300, derandomize=True)
    @given(nontrivial_pair())
    def test_complement_symmetries_bit_exact(self, pair):
        q, r = pair
        s = overlap_standard(q, r)
        assert overlap_standard(complement(q), r) == -s
        assert overlap_standard(q, complement(r)) == -s
        assert overlap_standard(complement(q), complement(r)) == s

    @settings(max_examples=300, derandomize=True)
    @given(nontrivial_pair())
    def test_bounded_and_symmetric(self, pair):
        q, r = pair
        s = overlap_standard(q, r)
        assert abs(s) <= 1.0 + 1e-12
        assert s == overlap_standard(r, q)

    @settings(max_examples=200, derandomize=True)
    @given(nontrivial_pair())
    def test_popcount_identities(self, pair):
        q, r = pair
        assert popcount(complement(q)) == q.n - popcount(q)
        q_and_r = OnticVector(q.bits & r.bits, q.n)
        q_less_r = OnticVector(q.bits & ~r.bits & ((1 << q.n) - 1), q.n)
        assert popcount(q_and_r) + popcount(q_less_r) == popcount(q)


class TestComplement:
    def test_basic(self):
        assert complement(bs("1100")) == bs("0011")
        assert complement(bs("0000")) == bs("1111")

    def test_involution(self):
        q = bs("1011")
        assert complement(complement(q)) == q


class TestRandomOntic:
    def test_two_elements_always_nontrivial(self):
        for seed in range(50):
            q = random_ontic(2, seed)
            assert q.bits in (0b01, 0b10)

    def test_deterministic(self):
        assert random_ontic(12, seed=7) == random_ontic(12, seed=7)

    def test_never_trivial(self):
        rng = random.Random(3)
        for _ in range(2000):
            q = random_ontic(3, rng=rng)
            assert 0 < popcount(q) < 3

    def test_mean_popcount_matches_binomial(self):
        # Binomial(16, 1/2) oracle: mean 8, sd 2; rejection of the two
        # trivial patterns is symmetric and does not shift the mean.
        rng = random.Random(123)
        samples = 100_000
        total = sum(popcount(random_ontic(16, rng=rng)) for _ in range(samples))
        mean = total / samples
        three_sigma = 3 * 2.0 / samples**0.5
        assert abs(mean - 8.0) < three_sigma

    def test_fixed_weight(self):
        rng = random.Random(5)
        for _ in range(100):
            assert popcount(random_ontic(20, rng=rng, weight=7)) == 7

    @pytest.mark.parametrize("n", [2, 3, 8, 9, 61, 1000])
    def test_fixed_weight_matches_bit_loop(self, n):
        # the bits OR-ed into one integer, one drawn position at a time
        for seed in (0, 1, 99):
            for weight in sorted({1, n // 3 or 1, n // 2, n - 1}):
                ref_rng = random.Random(seed)
                bits = 0
                for pos in ref_rng.sample(range(n), weight):
                    bits |= 1 << pos
                rng = random.Random(seed)
                assert random_ontic(n, rng=rng, weight=weight) == OnticVector(bits, n)
                assert rng.getstate() == ref_rng.getstate()

    def test_bad_weight(self):
        with pytest.raises(ConfigError):
            random_ontic(4, 0, weight=0)
        with pytest.raises(ConfigError):
            random_ontic(4, 0, weight=4)

    def test_negative_seed_rejected(self):
        # random.Random would seed with the absolute value
        with pytest.raises(ConfigError):
            random_ontic(8, -3)


class TestSerialization:
    def test_hex_round_trip(self):
        q = bs("1100")
        assert q.serialize() == "4:0xC"
        assert OnticVector.parse("4:0xC") == q

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            OnticVector.parse("12")
        with pytest.raises(ConfigError):
            OnticVector.parse("4:zz")

    def test_array_round_trip(self):
        q = bs("100101")
        np.testing.assert_array_equal(q.to_array(), [1, 0, 0, 1, 0, 1])
        assert OnticVector.from_array(q.to_array()) == q

    def test_width_validation(self):
        with pytest.raises(ConfigError):
            OnticVector(3, 1)
        with pytest.raises(ConfigError):
            OnticVector(16, 4)
