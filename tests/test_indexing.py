"""Tests for shapes, subsystem masks, the count and area bounds, and the
bipartition indexing of the test oracle."""

import math

import mpmath
import numpy as np
import pytest
from oracle import arrange

from onticsim.errors import ConfigError
from onticsim.indexing import (
    POINT_CAP,
    FactorizationShape,
    SubsystemMask,
    natural_state_lower_bound,
    orthant_sphere_area,
)


class TestShape:
    def test_parse_explicit(self):
        assert FactorizationShape.parse("2x3x2").dims == (2, 3, 2)

    def test_parse_power(self):
        shape = FactorizationShape.parse("2^12")
        assert shape.dims == (2,) * 12
        assert shape.total == 4096

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FactorizationShape.parse("2xx3")
        with pytest.raises(ConfigError):
            FactorizationShape.parse("")

    def test_point_cap(self):
        # no array is built: the shape only checks the product of its dims
        assert FactorizationShape((2,) * 58).total == 1 << 58 <= POINT_CAP
        for dims in [(2,) * 59, (POINT_CAP + 1, 2), (3,) * 40]:
            with pytest.raises(ConfigError, match="no array can index that many"):
                FactorizationShape(dims)
        # an exponent too long to build as a tuple is rejected all the same
        with pytest.raises(ConfigError, match="no array can index that many"):
            FactorizationShape.parse("2^" + "9" * 40)

    def test_dimension_floor(self):
        with pytest.raises(ConfigError):
            FactorizationShape((2, 1, 2))

    def test_str_round_trip(self):
        shape = FactorizationShape((4, 2, 3))
        assert FactorizationShape.parse(str(shape)) == shape


class TestSubsystemMask:
    def test_positions_and_dims(self):
        shape = FactorizationShape((2, 3, 2))
        mask = SubsystemMask.from_positions(shape, [0, 2])
        assert mask.mask == 0b101
        assert mask.positions == (0, 2)
        assert mask.dim == 4
        assert SubsystemMask(mask.mask ^ ((1 << shape.k) - 1), shape).positions == (1,)

    def test_parse_one_based(self):
        shape = FactorizationShape((2,) * 6)
        mask = SubsystemMask.parse(shape, "1,3,5")
        assert mask.positions == (0, 2, 4)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("9", "position 9 outside 1..3"),
            ("0", "position 0 outside 1..3"),
            ("1,-2", "position -2 outside 1..3"),
            ("1,1", "position 1 given more than once"),
            ("3,2,3", "position 3 given more than once"),
        ],
    )
    def test_parse_errors_name_positions_as_typed(self, text, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            SubsystemMask.parse(FactorizationShape((2,) * 3), text)

    def test_properness(self):
        shape = FactorizationShape((2, 2))
        assert SubsystemMask(0b01, shape).is_proper
        assert not SubsystemMask(0b00, shape).is_proper
        assert not SubsystemMask(0b11, shape).is_proper

    def test_out_of_range(self):
        shape = FactorizationShape((2, 2))
        with pytest.raises(ConfigError):
            SubsystemMask(0b100, shape)
        with pytest.raises(ConfigError):
            SubsystemMask.from_positions(shape, [2])

    def test_repeated_position(self):
        shape = FactorizationShape((2, 2, 2))
        with pytest.raises(ConfigError, match="position 0 given more than once"):
            SubsystemMask.from_positions(shape, [0, 0])
        with pytest.raises(ConfigError, match="position 2 given more than once"):
            SubsystemMask.from_positions(shape, [2, 1, 2])


class TestSplitIndex:
    """The oracle's (subsystem x complement) arrangement, which the kernel's
    bipartite reshape is checked against."""

    def test_first_factor(self):
        assert arrange(range(4), (2, 2), [0]) == [[0, 1], [2, 3]]

    def test_second_factor_swaps_roles(self):
        assert arrange(range(4), (2, 2), [1]) == [[0, 2], [1, 3]]

    def test_bijection(self):
        rows = arrange(range(12), (2, 3, 2), [0, 2])
        assert [len(r) for r in rows] == [3] * 4
        assert sorted(i for r in rows for i in r) == list(range(12))

    def test_complement_swaps_row_col(self):
        dims = (2, 3, 2, 2)
        rows = arrange(range(24), dims, [1, 3])
        assert arrange(range(24), dims, [0, 2]) == [list(c) for c in zip(*rows)]

    def test_digits_agree_with_decode(self):
        # an entry's row is its subsystem digits, as numpy's big-endian
        # unravel decodes them
        dims = (2, 3, 2)
        for bits in range(1, 7):
            inside = [p for p in range(3) if bits >> p & 1]
            sub = [dims[p] for p in inside]
            for row, entries in enumerate(arrange(range(12), dims, inside)):
                for i in entries:
                    digits = np.unravel_index(i, dims)
                    assert row == np.ravel_multi_index([digits[p] for p in inside], sub)


class TestStateCountBound:
    def test_small(self):
        assert natural_state_lower_bound(2) == 2
        assert natural_state_lower_bound(12) == 4094

    def test_big_integer(self):
        value = natural_state_lower_bound(4096)
        assert value == 2**4096 - 2
        assert len(str(value)) == 1234

    def test_floor(self):
        with pytest.raises(ConfigError):
            natural_state_lower_bound(1)


class TestOrthantArea:
    def test_quarter_circle(self):
        assert orthant_sphere_area(2) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_one_dimension(self):
        assert orthant_sphere_area(1) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [3, 12, 100, 4096])
    def test_against_high_precision(self, n):
        with mpmath.workdps(60):
            exact = mpmath.mpf(n) * mpmath.pi ** (mpmath.mpf(n) / 2) / (
                mpmath.mpf(2) ** n * mpmath.gamma(mpmath.mpf(n) / 2 + 1)
            )
            assert orthant_sphere_area(n) == pytest.approx(float(exact), rel=1e-12)

    def test_floor(self):
        with pytest.raises(ConfigError):
            orthant_sphere_area(0)
