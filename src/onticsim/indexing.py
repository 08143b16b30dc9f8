"""Factorization shapes and subsystem masks.

The convention is big-endian: for dims (d_1, ..., d_K) the first local
index is the most significant digit, i = i_1*d_2*...*d_K + ... + i_K.
Subsystems are subsets of the K factor positions, held as bit masks.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from functools import cached_property

from .errors import ConfigError

__all__ = [
    "FactorizationShape",
    "SubsystemMask",
    "natural_state_lower_bound",
    "orthant_sphere_area",
]

# the most points (basis states, ontic elements, permuted points) one array
# may hold: numpy addresses at most sys.maxsize bytes, an amplitude takes 16
POINT_CAP = sys.maxsize // 16


def check_points(n: int, what: str) -> None:
    if n > POINT_CAP:
        raise ConfigError(f"{what} of more than {POINT_CAP} points: no array can index that many")


@dataclass(frozen=True)
class FactorizationShape:
    """Ordered local dimensions (d_1, ..., d_K), each at least 2."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) < 1:
            raise ConfigError("a factorization needs at least one factor")
        if any(d < 2 for d in dims):
            raise ConfigError(f"every local dimension must be >= 2, got {dims}")
        check_points(math.prod(dims), "a shape")

    @cached_property
    def total(self) -> int:
        return math.prod(self.dims)

    @property
    def k(self) -> int:
        return len(self.dims)

    @classmethod
    def parse(cls, text: str) -> "FactorizationShape":
        """Accept "2x3x2" and the power form "2^12"."""
        text = text.strip().lower()
        m = re.fullmatch(r"(\d+)\^(\d+)", text)
        try:
            parts = [int(p) for p in (m.groups() if m else text.split("x"))]
        except ValueError as exc:
            raise ConfigError(f"cannot parse shape {text!r}") from exc
        if m and parts[1] < 1:
            raise ConfigError(f"exponent must be >= 1 in {text!r}")
        # 64 factors of at least 2 are already more than an array can index
        return cls((parts[0],) * min(parts[1], 64) if m else tuple(parts))

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


@dataclass(frozen=True)
class SubsystemMask:
    """A subset of the K factor positions (bit p set = position p included)."""

    mask: int
    shape: FactorizationShape

    def __post_init__(self) -> None:
        if not 0 <= self.mask < 1 << self.shape.k:
            raise ConfigError(
                f"mask 0b{self.mask:b} does not address {self.shape.k} positions"
            )

    @classmethod
    def from_positions(cls, shape: FactorizationShape, positions) -> "SubsystemMask":
        mask = 0
        for p in positions:
            p = int(p)
            if not 0 <= p < shape.k:
                raise ConfigError(f"position {p} outside 0..{shape.k - 1}")
            if mask >> p & 1:
                raise ConfigError(f"position {p} given more than once")
            mask |= 1 << p
        return cls(mask, shape)

    @classmethod
    def parse(cls, shape: FactorizationShape, text: str) -> "SubsystemMask":
        """Comma list of distinct 1-based factor positions, e.g. "1,3,5";
        errors name the positions as typed."""
        try:
            positions = [int(p) for p in text.split(",") if p.strip()]
        except ValueError as exc:
            raise ConfigError(f"cannot parse subsystem positions {text!r}") from exc
        seen: set[int] = set()
        for p in positions:
            if not 1 <= p <= shape.k:
                raise ConfigError(f"position {p} outside 1..{shape.k}")
            if p in seen:
                raise ConfigError(f"position {p} given more than once")
            seen.add(p)
        return cls.from_positions(shape, [p - 1 for p in positions])

    @cached_property
    def positions(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.shape.k) if self.mask >> p & 1)

    @property
    def is_proper(self) -> bool:
        return 0 < self.mask < (1 << self.shape.k) - 1

    @cached_property
    def dim(self) -> int:
        """Dimension of the subsystem: product of its local dimensions."""
        return math.prod(self.shape.dims[p] for p in self.positions)


def natural_state_lower_bound(n: int) -> int:
    """Lower bound on the number of distinct states reachable from
    integer-component vectors of a given width: 2**n - 2, the count of
    nontrivial subsets (exact big-integer arithmetic)."""
    if n < 2:
        raise ConfigError(f"dimension must be >= 2, got {n}")
    return (1 << n) - 2


def orthant_sphere_area(n: int) -> float:
    """Area of the part of the unit sphere in the nonnegative orthant of
    R^n: n * pi**(n/2) / (2**n * Gamma(n/2 + 1)).

    Evaluated through the log-Gamma function so large n cannot overflow.
    """
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    log_area = (
        math.log(n)
        + 0.5 * n * math.log(math.pi)
        - n * math.log(2.0)
        - math.lgamma(0.5 * n + 1.0)
    )
    return math.exp(log_area)
