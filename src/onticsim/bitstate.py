"""Ontic vectors: fixed-width bit strings with the algebra used to build states.

A vector of length n names a subset of the n primary elements.  The bits
live in a single Python integer with element 0 at the most significant
position, so the literal string "1100" is 0b1100 and names the subset
{0, 1}.  Python integers give packed-word storage and fast popcounts for
free, which the full-scale sweep (n = 4096) leans on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateState, LengthMismatch
from .indexing import check_points

__all__ = [
    "OnticVector",
    "popcount",
    "inner_ontic",
    "overlap_standard",
    "complement",
    "random_ontic",
]


@dataclass(frozen=True)
class OnticVector:
    """An n-bit pattern naming a subset of the n ontic elements."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigError(f"need at least 2 elements, got n={self.n}")
        check_points(self.n, "an ontic vector")
        if not 0 <= self.bits < 1 << self.n:
            raise ConfigError(f"pattern 0x{self.bits:X} does not fit in {self.n} bits")

    @classmethod
    def from_array(cls, values) -> "OnticVector":
        """Build from a 0/1 sequence indexed by element."""
        arr = (np.asarray(values) != 0).astype(np.uint8)
        n = arr.size
        padded = np.concatenate([np.zeros((-n) % 8, dtype=np.uint8), arr])
        bits = int.from_bytes(np.packbits(padded).tobytes(), "big")
        return cls(bits, n)

    @classmethod
    def parse(cls, text: str) -> "OnticVector":
        """Parse the wire form "n:0xHEX", e.g. "4:0xC" for 1100."""
        head, sep, tail = text.partition(":")
        if not sep:
            raise ConfigError(f"expected 'n:0xHEX', got {text!r}")
        try:
            n = int(head)
            bits = int(tail, 16)
        except ValueError as exc:
            raise ConfigError(f"cannot parse ontic vector {text!r}") from exc
        return cls(bits, n)

    def serialize(self) -> str:
        """Wire form "n:0xHEX" with element 0 at the most significant bit."""
        return f"{self.n}:0x{self.bits:X}"

    def to_array(self) -> np.ndarray:
        """0/1 values indexed by element, as uint8."""
        nbytes = (self.n + 7) // 8
        raw = np.frombuffer(self.bits.to_bytes(nbytes, "big"), dtype=np.uint8)
        return np.unpackbits(raw)[8 * nbytes - self.n :]

    def __str__(self) -> str:
        return self.serialize()


def _check_lengths(q: OnticVector, r: OnticVector) -> None:
    if q.n != r.n:
        raise LengthMismatch(f"lengths differ: {q.n} != {r.n}")


def popcount(q: OnticVector) -> int:
    """Hamming weight of the pattern."""
    return q.bits.bit_count()


def inner_ontic(q: OnticVector, r: OnticVector) -> int:
    """Inner product in the ambient basis: the size of the intersection."""
    _check_lengths(q, r)
    return (q.bits & r.bits).bit_count()


def complement(q: OnticVector) -> OnticVector:
    """Bitwise inversion restricted to the n-bit width."""
    return OnticVector(q.bits ^ ((1 << q.n) - 1), q.n)


def overlap_standard(q: OnticVector, r: OnticVector) -> float:
    """Overlap of the two normalized states left after projecting out the
    all-ones direction.

    Equals (n*|q&r| - |q|*|r|) / sqrt(|q| |~q| |r| |~r|).  Numerator and
    radicand are computed in exact integer arithmetic, so the complement
    symmetries S(q,r) = -S(~q,r) = -S(q,~r) = S(~q,~r) hold to the last
    bit of the float result.
    """
    _check_lengths(q, r)
    n = q.n
    pq = popcount(q)
    pr = popcount(r)
    if pq in (0, n) or pr in (0, n):
        raise DegenerateState("overlap needs nontrivial subsets on both sides")
    numer = n * inner_ontic(q, r) - pq * pr
    radicand = pq * (n - pq) * pr * (n - pr)
    return numer / math.sqrt(radicand)


def random_ontic(
    n: int,
    seed: int | None = None,
    *,
    rng: random.Random | None = None,
    weight: int | None = None,
) -> OnticVector:
    """Random nontrivial subset of n elements, deterministic per seed.

    Default law: every bit is an independent fair coin, resampled until
    the pattern is neither empty nor full (uniform over the 2**n - 2
    nontrivial subsets).  With ``weight``, draws uniformly among subsets
    of exactly that size instead.  Pass ``rng`` to consume an existing
    stream rather than seeding a fresh one.
    """
    if n < 2:
        raise ConfigError(f"need at least 2 elements, got n={n}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if rng is None:
        rng = random.Random(seed)
    if weight is not None:
        if not 0 < weight < n:
            raise ConfigError(f"weight must be in (0, {n}), got {weight}")
        # bit pos of the pattern is element n - 1 - pos
        arr = np.zeros(n, dtype=np.uint8)
        arr[n - 1 - np.array(rng.sample(range(n), weight))] = 1
        return OnticVector.from_array(arr)
    full = (1 << n) - 1
    bits = rng.getrandbits(n)
    while bits == 0 or bits == full:
        bits = rng.getrandbits(n)
    return OnticVector(bits, n)
