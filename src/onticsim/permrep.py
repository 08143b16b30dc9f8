"""Permutations as evolution generators, and the block Fourier transform
to the basis that diagonalizes them.

A permutation g acts on basis labels from the right: index i moves to
images[i].  Written as disjoint cycles, its matrix is a direct sum of
cyclic shifts; each shift of length ell is diagonalized by the ell-point
discrete Fourier matrix, and the eigenvalues are the ell-th roots of
unity in ascending power order.  Grouping cycles contiguously and
Fourier-transforming each group is therefore a full change to the
eigenbasis ("energy basis") of the evolution.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, InvalidCycle, SizeMismatch
from .indexing import check_points
from .states import PureState

__all__ = [
    "Permutation",
    "EnergyBasis",
    "random_permutation",
    "energy_basis",
]


def _read_only(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _cycle_labels(images: np.ndarray) -> np.ndarray:
    """Each point's cycle minimum, by pointer doubling.

    After round r, ``lab[i]`` is the least point among the 2**r points
    from i onwards along its cycle.  The rounds stop once a doubling
    changes no label: then ``lab[i] <= lab[g**(2**r)(i)]`` for every i,
    so the label cannot decrease along the orbit of ``g**(2**r)`` and is
    constant on it; every such orbit starts a window that holds the
    cycle's minimum, so every label is that minimum.  That takes about
    log2 of the longest cycle rounds.
    """
    lab = np.arange(images.size)
    nxt = images
    while True:
        merged = np.minimum(lab, lab[nxt])
        if np.array_equal(merged, lab):
            break
        lab = merged
        nxt = nxt[nxt]
    _read_only(lab)
    return lab


def _cycle_slots(
    images: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The canonical cycles laid end to end: each cycle starts at its
    minimum and follows the action, cycles are sorted by minimum and fixed
    points are kept.  Returns the points in that order and, per point, its
    cycle's first slot, its own slot within the cycle and its cycle's
    length, as read-only int64 arrays."""
    n = images.size
    idx = np.arange(n)
    sink = labels == idx
    # list ranking: dist[i] steps lead from i to nxt[i], and the minima are
    # sinks, so once every nxt is a sink dist is the distance to the minimum
    dist = (~sink).astype(np.int64)
    nxt = np.where(sink, idx, images)
    while (step := dist[nxt]).any():
        dist += step
        nxt = nxt[nxt]
    count = np.bincount(labels, minlength=n)
    length = count[labels]
    slot = (length - dist) % length
    # count is zero away from the minima, so its exclusive prefix sum at a
    # minimum is the number of points in the cycles of smaller minima
    first = (np.cumsum(count) - count)[labels]
    points = np.empty(n, dtype=np.int64)
    points[first + slot] = idx
    _read_only(points, first, slot, length)
    return points, first, slot, length


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of {0, ..., n-1}; images[i] is the image of i."""

    images: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.images, dtype=np.int64, copy=True)
        n = arr.size
        # n entries in range, none repeated, hit every point once; the
        # range check must come first, np.bincount rejects negatives
        if (
            arr.ndim != 1
            or n < 1
            or arr.min() < 0
            or arr.max() >= n
            or np.bincount(arr, minlength=n).max() != 1
        ):
            raise InvalidCycle("images do not form a bijection of 0..n-1")
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles; points absent from every cycle stay
        fixed.  Raises InvalidCycle on reuse or out-of-range points."""
        if n < 1:
            raise ConfigError(f"size must be >= 1, got {n}")
        check_points(n, "a permutation")
        images = np.arange(n, dtype=np.int64)
        seen: set[int] = set()
        for cyc in cycles:
            pts = [int(p) for p in cyc]
            for p in pts:
                if not 0 <= p < n:
                    raise InvalidCycle(f"point {p} outside 0..{n - 1}")
                if p in seen:
                    raise InvalidCycle(f"point {p} appears more than once")
                seen.add(p)
            images[pts] = pts[1:] + pts[:1]
        return cls(images)

    @classmethod
    def parse(cls, n: int, text: str) -> "Permutation":
        """Cycle notation, e.g. "(0 1 2)(3 4)"; commas also accepted."""
        body = text.strip()
        if body in ("", "()"):
            return cls.from_cycles(n, [])
        groups = re.findall(r"\(([^()]*)\)", body)
        leftover = re.sub(r"\([^()]*\)", "", body).strip()
        if leftover or not groups:
            raise ConfigError(f"cannot parse cycle notation {text!r}")
        cycles = []
        for grp in groups:
            try:
                pts = [int(tok) for tok in re.split(r"[,\s]+", grp.strip()) if tok]
            except ValueError as exc:
                raise ConfigError(f"cannot parse cycle {grp!r}") from exc
            cycles.append(pts)
        return cls.from_cycles(n, cycles)

    @property
    def n(self) -> int:
        return self.images.size

    @cached_property
    def labels(self) -> np.ndarray:
        """Each point's cycle minimum, computed once, on first use: the one
        cycle primitive every other cycle reader derives from."""
        return _cycle_labels(self.images)

    @cached_property
    def _slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return _cycle_slots(self.images, self.labels)

    @cached_property
    def layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The points of the canonical cycles laid end to end (each cycle
        from its minimum, cycles by minimum, fixed points kept), each
        cycle's length and each cycle's first slot; read-only int64."""
        points, first, _, length = self._slots
        minima = np.flatnonzero(self.labels == np.arange(self.n))
        lengths, starts = length[minima], first[minima]
        _read_only(lengths, starts)
        return points, lengths, starts

    @property
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The canonical cycles, fixed points included."""
        points, _, starts = self.layout
        return tuple(tuple(c.tolist()) for c in np.split(points, starts[1:]))

    @cached_property
    def order(self) -> int:
        return math.lcm(*self.layout[1].tolist())

    def power_images(self, t: int) -> np.ndarray:
        """Image array of g**t, t any Python int: the point in slot s of a
        cycle of length ell moves to slot (s + t) mod ell of that cycle."""
        points, first, slot, length = self._slots
        t %= self.order
        if t >= 1 << 62:
            # beyond int64 arithmetic: reduce by each point's own cycle length
            t = (t % length.astype(object)).astype(np.int64)
        return points[first + (slot + t) % length]

    def cycle_string(self) -> str:
        """Cycle notation without the fixed points; "()" for the identity."""
        moved = [c for c in self.cycles if len(c) > 1]
        return "".join("(" + " ".join(map(str, c)) + ")" for c in moved) or "()"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.images, other.images)


# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the stream's increment
# and the two multipliers of its output mix
_GAMMA = 0x9E3779B97F4A7C15
_MULTIPLIERS = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_WORD = (1 << 64) - 1
# a row's redraw a reads the keys a << 62 counters past its first draw's;
# no run reaches 2**62 points, so no other row's draw reads them
_REDRAW_SHIFT = 62


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on uint64 words.  Each
    xor-shift and each odd multiplier is invertible, so the mix is a
    bijection of 64-bit words."""
    tmp = np.empty_like(z)
    for shift, multiplier in zip((30, 27), _MULTIPLIERS):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= multiplier
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _keys(base: int, first: int, count: int) -> np.ndarray:
    """Keys first .. first + count - 1 of the stream at ``base``, in counter
    form: key c is mix(base + c * gamma) mod 2**64."""
    z = np.arange(count, dtype=np.uint64)
    z *= _GAMMA
    z += (base + first * _GAMMA) & _WORD
    return _mix(z)


def _stream_base(seed: int | None) -> int:
    """The stream's base for a seed >= 0: the seed itself below 2**64.
    Larger seeds are folded in limb by limb, from the top one down, each
    step base = mix(base) ^ limb; mix(0) = 0 and mix is a bijection, so no
    limb is dropped.  ``None`` reads 8 bytes of ``os.urandom``."""
    if seed is None:
        return int.from_bytes(os.urandom(8), "little")
    base = 0
    for shift in range(max(seed.bit_length() - 1, 0) // 64 * 64, -1, -64):
        base = int(_mix(np.array([base], dtype=np.uint64))[0]) ^ ((seed >> shift) & _WORD)
    return base


def _rank_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Each n-key row's argsort, shifted by n times the row's index, laid
    end to end, and the indices of the rows with two equal keys."""
    images = keys.reshape(-1, n).argsort(axis=1)
    images += np.arange(0, keys.size, n)[:, None]
    images = images.reshape(-1)
    # the keys in sorted order: equal keys of one row are neighbours, and
    # the pairs that straddle two rows are masked out
    ranked = keys[images]
    tied = ranked[1:] == ranked[:-1]
    tied[n - 1 :: n] = False
    return images, np.flatnonzero(tied) // n


def _random_rows(n: int, first: int, count: int, base: int) -> np.ndarray:
    """Samples first .. first + count - 1 of the uniform random
    permutations of n points drawn from the stream at ``base``, as one
    (count * n,) int64 array: sample first + j's images, each plus j * n, on
    points j * n .. j * n + n - 1.  The array is one permutation of
    count * n points whose cycles are exactly the samples' cycles.

    Sample r is the argsort of keys r * n .. r * n + n - 1.  A sample whose
    keys tie is drawn again, from keys no other sample reads, until none
    tie, so each sample is uniform over the n! orders given the stream,
    and no sample depends on how the samples are batched.  The keys of
    distinct counters never tie, as mix is a bijection, so the redraw is a
    guard that the stream does not need.
    """
    images, tied = _rank_rows(_keys(base, first * n, count * n), n)
    for j in sorted(set(tied.tolist())):
        redraw = 0
        while True:
            redraw += 1
            counter = (redraw << _REDRAW_SHIFT) + (first + j) * n
            row, again = _rank_rows(_keys(base, counter, n), n)
            if not again.size:
                break
        images[j * n : (j + 1) * n] = row + j * n
    return images


def random_permutation(n: int, seed: int | None = None) -> Permutation:
    """Uniform over all n! permutations: the argsort of n SplitMix64 keys,
    the first sample of the census's stream for the same seed."""
    if n < 1:
        raise ConfigError(f"size must be >= 1, got {n}")
    check_points(n, "a permutation")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return Permutation(_random_rows(n, 0, 1, _stream_base(seed)))


@dataclass(frozen=True, eq=False)
class EnergyBasis:
    """Change of basis that diagonalizes a permutation matrix.

    Grouped position s is slot s of the generator's cycle layout: the
    original indices with each cycle contiguous.  Fourier-transforming
    every cycle block completes the diagonalization, and slot k of a
    cycle of length ell carries the eigenvalue exp(2 pi i k / ell).
    """

    generator: Permutation

    def _groups(self):
        """(length, slots, original indices) of the cycles of each length:
        row r of the two (cycles, length) arrays is one cycle block."""
        points, lengths, starts = self.generator.layout
        # a set, not np.unique: its first call imports numpy.ma (about 1.3 MB RSS)
        for length in sorted(set(lengths.tolist())):
            slots = starts[lengths == length][:, None] + np.arange(length)
            yield length, slots, points[slots]

    def eigenvalues(self) -> np.ndarray:
        """Diagonal of the transformed permutation matrix, grouped order."""
        _, lengths, starts = self.generator.layout
        ks = np.arange(self.generator.n) - np.repeat(starts, lengths)
        return np.exp(2j * np.pi * ks / np.repeat(lengths, lengths))

    def transform(self, psi: PureState) -> PureState:
        """Amplitudes in the diagonalizing basis (per-cycle DFT blocks, one
        batched FFT per cycle length), complex128 whatever the dtype of
        ``psi``."""
        if psi.dim != self.generator.n:
            raise SizeMismatch(f"basis size {self.generator.n} != state dimension {psi.dim}")
        out = np.empty(psi.dim, dtype=np.complex128)
        for length, slots, pts in self._groups():
            out[slots] = np.fft.fft(psi.amps[pts], axis=1) / math.sqrt(length)
        return PureState(out, psi.shape)


def energy_basis(g: Permutation) -> EnergyBasis:
    """The basis that diagonalizes the generator's evolution."""
    return EnergyBasis(g)
