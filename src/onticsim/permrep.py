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
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bitstate import OnticVector
from .errors import ConfigError, DimensionCap, InvalidCycle, SizeMismatch
from .states import PureState

__all__ = [
    "Permutation",
    "EnergyBasis",
    "random_permutation",
    "apply_permutation",
    "evolve_ontic",
    "fourier_block",
    "permutation_matrix",
    "energy_basis",
]


def _cycles_from_images(images: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Disjoint cycles in canonical form: each cycle starts at its minimum
    and follows the action; cycles sorted by minimum; fixed points kept."""
    n = images.shape[0]
    img = images.tolist()
    seen = bytearray(n)
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        cyc = [start]
        j = img[start]
        while j != start:
            seen[j] = 1
            cyc.append(j)
            j = img[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


@dataclass(frozen=True, eq=False)
class Permutation:
    """A bijection of {0, ..., n-1}; images[i] is the image of i."""

    images: np.ndarray
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        arr = np.array(self.images, dtype=np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)

    @classmethod
    def from_images(cls, images) -> "Permutation":
        arr = np.asarray(images, dtype=np.int64)
        n = arr.size
        if n < 1 or not np.array_equal(np.sort(arr), np.arange(n)):
            raise InvalidCycle("images do not form a bijection of 0..n-1")
        return cls(arr, _cycles_from_images(arr))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise ConfigError(f"size must be >= 1, got {n}")
        return cls.from_images(np.arange(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles; points absent from every cycle stay
        fixed.  Raises InvalidCycle on reuse or out-of-range points."""
        if n < 1:
            raise ConfigError(f"size must be >= 1, got {n}")
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
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        return cls(images, _cycles_from_images(images))

    @classmethod
    def parse(cls, n: int, text: str) -> "Permutation":
        """Cycle notation, e.g. "(0 1 2)(3 4)"; commas also accepted."""
        body = text.strip()
        if body in ("", "()"):
            return cls.identity(n)
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
    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles))

    @cached_property
    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles), reverse=True))

    def power_images(self, t: int) -> np.ndarray:
        """Image array of g**t (t may be negative; reduced mod the order)."""
        t = t % self.order
        out = np.empty(self.n, dtype=np.int64)
        for cyc in self.cycles:
            c = np.asarray(cyc, dtype=np.int64)
            out[c] = np.roll(c, -(t % len(cyc)))
        return out

    def cycle_string(self, include_fixed: bool = False) -> str:
        parts = [c for c in self.cycles if len(c) > 1 or include_fixed]
        if not parts:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in parts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.images, other.images)


def random_permutation(n: int, seed: int | None = None) -> Permutation:
    """Uniform over all n! permutations (seeded shuffle)."""
    if n < 1:
        raise ConfigError(f"size must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return Permutation.from_images(rng.permutation(n))


def apply_permutation(g: Permutation, psi: PureState, t: int = 1) -> PureState:
    """Relabel basis components along the evolution: the amplitude at i
    moves to the image of i under g**t."""
    if g.n != psi.dim:
        raise SizeMismatch(f"permutation size {g.n} != state dimension {psi.dim}")
    if t % g.order == 0:
        return psi
    out = np.empty_like(psi.amps)
    out[g.power_images(t)] = psi.amps
    return PureState(out, psi.shape)


def evolve_ontic(g: Permutation, q: OnticVector, t: int = 1) -> OnticVector:
    """Image of the subset under g**t: element i lands on its image, so
    building a state from the result commutes with evolving the state."""
    if g.n != q.n:
        raise SizeMismatch(f"permutation size {g.n} != vector length {q.n}")
    arr = q.to_array()
    out = np.empty_like(arr)
    out[g.power_images(t)] = arr
    return OnticVector.from_array(out)


def fourier_block(length: int) -> np.ndarray:
    """The unitary, symmetric discrete Fourier matrix with entries
    omega**(-j*k) / sqrt(length), omega = exp(2 pi i / length).

    Conjugating the cyclic shift by it yields the diagonal matrix
    diag(1, omega, ..., omega**(length-1)).  Being symmetric and unitary,
    its inverse is its elementwise conjugate.
    """
    if length < 1:
        raise ConfigError(f"block length must be >= 1, got {length}")
    j = np.arange(length)
    phases = np.outer(j, j) % length
    return np.exp(-2j * np.pi * phases / length) / math.sqrt(length)


def permutation_matrix(g: Permutation, cap: int = 4096) -> np.ndarray:
    """Dense 0/1 matrix of the permutation: row i is set at column images[i]."""
    if g.n > cap:
        raise DimensionCap(f"refusing {g.n}x{g.n} matrix (cap {cap})")
    mat = np.zeros((g.n, g.n))
    mat[np.arange(g.n), g.images] = 1.0
    return mat


@dataclass(frozen=True, eq=False)
class EnergyBasis:
    """Change of basis that diagonalizes a permutation matrix.

    ``point_order`` lists the original indices with each cycle contiguous;
    Fourier-transforming every cycle block completes the diagonalization.
    Grouped position (block m, slot k) carries the exact eigenphase pair
    (ell_m, k), i.e. eigenvalue exp(2 pi i k / ell_m).
    """

    generator: Permutation
    point_order: np.ndarray
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = np.array(self.point_order, dtype=np.int64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "point_order", arr)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        out = [0]
        for length in self.blocks:
            out.append(out[-1] + length)
        return tuple(out[:-1])

    @cached_property
    def eigenphase_exponents(self) -> tuple[tuple[int, int], ...]:
        """Per grouped position, the exact pair (ell, k) for exp(2 pi i k / ell)."""
        return tuple((length, k) for length in self.blocks for k in range(length))

    def eigenvalues(self) -> np.ndarray:
        """Diagonal of the transformed permutation matrix, grouped order."""
        ells = np.concatenate([np.full(length, length) for length in self.blocks])
        ks = np.concatenate([np.arange(length) for length in self.blocks])
        return np.exp(2j * np.pi * ks / ells)

    def transform(self, psi: PureState) -> PureState:
        """Amplitudes in the diagonalizing basis (per-cycle DFT blocks)."""
        if psi.dim != self.generator.n:
            raise SizeMismatch(
                f"basis size {self.generator.n} != state dimension {psi.dim}"
            )
        out = np.empty_like(psi.amps)
        for start, length in zip(self.offsets, self.blocks):
            pts = self.point_order[start : start + length]
            out[start : start + length] = np.fft.fft(psi.amps[pts]) / math.sqrt(length)
        return PureState(out, psi.shape)

    def inverse_transform(self, psi: PureState) -> PureState:
        """Back to the original basis; exact inverse of :meth:`transform`."""
        if psi.dim != self.generator.n:
            raise SizeMismatch(
                f"basis size {self.generator.n} != state dimension {psi.dim}"
            )
        out = np.empty_like(psi.amps)
        for start, length in zip(self.offsets, self.blocks):
            pts = self.point_order[start : start + length]
            out[pts] = np.fft.ifft(psi.amps[start : start + length]) * math.sqrt(length)
        return PureState(out, psi.shape)

    def matrix(self, cap: int = 4096) -> np.ndarray:
        """Dense transition matrix (tests and small systems only)."""
        n = self.generator.n
        if n > cap:
            raise DimensionCap(f"refusing {n}x{n} matrix (cap {cap})")
        mat = np.zeros((n, n), dtype=np.complex128)
        for start, length in zip(self.offsets, self.blocks):
            pts = self.point_order[start : start + length]
            mat[start : start + length, pts] = fourier_block(length)
        return mat


def energy_basis(g: Permutation) -> EnergyBasis:
    """Grouping order and Fourier block sizes for the generator's cycles."""
    order = np.concatenate([np.asarray(c, dtype=np.int64) for c in g.cycles])
    return EnergyBasis(g, order, tuple(len(c) for c in g.cycles))
