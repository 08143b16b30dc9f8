"""Experiment drivers: subsystem-entropy sweeps, evolution time series,
and permutation cycle statistics, with deterministic CSV output.

The sweep is the full-scale run: a handful of random bit-vector states at
N = prod(dims), the collision entropy of every requested subsystem of the
factorization, and output that reproduces itself byte for byte for a
fixed configuration.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bitstate import OnticVector, random_ontic
from .entropy import collision_entropy
from .errors import ConfigError, EmptyInput, InvalidCycle, NumericViolation, SizeMismatch
from .indexing import FactorizationShape, SubsystemMask, check_points
from .permrep import Permutation, _random_rows, _stream_base, energy_basis
from .reduction import Plan, _squared_norms
from .states import NORM_TOLERANCE, state_from_ontic

__all__ = [
    "SweepConfig",
    "SweepResult",
    "SizeSummary",
    "SweepSummary",
    "CycleCountStat",
    "CycleCensus",
    "run_sweep",
    "summarize_by_size",
    "run_time_series",
    "run_cycle_census",
    "sweep_csv",
    "plot_data_text",
]

CSV_HEADER = "state_id,subset_mask,subset_size,purity,s2_bits"
# points per batch, at least one whole sample or state: the cycle census
# labels that many, a time series evolves and reduces that many
BATCH_POINTS = 1 << 14
# rows an output table is formatted and written in at a time
CSV_BLOCK_ROWS = 1 << 12


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; equal configs produce identical output.

    ``subset_sizes`` restricts the subsystem sizes (default: all proper
    sizes 1..K-1); ``samples_per_size`` draws that many masks per size
    instead of enumerating them all.  ``density`` switches state sampling
    from uniform-over-nontrivial-subsets to fixed popcount round(density*N).
    ``ontic_vectors`` bypasses sampling entirely, for reproducing a run
    from explicit patterns.  A ``generator`` puts the states in the energy
    basis that diagonalizes it; without one they stay in the ontic basis.
    """

    shape: FactorizationShape
    num_states: int = 10
    seed: int = 0
    generator: Permutation | None = None
    subset_sizes: tuple[int, ...] | None = None
    samples_per_size: int | None = None
    density: float | None = None
    ontic_vectors: tuple[OnticVector, ...] | None = None

    def validate(self) -> None:
        shape = self.shape
        if shape.k < 2:
            raise ConfigError("a sweep needs at least two factors")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.ontic_vectors is not None:
            if len(self.ontic_vectors) < 1:
                raise ConfigError("ontic_vectors must contain at least one vector")
            for q in self.ontic_vectors:
                if q.n != shape.total:
                    raise ConfigError(
                        f"explicit vector length {q.n} != shape total {shape.total}"
                    )
            if self.density is not None:
                raise ConfigError("density has no effect with explicit vectors")
        elif self.num_states < 1:
            raise ConfigError(f"num_states must be >= 1, got {self.num_states}")
        if self.generator is not None and self.generator.n != shape.total:
            raise ConfigError(
                f"generator size {self.generator.n} != shape total {shape.total}"
            )
        if self.subset_sizes is not None:
            if not self.subset_sizes:
                raise ConfigError("subset_sizes must name at least one size")
            for a in self.subset_sizes:
                if not 1 <= a <= shape.k - 1:
                    raise ConfigError(f"subset size {a} outside 1..{shape.k - 1}")
        if self.samples_per_size is not None and self.samples_per_size < 1:
            raise ConfigError("samples_per_size must be >= 1")
        if self.density is not None and not 0.0 < self.density < 1.0:
            raise ConfigError(f"density must be in (0, 1), got {self.density}")

    @property
    def basis(self) -> str:
        return "ontic" if self.generator is None else "energy"

    @property
    def effective_num_states(self) -> int:
        if self.ontic_vectors is not None:
            return len(self.ontic_vectors)
        return self.num_states

    def state_weight(self) -> int | None:
        """Fixed popcount for state sampling, or None for the uniform law."""
        if self.density is None:
            return None
        return min(max(round(self.density * self.shape.total), 1), self.shape.total - 1)

    def policy_label(self) -> str:
        parts = []
        if self.subset_sizes is not None:
            parts.append("sizes=" + ",".join(str(a) for a in sorted(set(self.subset_sizes))))
        if self.samples_per_size is not None:
            parts.append(f"sampled={self.samples_per_size}-per-size")
        return ";".join(parts) if parts else "all-proper"

    def sampling_label(self) -> str:
        if self.ontic_vectors is not None:
            return "explicit:" + ",".join(q.serialize() for q in self.ontic_vectors)
        if self.density is not None:
            return f"fixed-weight={self.state_weight()}"
        return "uniform-nontrivial"


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Every purity of a sweep: row ``sid`` is state ``sid``, column ``j``
    the ``j``-th mask in enumeration order (by size, then value).

    ``masks`` and ``sizes`` are the ``(M,)`` mask values and popcounts;
    ``purity`` and ``s2_bits`` are ``(S, M)``.  The arrays are read-only.
    """

    masks: np.ndarray
    sizes: np.ndarray
    purity: np.ndarray
    s2_bits: np.ndarray

    def __post_init__(self) -> None:
        for values in (self.masks, self.sizes, self.purity, self.s2_bits):
            values.setflags(write=False)


def _mask_of_rank(k: int, a: int, rank: int) -> int:
    """The rank-th smallest (from 0) k-bit value with popcount a."""
    value = 0
    for p in range(k - 1, -1, -1):
        # C(p, a) values keep bit p clear and put all a bits below it
        below = math.comb(p, a)
        if rank >= below:
            value |= 1 << p
            rank -= below
            a -= 1
    return value


def _masks_of_size(a: int, count: int):
    """The ``count`` smallest values with popcount ``a``, in increasing
    order, each stepped from the one before by the next-combination rule."""
    value = (1 << a) - 1
    for _ in range(count):
        yield value
        low = value & -value
        ripple = value + low
        value = (((ripple ^ value) >> 2) // low) | ripple


def _enumerate_masks(config: SweepConfig, rng: random.Random) -> list[int]:
    shape = config.shape
    sizes = (
        sorted(set(config.subset_sizes))
        if config.subset_sizes is not None
        else range(1, shape.k)
    )
    chosen: list[int] = []
    for a in sizes:
        count = math.comb(shape.k, a)
        if config.samples_per_size is not None and config.samples_per_size < count:
            # the same draw as sampling from the sorted list of all C(K, a)
            # masks, without building it
            ranks = sorted(rng.sample(range(count), config.samples_per_size))
            values = [_mask_of_rank(shape.k, a, rank) for rank in ranks]
        else:
            values = _masks_of_size(a, count)
        chosen.extend(values)
    return chosen


def run_sweep(config: SweepConfig) -> SweepResult:
    """Collision entropy of every configured (state, subsystem) pair.

    States and masks come back in the order they are enumerated, and the
    result is deterministic for a fixed configuration.
    """
    config.validate()
    rng = random.Random(config.seed)
    weight = config.state_weight()
    # validate() rejects an empty tuple of explicit vectors
    vectors = config.ontic_vectors or [
        random_ontic(config.shape.total, rng=rng, weight=weight) for _ in range(config.num_states)
    ]
    masks = _enumerate_masks(config, rng)
    # planned before any state is built, so a mask the plan rejects costs
    # no state
    plan = Plan(config.shape, masks)
    states = (state_from_ontic(q, config.shape) for q in vectors)
    if config.generator is not None:
        basis = energy_basis(config.generator)
        states = (basis.transform(psi) for psi in states)
    # float64 in the ontic basis, complex128 in the energy basis; the states
    # are built one at a time and only their stack outlives this line
    stack = np.stack([psi.amps for psi in states])
    purities = plan.run(stack)
    return SweepResult(
        masks=np.array(masks),
        sizes=np.array([mask.bit_count() for mask in masks]),
        purity=purities,
        s2_bits=collision_entropy(purities),
    )


@dataclass(frozen=True)
class SizeSummary:
    """Statistics of s2_bits over every (state, mask) of one subsystem size."""

    size: int
    count: int
    min_s2: float
    max_s2: float
    mean_s2: float
    std_s2: float
    state_mean_std: float  # spread of the per-state means across states


@dataclass(frozen=True)
class SweepSummary:
    by_size: tuple[SizeSummary, ...]
    max_complement_asymmetry: float


def summarize_by_size(result: SweepResult, shape: FactorizationShape) -> SweepSummary:
    """Per-size statistics plus the largest entropy difference between a
    mask ``m`` and its complement ``full ^ m`` in ``shape``, over the pairs
    with both masks in the sweep."""
    s2 = result.s2_bits
    if s2.size == 0:
        raise EmptyInput("no sweep results to summarize")
    full = (1 << shape.k) - 1
    column = {m: j for j, m in enumerate(result.masks.tolist())}
    # each pair once, from its first enumerated side
    pairs = [(j, column[full ^ m]) for m, j in column.items() if column.get(full ^ m, -1) > j]
    asym = 0.0
    if pairs:
        first, second = np.array(pairs).T
        asym = float(np.abs(s2[:, first] - s2[:, second]).max())

    rows = []
    for a in sorted(set(result.sizes.tolist())):
        # state-major, like the CSV rows of this size
        block = s2[:, result.sizes == a]
        vals = block.ravel()
        # np.mean of each row on its own: block.mean(axis=1) sums in a
        # different order and changes the last bits
        state_means = np.array([np.mean(row) for row in block])
        rows.append(
            SizeSummary(
                size=a,
                count=vals.size,
                min_s2=float(vals.min()),
                max_s2=float(vals.max()),
                mean_s2=float(vals.mean()),
                std_s2=float(vals.std()),
                state_mean_std=float(state_means.std()),
            )
        )
    return SweepSummary(tuple(rows), asym)


def run_time_series(
    shape: FactorizationShape,
    q: OnticVector,
    g: Permutation,
    mask: SubsystemMask,
    t_range,
    allow_wrap: bool = False,
) -> list[tuple[int, float]]:
    """Collision entropy of the subsystem along the discrete evolution
    t -> g**t applied to the state built from q.

    Times outside one period [0, order) are rejected unless ``allow_wrap``
    is set, in which case they fold modulo the order.  The evolved states
    are built ``BATCH_POINTS`` points at a time, each one gather of the
    state at the time listed before it.  The mask's ``Plan`` is made once,
    before the state is built, so a mask it rejects exits first; its
    buffers are made once too, for the largest block, and each block is
    norm-checked and run through both.  One index array is held at a time,
    that of the last step made: whenever a row's step differs from it, the
    array of the new step is made and checked to be a bijection of the N
    points, as a ``Permutation``, before its first gather.
    """
    if g.n != shape.total:
        raise SizeMismatch(f"generator size {g.n} != shape total {shape.total}")
    if mask.shape != shape:
        raise ConfigError(f"mask shape {mask.shape} does not match state shape {shape}")
    ts = [int(t) for t in t_range]
    if not allow_wrap:
        bad = [t for t in ts if not 0 <= t < g.order]
        if bad:
            raise ConfigError(
                f"time {bad[0]} outside one period [0, {g.order}); "
                "pass allow_wrap to fold"
            )
    plan = Plan(shape, [mask.mask])
    prev, t_prev = state_from_ontic(q, shape).amps, 0
    rows = max(1, BATCH_POINTS // shape.total)
    buffers = plan.buffers(min(rows, len(ts)), prev.dtype)
    # the last step made (mod the order) and its index array, which takes
    # the state at t from the one at t - step: amplitude j comes from point
    # g**-step(j)
    made, gather = None, None
    purities = [np.empty(0)]
    for start in range(0, len(ts), rows):
        times = ts[start : start + rows]
        block = np.empty((len(times), shape.total), prev.dtype)
        for row, t in zip(block, times):
            step = (t - t_prev) % g.order
            if step != made:
                try:
                    gather = Permutation(g.power_images(-step)).images
                except InvalidCycle:
                    raise NumericViolation(
                        f"the index array of step {step} is not a bijection "
                        f"of the {shape.total} points"
                    ) from None
                made = step
            # mode="raise", the default, always buffers out; gather was
            # checked above to be a bijection of the N points, so "clip"
            # clips nothing
            prev.take(gather, out=row, mode="clip")
            prev, t_prev = row, t
        # checked as Python floats: numpy's per-call cost would dominate; a
        # complex block's real view holds the squares of both parts
        for t, square in zip(times, _squared_norms(block.view(np.float64)).tolist()):
            norm = math.sqrt(square)
            if not abs(norm - 1.0) <= NORM_TOLERANCE:
                raise NumericViolation(
                    f"state norm {norm!r} at t={t} is not 1 within {NORM_TOLERANCE}"
                )
        purities.append(plan.run(block, buffers)[:, 0])
    s2 = collision_entropy(np.concatenate(purities))
    return list(zip(ts, s2.tolist()))


@dataclass(frozen=True)
class CycleCountStat:
    """Empirical mean count of cycles of one length, with standard error."""

    length: int
    mean: float
    std_error: float
    expected: float
    flagged: bool


@dataclass(frozen=True)
class CycleCensus:
    n: int
    samples: int
    stats: tuple[CycleCountStat, ...]


def run_cycle_census(n: int, samples: int, seed: int | None = 0) -> CycleCensus:
    """Mean number of length-l cycles over uniform random permutations.

    The expected count is 1/l for every l <= n; lengths up to 8 whose
    empirical mean strays more than three standard errors from that are
    flagged.
    """
    if n < 1:
        raise ConfigError(f"size must be >= 1, got {n}")
    check_points(n, "a permutation")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if seed is not None and seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    base = _stream_base(seed)
    rows = max(1, BATCH_POINTS // n)
    sums = [0] * (n + 1)
    squares = [0] * (n + 1)
    for done in range(0, samples, rows):
        count = min(rows, samples - done)
        # the batch's samples, each shifted onto its own n points: one
        # permutation whose cycles are exactly the samples' cycles
        labels = Permutation(_random_rows(n, done, count, base)).labels
        # each cycle counted once, at its minimum: its sample is the
        # minimum // n, its length the number of points with that label
        minima = np.flatnonzero(labels == np.arange(labels.size))
        slot = minima // n * (n + 1) + np.bincount(labels)[minima]
        counts = np.bincount(slot, minlength=count * (n + 1)).reshape(count, n + 1)
        sums = [a + b for a, b in zip(sums, counts.sum(axis=0).tolist())]
        squares = [a + b for a, b in zip(squares, (counts * counts).sum(axis=0).tolist())]
    stats = []
    for length in range(1, n + 1):
        mean = sums[length] / samples
        if samples > 1:
            var = (squares[length] - samples * mean * mean) / (samples - 1)
            se = math.sqrt(max(var, 0.0) / samples)
        else:
            se = 0.0
        expected = 1.0 / length
        flagged = length <= 8 and abs(mean - expected) > 3.0 * se
        stats.append(CycleCountStat(length, mean, se, expected, flagged))
    return CycleCensus(n, samples, tuple(stats))


def _table(comments: list[str], header: str, rows: Iterable[str]) -> Iterator[str]:
    """An output table as text blocks: the '# tool=' line, one '# ' line
    per comment and the column header, then the rows, each ending in a
    line break, ``CSV_BLOCK_ROWS`` at a time."""
    yield "".join(f"# {c}\n" for c in [f"tool=onticsim {__version__}", *comments]) + header + "\n"
    rows = iter(rows)
    while block := "".join(itertools.islice(rows, CSV_BLOCK_ROWS)):
        yield block


def _metadata(config: SweepConfig) -> list[str]:
    g = config.generator
    return [
        f"shape={config.shape}",
        f"seed={config.seed}",
        f"states={config.effective_num_states}",
        f"basis={config.basis}",
        *([] if g is None else [f"generator={g.cycle_string()}"]),
        f"subset_policy={config.policy_label()}",
        f"sampling={config.sampling_label()}",
        "log_base=2",
    ]


def sweep_csv(result: SweepResult, config: SweepConfig) -> Iterator[str]:
    """CSV text blocks for a sweep: '#' metadata lines and a header, then
    one row per (state, mask) in state-major order, floats at 17
    significant digits."""
    keys = [f"{m},{a}," for m, a in zip(result.masks.tolist(), result.sizes.tolist())]
    cuts = [slice(i, i + CSV_BLOCK_ROWS) for i in range(0, len(keys), CSV_BLOCK_ROWS)]
    rows = (
        f"{sid},{key}{p:.17g},{s2:.17g}\n"
        for sid in range(len(result.purity))
        for cut in cuts
        # floats listed a block at a time, not a whole state at once
        for key, p, s2 in zip(
            keys[cut], result.purity[sid, cut].tolist(), result.s2_bits[sid, cut].tolist()
        )
    )
    return _table(_metadata(config), CSV_HEADER, rows)


def plot_data_text(result: SweepResult, config: SweepConfig) -> Iterator[str]:
    """Text blocks of the companion per-size envelope of a sweep plus a
    tool-neutral recipe for reproducing the standard figure layout."""
    summary = summarize_by_size(result, config.shape)
    comments = _metadata(config) + [
        "figure recipe: x = subsets of the sweep CSV in row order",
        "  (grouped by subset_size, then mask); y = s2_bits; draw one",
        "  polyline per state_id; this file adds the per-size envelope.",
    ]
    rows = [
        f"{row.size},{row.count},{row.min_s2:.17g},{row.mean_s2:.17g},"
        f"{row.max_s2:.17g},{row.std_s2:.17g},{row.state_mean_std:.17g}\n"
        for row in summary.by_size
    ]
    rows.append(f"# max_complement_asymmetry={summary.max_complement_asymmetry:.17g}\n")
    return _table(comments, "size,count,min_s2,mean_s2,max_s2,std_s2,state_mean_std", rows)
