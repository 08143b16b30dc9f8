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
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .bitstate import OnticVector, random_ontic
from .entropy import collision_entropy
from .errors import ConfigError, EmptyInput, SizeMismatch
from .indexing import FactorizationShape, SubsystemMask
from .permrep import Permutation, apply_permutation, energy_basis
from .reduction import purity
from .states import state_from_ontic

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "SizeSummary",
    "SweepSummary",
    "CycleCountStat",
    "CycleCensus",
    "run_sweep",
    "summarize_by_size",
    "run_time_series",
    "run_cycle_census",
    "sweep_csv",
    "write_sweep_csv",
    "plot_data_text",
]

CSV_HEADER = "state_id,subset_mask,subset_size,purity,s2_bits"


@dataclass(frozen=True)
class SweepConfig:
    """Everything a sweep needs; equal configs produce identical output.

    ``subset_sizes`` restricts the subsystem sizes (default: all proper
    sizes 1..K-1); ``samples_per_size`` draws that many masks per size
    instead of enumerating them all.  ``density`` switches state sampling
    from uniform-over-nontrivial-subsets to fixed popcount round(density*N).
    ``ontic_vectors`` bypasses sampling entirely, for reproducing a run
    from explicit patterns.
    """

    shape: FactorizationShape
    num_states: int = 10
    seed: int = 0
    basis: str = "ontic"
    generator: Permutation | None = None
    subset_sizes: tuple[int, ...] | None = None
    samples_per_size: int | None = None
    density: float | None = None
    ontic_vectors: tuple[OnticVector, ...] | None = None
    gram_dim_cap: int = 1 << 13

    def validate(self) -> None:
        shape = self.shape
        if shape.k < 2:
            raise ConfigError("a sweep needs at least two factors")
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
        if self.basis not in ("ontic", "energy"):
            raise ConfigError(f"basis must be 'ontic' or 'energy', got {self.basis!r}")
        if self.basis == "energy":
            if self.generator is None:
                raise ConfigError("energy basis needs a generator permutation")
            if self.generator.n != shape.total:
                raise ConfigError(
                    f"generator size {self.generator.n} != shape total {shape.total}"
                )
        elif self.generator is not None:
            raise ConfigError("a generator is only meaningful with basis='energy'")
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


@dataclass(frozen=True)
class SweepRecord:
    """One subsystem of one state: its purity and collision entropy."""

    state_id: int
    subset_mask: int
    subset_size: int
    purity: float
    s2_bits: float


def _resolve_vectors(config: SweepConfig, rng: random.Random) -> tuple[OnticVector, ...]:
    if config.ontic_vectors is not None:
        return config.ontic_vectors
    n = config.shape.total
    weight = config.state_weight()
    return tuple(
        random_ontic(n, rng=rng, weight=weight) for _ in range(config.num_states)
    )


def _enumerate_masks(config: SweepConfig, rng: random.Random) -> list[SubsystemMask]:
    shape = config.shape
    sizes = (
        sorted(set(config.subset_sizes))
        if config.subset_sizes is not None
        else range(1, shape.k)
    )
    chosen: list[SubsystemMask] = []
    for a in sizes:
        masks = sorted(
            sum(1 << p for p in combo)
            for combo in itertools.combinations(range(shape.k), a)
        )
        if config.samples_per_size is not None and config.samples_per_size < len(masks):
            masks = sorted(rng.sample(masks, config.samples_per_size))
        for value in masks:
            mask = SubsystemMask(value, shape)
            if min(mask.dim, shape.total // mask.dim) > config.gram_dim_cap:
                raise ConfigError(
                    f"mask 0b{value:b} needs a {min(mask.dim, shape.total // mask.dim)}-dim "
                    f"Gram matrix, over the budget {config.gram_dim_cap}"
                )
            chosen.append(mask)
    return chosen


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Collision entropy of every configured (state, subsystem) pair.

    Records come back sorted by (state_id, subset size, mask value), the
    order in which states and masks are enumerated, and are deterministic
    for a fixed configuration.
    """
    config.validate()
    rng = random.Random(config.seed)
    vectors = _resolve_vectors(config, rng)
    states = [state_from_ontic(q, config.shape) for q in vectors]
    if config.basis == "energy":
        basis = energy_basis(config.generator)
        states = [basis.transform(psi) for psi in states]
    masks = _enumerate_masks(config, rng)
    # float64 in the ontic basis, complex128 in the energy basis
    stack = np.stack([psi.amps for psi in states])
    purities = np.empty((len(masks), len(states)))
    for i, mask in enumerate(masks):
        purities[i] = purity(stack, mask)
    records = []
    for sid, column in enumerate(purities.T.tolist()):
        for mask, p in zip(masks, column):
            records.append(SweepRecord(sid, mask.mask, mask.size, p, collision_entropy(p)))
    return records


@dataclass(frozen=True)
class SizeSummary:
    """Statistics of s2_bits over all records of one subsystem size."""

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


def summarize_by_size(records, k: int) -> SweepSummary:
    """Per-size statistics plus the largest entropy difference between any
    subsystem and its complement.

    ``k`` is the number of factor positions, needed to pair complements.
    """
    records = list(records)
    if not records:
        raise EmptyInput("no sweep records to summarize")
    full = (1 << k) - 1

    by_key = {(r.state_id, r.subset_mask): r.s2_bits for r in records}
    asym = 0.0
    for (sid, mask), s2 in by_key.items():
        comp = full ^ mask
        if comp > mask and (sid, comp) in by_key:
            asym = max(asym, abs(s2 - by_key[(sid, comp)]))

    grouped: dict[int, list[SweepRecord]] = defaultdict(list)
    for r in records:
        grouped[r.subset_size].append(r)
    rows = []
    for a in sorted(grouped):
        vals = np.array([r.s2_bits for r in grouped[a]])
        per_state: dict[int, list[float]] = defaultdict(list)
        for r in grouped[a]:
            per_state[r.state_id].append(r.s2_bits)
        state_means = np.array([np.mean(v) for _, v in sorted(per_state.items())])
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
    is set, in which case they fold modulo the order.
    """
    if g.n != shape.total:
        raise SizeMismatch(f"generator size {g.n} != shape total {shape.total}")
    ts = [int(t) for t in t_range]
    if not allow_wrap:
        bad = [t for t in ts if not 0 <= t < g.order]
        if bad:
            raise ConfigError(
                f"time {bad[0]} outside one period [0, {g.order}); "
                "pass allow_wrap to fold"
            )
    psi0 = state_from_ontic(q, shape)
    series = []
    for t in ts:
        psi_t = apply_permutation(g, psi0, t)
        series.append((t, collision_entropy(purity(psi_t, mask))))
    return series


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
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(n), (samples, 1)), axis=1)
    sums = [0] * (n + 1)
    squares = [0] * (n + 1)
    for row in perms:
        img = row.tolist()
        seen = bytearray(n)
        counts = [0] * (n + 1)
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = 1
                j = img[j]
                length += 1
            counts[length] += 1
        for length in range(1, n + 1):
            c = counts[length]
            if c:
                sums[length] += c
                squares[length] += c * c
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


def _tool_version() -> str:
    from onticsim import __version__

    return __version__


def _metadata_lines(config: SweepConfig) -> list[str]:
    lines = [
        f"# tool=onticsim {_tool_version()}",
        f"# shape={config.shape}",
        f"# seed={config.seed}",
        f"# states={config.effective_num_states}",
        f"# basis={config.basis}",
    ]
    if config.generator is not None:
        lines.append(f"# generator={config.generator.cycle_string()}")
    lines.append(f"# subset_policy={config.policy_label()}")
    lines.append(f"# sampling={config.sampling_label()}")
    lines.append("# log_base=2")
    return lines


def sweep_csv(records, config: SweepConfig) -> str:
    """CSV text for a sweep: '#' metadata lines, a header, one row per
    record, floats at 17 significant digits."""
    lines = _metadata_lines(config)
    lines.append(CSV_HEADER)
    for r in records:
        lines.append(
            f"{r.state_id},{r.subset_mask},{r.subset_size},"
            f"{r.purity:.17g},{r.s2_bits:.17g}"
        )
    return "\n".join(lines) + "\n"


def write_sweep_csv(records, config: SweepConfig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(sweep_csv(records, config))


def plot_data_text(records, config: SweepConfig) -> str:
    """Companion per-size envelope of a sweep plus a tool-neutral recipe
    for reproducing the standard figure layout."""
    summary = summarize_by_size(records, k=config.shape.k)
    lines = _metadata_lines(config)
    lines += [
        "# figure recipe: x = subsets of the sweep CSV in row order",
        "#   (grouped by subset_size, then mask); y = s2_bits; draw one",
        "#   polyline per state_id; this file adds the per-size envelope.",
        "size,count,min_s2,mean_s2,max_s2,std_s2,state_mean_std",
    ]
    for row in summary.by_size:
        lines.append(
            f"{row.size},{row.count},{row.min_s2:.17g},{row.mean_s2:.17g},"
            f"{row.max_s2:.17g},{row.std_s2:.17g},{row.state_mean_std:.17g}"
        )
    lines.append(f"# max_complement_asymmetry={summary.max_complement_asymmetry:.17g}")
    return "\n".join(lines) + "\n"
