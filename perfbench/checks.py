"""Output checks for the benchmark.

Every function returns a list of error messages; an empty list means the
output passed.  Purities are compared against an oracle that is
independent of ``onticsim``: it builds the state from the generated bit
pattern with numpy and takes tr(rho_A^2) by ``tensordot``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

SWEEP_HEADER = "state_id,subset_mask,subset_size,purity,s2_bits"
PLOT_HEADER = "size,count,min_s2,mean_s2,max_s2,std_s2,state_mean_std"
EVOLVE_HEADER = "t,s2_bits"
CENSUS_HEADER = "length,mean,std_error,expected,flagged"

PURITY_TOL = 1e-10  # |purity - oracle|; reordered sums differ near 1e-15
RANGE_TOL = 1e-12  # slack on the bounds [1/min(d_A, d_B), 1]
ASYMMETRY_TOL = 1e-9  # bits, |S2(A) - S2(complement of A)|
S2_TOL = 1e-9  # bits, evolve entropies against the oracle
MAX_REPORTED = 5  # error messages kept per check


@dataclass(frozen=True)
class SweepSpec:
    """What a sweep was asked for: shape, explicit states, basis."""

    dims: tuple[int, ...]
    states: tuple[int, ...]  # bit patterns, element 0 at the top bit
    oracle: bool  # False in the energy basis, where the oracle does not apply
    oracle_masks: int  # masks per state checked against the oracle


@dataclass(frozen=True)
class EvolveSpec:
    dims: tuple[int, ...]
    state: int
    images: tuple[int, ...]  # generator: i -> images[i]
    positions: tuple[int, ...]  # 0-based subsystem factor positions
    t_max: int
    oracle_times: int


@dataclass(frozen=True)
class CensusSpec:
    n: int
    samples: int


def ontic_amplitudes(bits: int, n: int) -> np.ndarray:
    """(q_i - k/n) / sqrt(k (n - k) / n) for the indicator q of the pattern."""
    q = np.frombuffer(format(bits, f"0{n}b").encode(), dtype=np.uint8) - ord("0")
    k = int(q.sum())
    return (q - k / n) / math.sqrt(k * (n - k) / n)


def oracle_purity(amps: np.ndarray, dims, positions) -> float:
    """tr(rho_A^2) of a pure state, built on the smaller side of the cut
    (equal for a pure state) by two tensordot contractions."""
    k = len(dims)
    side = list(positions)
    rest = [p for p in range(k) if p not in side]
    if math.prod(dims[p] for p in side) > math.prod(dims[p] for p in rest):
        side, rest = rest, side
    tensor = amps.reshape(dims)
    rho = np.tensordot(tensor, tensor.conj(), axes=(rest, rest))
    axes = list(range(rho.ndim))
    return float(np.tensordot(rho, rho.conj(), axes=(axes, axes)).real)


def power_images(images, t: int) -> np.ndarray:
    """Images of g**t by repeated squaring of the image array."""
    result = np.arange(len(images))
    base = np.asarray(images)
    while t:
        if t & 1:
            result = base[result]
        base = base[base]
        t >>= 1
    return result


def _positions(mask: int, k: int) -> list[int]:
    return [p for p in range(k) if mask >> p & 1]


def _split_table(text: str, header: str) -> tuple[list[str], list[list[str]]] | None:
    """'#' metadata lines, then the header, then comma rows."""
    lines = text.splitlines()
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        i += 1
    if i == len(lines) or lines[i] != header:
        return None
    return lines[:i], [line.split(",") for line in lines[i + 1 :] if not line.startswith("#")]


def check_process(returncode: int, stderr: str) -> list[str]:
    errors = []
    if returncode != 0:
        errors.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        errors.append("traceback on stderr")
    return errors


def check_sweep(text: str, spec: SweepSpec, rng: random.Random,
                plot_text: str | None = None) -> list[str]:
    """Exact row set, purity range, s2 = -log2(purity), complement
    symmetry, the oracle on a sample of masks, and the plot envelope."""
    table = _split_table(text, SWEEP_HEADER)
    if table is None:
        return ["sweep CSV: header line missing"]
    _, rows = table
    dims = spec.dims
    k = len(dims)
    total = math.prod(dims)
    full = (1 << k) - 1
    lower = {}
    for mask in range(1, full):
        d_a = math.prod(dims[p] for p in _positions(mask, k))
        lower[mask] = 1.0 / min(d_a, total // d_a)

    errors: list[str] = []
    bad = 0

    def fail(message: str) -> None:
        nonlocal bad
        bad += 1
        if len(errors) < MAX_REPORTED:
            errors.append(message)

    values: dict[tuple[int, int], tuple[float, float]] = {}
    for fields in rows:
        try:
            sid, mask, size = int(fields[0]), int(fields[1]), int(fields[2])
            p, s2 = float(fields[3]), float(fields[4])
        except (ValueError, IndexError):
            fail(f"unparsable row {','.join(fields)!r}")
            continue
        if len(fields) != 5 or mask not in lower or not 0 <= sid < len(spec.states):
            fail(f"row {','.join(fields)!r} names no expected subsystem")
            continue
        if (sid, mask) in values:
            fail(f"duplicate row for state {sid} mask {mask}")
            continue
        values[sid, mask] = (p, s2)
        if size != mask.bit_count():
            fail(f"state {sid} mask {mask}: size {size} != popcount")
        if not lower[mask] - RANGE_TOL <= p <= 1.0 + RANGE_TOL:
            fail(f"state {sid} mask {mask}: purity {p!r} outside [{lower[mask]}, 1]")
        elif abs(s2 + math.log2(min(p, 1.0))) > RANGE_TOL * max(1.0, s2):
            fail(f"state {sid} mask {mask}: s2 {s2!r} != -log2(purity)")
    expected = len(spec.states) * (full - 1)
    if len(values) != expected:
        fail(f"{len(values)} distinct rows, expected {expected}")

    asymmetry = 0.0
    for (sid, mask), (_, s2) in values.items():
        other = values.get((sid, full ^ mask))
        if other is not None:
            asymmetry = max(asymmetry, abs(s2 - other[1]))
    if asymmetry > ASYMMETRY_TOL:
        fail(f"complement asymmetry {asymmetry:.3e} bits > {ASYMMETRY_TOL}")

    if spec.oracle:
        masks = list(range(1, full))
        for sid, bits in enumerate(spec.states):
            amps = ontic_amplitudes(bits, total)
            for mask in rng.sample(masks, min(spec.oracle_masks, len(masks))):
                if (sid, mask) not in values:
                    continue
                want = oracle_purity(amps, dims, _positions(mask, k))
                got = values[sid, mask][0]
                if abs(got - want) > PURITY_TOL:
                    fail(f"state {sid} mask {mask}: purity {got!r}, oracle {want!r}")

    if plot_text is not None:
        for message in _check_plot(plot_text, spec, values):
            fail(message)
    if bad > len(errors):
        errors.append(f"... and {bad - len(errors)} more")
    return errors


def _check_plot(text: str, spec: SweepSpec, values) -> list[str]:
    """Per-size counts and means of the envelope against the sweep rows."""
    table = _split_table(text, PLOT_HEADER)
    if table is None:
        return ["plot data: header line missing"]
    _, rows = table
    k = len(spec.dims)
    by_size: dict[int, list[float]] = {}
    for (_, mask), (_, s2) in values.items():
        by_size.setdefault(mask.bit_count(), []).append(s2)
    try:
        parsed = [(int(r[0]), int(r[1]), float(r[3])) for r in rows]
        key, _, value = text.splitlines()[-1].partition("=")
        asymmetry = float(value)
    except (ValueError, IndexError):
        return ["plot data: unparsable row"]
    if [size for size, _, _ in parsed] != list(range(1, k)):
        return ["plot data: sizes are not 1..K-1"]
    errors = []
    for size, count, mean in parsed:
        want = len(spec.states) * math.comb(k, size)
        got = by_size.get(size, [])
        if count != want:
            errors.append(f"plot data: size {size} count {count}, expected {want}")
        elif got and abs(mean - math.fsum(got) / len(got)) > ASYMMETRY_TOL:
            errors.append(f"plot data: size {size} mean {mean!r} disagrees with the CSV")
    if key != "# max_complement_asymmetry" or not asymmetry <= ASYMMETRY_TOL:
        errors.append(f"plot data: asymmetry line reads {key}={value}")
    return errors


def check_evolve(text: str, spec: EvolveSpec, rng: random.Random) -> list[str]:
    """Times 0..t_max exactly, entropies in range, the oracle on sampled
    times (t = 0 and t = t_max always among them)."""
    table = _split_table(text, EVOLVE_HEADER)
    if table is None:
        return ["evolve output: header line missing"]
    _, rows = table
    try:
        series = [(int(t), float(s2)) for t, s2 in rows]
    except ValueError:
        return ["evolve output: unparsable row"]
    times = [t for t, _ in series]
    if times != list(range(spec.t_max + 1)):
        return [f"evolve output: {len(times)} rows, expected times 0..{spec.t_max}"]
    dims = spec.dims
    total = math.prod(dims)
    d_a = math.prod(dims[p] for p in spec.positions)
    top = math.log2(min(d_a, total // d_a))
    errors = []
    for t, s2 in series:
        if not -RANGE_TOL <= s2 <= top + RANGE_TOL:
            errors.append(f"t={t}: s2 {s2!r} outside [0, {top}]")
            break
    amps = ontic_amplitudes(spec.state, total)
    sample = {0, spec.t_max}
    sample.update(rng.sample(range(spec.t_max + 1), min(spec.oracle_times, spec.t_max + 1)))
    for t in sorted(sample):
        moved = np.empty_like(amps)
        moved[power_images(spec.images, t)] = amps
        want = -math.log2(oracle_purity(moved, dims, spec.positions))
        if abs(series[t][1] - want) > S2_TOL:
            errors.append(f"t={t}: s2 {series[t][1]!r}, oracle {want!r}")
            if len(errors) >= MAX_REPORTED:
                break
    return errors


def check_census(text: str, spec: CensusSpec) -> list[str]:
    """Lengths 1..n, nonnegative means, and sum_l l * mean_l = n."""
    table = _split_table(text, CENSUS_HEADER)
    if table is None:
        return ["census output: header line missing"]
    meta, rows = table
    errors = []
    if f"# n={spec.n}" not in meta or f"# samples={spec.samples}" not in meta:
        errors.append("census output: n or samples metadata missing")
    try:
        lengths = [int(r[0]) for r in rows]
        means = [float(r[1]) for r in rows]
    except (ValueError, IndexError):
        return errors + ["census output: unparsable row"]
    if lengths != list(range(1, spec.n + 1)):
        return errors + [f"census output: lengths are not 1..{spec.n}"]
    if min(means) < 0.0:
        errors.append("census output: negative mean")
    identity = math.fsum(length * mean for length, mean in zip(lengths, means))
    if abs(identity - spec.n) > 1e-9 * spec.n:
        errors.append(f"census output: sum of l*mean_l = {identity!r}, expected {spec.n}")
    return errors
