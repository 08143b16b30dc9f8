"""End-to-end acceptance checks, each at its stated scale and tolerance.

Every criterion is one test that prints a single PASS/FAIL line with the
measured quantity (run with ``pytest -s`` to see them on success).  The
flagship sweep (4096-dimensional space, 12 two-level factors, 10 random
states, all 4094 proper subsystems) is computed once and shared.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from oracle import (
    energy_matrix,
    exact_purity,
    expected_fixed_weight_purity,
    oracle_purities,
    permutation_matrix,
    purity_from_density,
    reduced_density_bruteforce,
)

from onticsim.bitstate import (
    OnticVector,
    complement,
    overlap_standard,
    random_ontic,
)
from onticsim.entropy import (
    Spectrum,
    collision_entropy,
    renyi_entropy,
    spectrum_of,
    von_neumann_entropy,
)
from onticsim.experiment import SweepConfig, run_cycle_census, run_sweep, sweep_csv
from onticsim.indexing import FactorizationShape, SubsystemMask
from onticsim.permrep import energy_basis, random_permutation
from onticsim.reduction import purity, reduced_density
from onticsim.states import project_standard, state_from_ontic

FULL_SHAPE = FactorizationShape.parse("2^12")
FULL_CONFIG = SweepConfig(shape=FULL_SHAPE, num_states=10, seed=20240811)

ORACLE_SHAPES = [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]
ORACLE_STATES_PER_SHAPE = 20


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def full_sweep():
    start = time.perf_counter()
    result = run_sweep(FULL_CONFIG)
    elapsed = time.perf_counter() - start
    return result, elapsed


@pytest.fixture(scope="module")
def oracle_instances():
    """(state, mask) pairs for the small-shape oracle criteria."""
    instances = []
    for dims in ORACLE_SHAPES:
        shape = FactorizationShape(dims)
        rng = random.Random(hash(dims) & 0xFFFF)
        for _ in range(ORACLE_STATES_PER_SHAPE):
            psi = state_from_ontic(random_ontic(shape.total, rng=rng), shape)
            for bits in range(1, (1 << shape.k) - 1):
                instances.append((psi, SubsystemMask(bits, shape)))
    return instances


def test_criterion_01_schmidt_symmetry(full_sweep):
    # The sweep computes each pair once, on one side, and copies it to the
    # other.  Here the side enumerated second, by (size, value), is computed
    # by an oracle that shares no code with the kernel, and both columns
    # are checked against it.
    result, _ = full_sweep
    column = {m: j for j, m in enumerate(result.masks.tolist())}
    rng = random.Random(FULL_CONFIG.seed)
    stack = np.stack([
        state_from_ontic(random_ontic(FULL_SHAPE.total, rng=rng), FULL_SHAPE).amps
        for _ in range(FULL_CONFIG.num_states)
    ])
    full = (1 << FULL_SHAPE.k) - 1
    worst = 0.0
    pairs = 0
    for mask in range(1, full):
        comp = full ^ mask
        if (bin(mask).count("1"), mask) > (bin(comp).count("1"), comp):
            continue
        own = oracle_purities(stack, FULL_SHAPE.dims, comp)
        for sid, p in enumerate(own.tolist()):
            s2 = collision_entropy(p)
            worst = max(
                worst,
                abs(result.s2_bits[sid, column[mask]] - s2),
                abs(result.s2_bits[sid, column[comp]] - s2),
            )
            pairs += 1
    assert pairs == 10 * 2047
    report(
        "1 Schmidt symmetry",
        worst < 1e-9,
        f"max |s2 swept - oracle s2 of the complement| = {worst:.3e} "
        f"over {pairs} pairs, tol 1e-9",
    )


def test_criterion_02_max_mixed_plateau(full_sweep):
    result, _ = full_sweep
    tolerances = {1: 0.2, 2: 0.35, 3: 0.5}
    deviations = {
        a: abs(float(result.s2_bits[:, result.sizes == a].mean()) - a)
        for a in tolerances
    }
    ok = all(deviations[a] < tolerances[a] for a in tolerances)
    detail = ", ".join(
        f"|A|={a}: mean dev {deviations[a]:.4f} (tol {tolerances[a]})"
        for a in sorted(tolerances)
    )
    report("2 max-mixed plateau", ok, detail)


def test_criterion_03_weak_state_dependence(full_sweep):
    result, _ = full_sweep
    sizes = np.unique(result.sizes).tolist()
    assert sizes == list(range(1, 12))
    worst = 0.0
    for size in sizes:
        block = result.s2_bits[:, result.sizes == size]
        means = np.array([np.mean(row) for row in block])
        assert means.size == 10
        worst = max(worst, float(means.std()))
    report(
        "3 weak state dependence",
        worst < 0.1,
        f"max over |A| of std of per-state means = {worst:.5f} bits, tol 0.1",
    )


@pytest.mark.parametrize(
    "dims, w, positions",
    [((2, 2, 2), 3, [0]), ((2, 3, 2), 5, [1]), ((2, 2, 2, 2), 6, [0, 2]), ((3, 2, 2), 4, [0, 1])],
)
def test_fixed_weight_formula_is_the_mean_over_every_subset(dims, w, positions):
    n = math.prod(dims)
    total, count = Fraction(0), 0
    for subset in itertools.combinations(range(n), w):
        bits = [0] * n
        for i in subset:
            bits[i] = 1
        total += exact_purity(bits, dims, positions)
        count += 1
    d_a = math.prod(dims[p] for p in positions)
    assert total / count == expected_fixed_weight_purity(n, w, d_a)


def test_criterion_11_fixed_weight_expected_purity():
    # Fixed-weight states have an exact expected purity, measurably below
    # Lubkin's Haar average.  The masks of one state are correlated, so the
    # standard error is taken across the states' own means.
    config = SweepConfig(
        shape=FactorizationShape.parse("2^10"), num_states=200, seed=1, density=0.3,
        subset_sizes=(1, 3, 5),
    )
    result = run_sweep(config)
    n, w = config.shape.total, config.state_weight()
    assert w == 307
    worst, details = 0.0, []
    for size in config.subset_sizes:
        d_a, d_b = 2**size, n // 2**size
        means = result.purity[:, result.sizes == size].mean(axis=1)
        exact = float(expected_fixed_weight_purity(n, w, d_a))
        z = (float(means.mean()) - exact) / (float(means.std(ddof=1)) / math.sqrt(means.size))
        worst = max(worst, abs(z))
        haar = (d_a + d_b) / (d_a * d_b + 1)
        details.append(
            f"|A|={size}: mean {means.mean():.6f}, exact {exact:.6f}, Haar {haar:.6f}, "
            f"z {z:+.2f}"
        )
    report(
        "11 fixed-weight expected purity",
        worst <= 4.0,
        "; ".join(details) + f"; tol 4 standard errors over {means.size} states",
    )


def test_criterion_04_partial_trace_oracle(oracle_instances):
    worst = 0.0
    for psi, mask in oracle_instances:
        fast = reduced_density(psi, mask).entries
        slow = reduced_density_bruteforce(psi.amps, psi.shape.dims, mask.positions)
        worst = max(worst, float(np.abs(fast - slow).max()))
    report(
        "4 partial-trace oracle",
        worst < 1e-12,
        f"max elementwise gap = {worst:.3e} over {len(oracle_instances)} instances, tol 1e-12",
    )


def test_criterion_05_purity_dual_path(oracle_instances):
    worst = 0.0
    for psi, mask in oracle_instances:
        gram = purity(psi, mask)
        summed = purity_from_density(reduced_density(psi, mask).entries)
        worst = max(worst, abs(gram - summed))
    report(
        "5 purity dual path",
        worst < 1e-12,
        f"max |gram - sum formula| = {worst:.3e} over {len(oracle_instances)} instances, tol 1e-12",
    )


def test_criterion_06_diagonalization():
    n = 24
    worst_unitary = 0.0
    worst_offdiag = 0.0
    worst_phase = 0.0
    for seed in range(50):
        g = random_permutation(n, seed=seed)
        basis = energy_basis(g)
        f = energy_matrix(g.images)
        worst_unitary = max(
            worst_unitary, float(np.abs(f @ f.conj().T - np.eye(n)).max())
        )
        diag = f @ permutation_matrix(g.images) @ f.conj().T
        off = diag - np.diag(np.diag(diag))
        worst_offdiag = max(worst_offdiag, float(np.abs(off).max()))
        worst_phase = max(
            worst_phase, float(np.abs(np.diag(diag) - basis.eigenvalues()).max())
        )
    ok = worst_unitary < 1e-12 and worst_offdiag < 1e-10 and worst_phase < 1e-10
    report(
        "6 diagonalization",
        ok,
        f"unitarity {worst_unitary:.2e} (tol 1e-12), off-diagonal {worst_offdiag:.2e} "
        f"(tol 1e-10), eigenphase {worst_phase:.2e} (tol 1e-10), 50 permutations n=24",
    )


def test_criterion_07_cycle_census():
    census = run_cycle_census(20, samples=100_000, seed=424242)
    checked = [s for s in census.stats if s.length <= 8]
    worst = max(
        abs(s.mean - s.expected) / s.std_error for s in checked if s.std_error > 0
    )
    ok = not any(s.flagged for s in checked)
    report(
        "7 cycle census",
        ok,
        f"max |mean - 1/l| = {worst:.2f} standard errors over l=1..8, "
        f"{census.samples} samples of n=20, tol 3",
    )


def test_criterion_08_structural_identities():
    failures = []

    # overlap complement symmetries, bit exact
    rng = random.Random(88)
    for _ in range(200):
        q = random_ontic(16, rng=rng)
        r = random_ontic(16, rng=rng)
        s = overlap_standard(q, r)
        if not (
            overlap_standard(complement(q), r) == -s
            and overlap_standard(q, complement(r)) == -s
            and overlap_standard(complement(q), complement(r)) == s
        ):
            failures.append("overlap symmetry")
            break

    # complement duality of the rank-one matrix
    shape4 = FactorizationShape((2, 2))
    for bits in range(1, 15):
        q = OnticVector(bits, 4)
        a = state_from_ontic(q, shape4).amps
        b = state_from_ontic(complement(q), shape4).amps
        gap = np.abs(np.outer(a, a.conj()) - np.outer(b, b.conj())).max()
        if gap > 1e-14:
            failures.append(f"complement duality gap {gap:.1e}")
            break

    # projected-norm identity in exact rational arithmetic
    for n in (5, 12):
        for bits in range(1, (1 << n) - 1, max(1, (1 << n) // 37)):
            q = OnticVector(bits, n)
            k = Fraction(q.bits.bit_count())
            alpha = k / n
            total = sum((Fraction(int(b)) - alpha) ** 2 for b in q.to_array())
            if total != k * (n - k) / n:
                failures.append("projected norm identity")
                break

    # projector idempotence and kernel
    rng_np = np.random.default_rng(9)
    v = rng_np.normal(size=12) + 1j * rng_np.normal(size=12)
    once = project_standard(v)
    if np.abs(project_standard(once) - once).max() > 1e-14:
        failures.append("projector idempotence")
    if np.abs(project_standard(np.ones(12))).max() != 0.0:
        failures.append("projector kernel")

    # state inner products equal the integer-arithmetic overlap
    shape16 = FactorizationShape((2, 2, 2, 2))
    worst_inner = 0.0
    for _ in range(100):
        q = random_ontic(16, rng=rng)
        r = random_ontic(16, rng=rng)
        lhs = float(
            np.vdot(
                state_from_ontic(q, shape16).amps, state_from_ontic(r, shape16).amps
            ).real
        )
        worst_inner = max(worst_inner, abs(lhs - overlap_standard(q, r)))
    if worst_inner > 1e-12:
        failures.append(f"inner product gap {worst_inner:.1e}")

    report(
        "8 structural identities",
        not failures,
        "overlap symmetries exact, duality <= 1e-14, rational norm identity, "
        f"projector, inner-product gap {worst_inner:.1e} <= 1e-12"
        if not failures
        else "; ".join(failures),
    )


def test_criterion_09_entropy_functionals():
    failures = []
    rng = np.random.default_rng(10)
    alphas = [0.0, 0.5, 2.0, 3.0, 50.0]

    for _ in range(100):
        vals = Spectrum(rng.dirichlet(np.ones(8)))
        series = [renyi_entropy(vals, a) for a in alphas]
        if any(lo > hi + 1e-10 for lo, hi in zip(series[1:], series[:-1])):
            failures.append("Renyi monotonicity")
            break
        if von_neumann_entropy(vals) < renyi_entropy(vals, 2.0) - 1e-10:
            failures.append("von Neumann >= collision")
            break

    worst_uniform = 0.0
    for d in (2, 3, 4, 8, 16):
        spec = Spectrum(np.full(d, 1.0 / d))
        for a in alphas:
            worst_uniform = max(
                worst_uniform, abs(renyi_entropy(spec, a) - math.log2(d))
            )
        worst_uniform = max(
            worst_uniform, abs(von_neumann_entropy(spec) - math.log2(d))
        )
    if worst_uniform > 1e-12:
        failures.append(f"uniform spectrum gap {worst_uniform:.1e}")

    report(
        "9 entropy functionals",
        not failures,
        f"monotone on 100 spectra, uniform gap {worst_uniform:.1e} <= 1e-12, "
        "S1 >= S2" if not failures else "; ".join(failures),
    )


def test_criterion_10_csv_determinism():
    config = SweepConfig(
        shape=FactorizationShape.parse("2^10"), num_states=3, seed=31415
    )
    first = "".join(sweep_csv(run_sweep(config), config)).encode()
    second = "".join(sweep_csv(run_sweep(config), config)).encode()
    report(
        "10 CSV determinism",
        first == second,
        f"two runs, {len(first)} bytes, byte-identical={first == second}",
    )


def test_full_sweep_runtime_budget(full_sweep):
    result, elapsed = full_sweep
    assert result.purity.shape == result.s2_bits.shape == (10, 4094)
    start = time.perf_counter()
    rerun = run_sweep(FULL_CONFIG)
    elapsed_rerun = time.perf_counter() - start
    # a full-scale rerun must reproduce the output exactly
    for field in ("masks", "sizes", "purity", "s2_bits"):
        assert np.array_equal(getattr(rerun, field), getattr(result, field)), field
    ok = elapsed < 60.0 and elapsed_rerun < 30.0
    report(
        "perf smoke",
        ok,
        f"full sweep (10 states x 4094 subsets at N=4096) in {elapsed:.1f}s "
        f"(ceiling 60s), rerun in {elapsed_rerun:.1f}s (ceiling 30s)",
    )
