"""Tests for the sweep driver, time series, and cycle census."""

import dataclasses
import itertools
import math
import random
import tracemalloc
import types

import numpy as np
import pytest

import onticsim.experiment
import onticsim.reduction
from oracle import apply_permutation, exact_purity, oracle_purities
from onticsim.bitstate import OnticVector, popcount, random_ontic
from onticsim.cli import _write_output, main
from onticsim.entropy import collision_entropy
from onticsim.errors import ConfigError, EmptyInput, NumericViolation
from onticsim.experiment import (
    BATCH_POINTS,
    CSV_BLOCK_ROWS,
    CycleCensus,
    CycleCountStat,
    SweepConfig,
    SweepResult,
    _enumerate_masks,
    _mask_of_rank,
    plot_data_text,
    run_cycle_census,
    run_sweep,
    run_time_series,
    summarize_by_size,
    sweep_csv,
)
from onticsim.indexing import FactorizationShape, SubsystemMask
from onticsim.permrep import (
    Permutation,
    _random_rows,
    _stream_base,
    energy_basis,
    random_permutation,
)
from onticsim.reduction import Plan, purity
from onticsim.states import PureState, state_from_ontic


def bs(text):
    return OnticVector(int(text, 2), len(text))


def sweep_stack(config):
    """The (S, N) amplitude stack a seeded sweep draws, rebuilt from its seed
    with the public state constructors."""
    rng = random.Random(config.seed)
    states = [
        state_from_ontic(
            random_ontic(config.shape.total, rng=rng, weight=config.state_weight()),
            config.shape,
        )
        for _ in range(config.num_states)
    ]
    if config.basis == "energy":
        basis = energy_basis(config.generator)
        states = [basis.transform(psi) for psi in states]
    return np.stack([psi.amps for psi in states])


def enumeration_order(mask):
    """The sweep enumerates masks by (size, value)."""
    return bin(mask).count("1"), mask


def columns(result):
    """Mask value -> its column in the result's arrays."""
    return {m: j for j, m in enumerate(result.masks.tolist())}


def assert_same_result(a, b):
    for field in ("masks", "sizes", "purity", "s2_bits"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def copied_sides(result, k):
    """(mask, complement) for every complement pair in the result, with the
    complement the side the sweep enumerates second and so copies."""
    full = (1 << k) - 1
    masks = set(result.masks.tolist())
    return sorted(
        (m, full ^ m)
        for m in masks
        if full ^ m in masks and enumeration_order(m) < enumeration_order(full ^ m)
    )


def node_of(mask, shape):
    """The side of mask's complement pair the sweep kernel computes: the
    smaller dimension, then fewer positions, then the side holding
    position 0."""
    comp = ((1 << shape.k) - 1) ^ mask
    return min(
        mask, comp,
        key=lambda m: (SubsystemMask(m, shape).dim, bin(m).count("1"), not m & 1),
    )


def dim_of(mask, shape):
    return math.prod(d for p, d in enumerate(shape.dims) if mask >> p & 1)


def lattice_roots(nodes):
    """The nodes whose parent m | (m + 1) is no node."""
    return [m for m in nodes if m | (m + 1) not in nodes]


def brute_force_hubs(shape, nodes):
    """Hub -> the set of roots it serves, by a search over every subsystem
    at each step: of the masks outside the nodes whose dimension is within
    the cap and at most the sum of their unserved roots' (those one
    position smaller), the one holding the most roots, the smaller mask on
    a tie, until none is left."""
    unserved = set(lattice_roots(nodes))
    cap = onticsim.reduction.GRAM_DIM_CAP
    hubs = {}
    while True:
        best = None
        for hub in range(1, 1 << shape.k):
            if hub in nodes or dim_of(hub, shape) > cap:
                continue
            held = {r for r in unserved if r & hub == r and bin(hub ^ r).count("1") == 1}
            if held and dim_of(hub, shape) <= sum(dim_of(r, shape) for r in held):
                if best is None or len(held) > len(best[1]):
                    best = (hub, held)
        if best is None:
            return hubs
        hubs[best[0]] = best[1]
        unserved -= best[1]


def spy_runs(monkeypatch):
    """Record each run of a ``Plan`` as its stack's (shape, dtype), in call
    order."""
    runs = []
    run = Plan.run

    def spy(self, stack, *buffers):
        runs.append((stack.shape, stack.dtype))
        return run(self, stack, *buffers)

    monkeypatch.setattr(Plan, "run", spy)
    return runs


def count_plans(monkeypatch):
    """Record each ``Plan`` made as the number of masks it plans."""
    plans = []
    init = Plan.__init__

    def spy(self, shape, masks):
        plans.append(len(masks))
        init(self, shape, masks)

    monkeypatch.setattr(Plan, "__init__", spy)
    return plans


def spy_lattice(monkeypatch):
    """Record the sweep kernel's Gram products (of hubs and of roots no hub
    serves) as (stack shape, dtype, mask), in call order."""
    grams = []
    gram_stack = onticsim.reduction._gram_stack

    def gram_spy(stack, mask, *buffers):
        grams.append((stack.shape, stack.dtype, mask.mask))
        return gram_stack(stack, mask, *buffers)

    monkeypatch.setattr(onticsim.reduction, "_gram_stack", gram_spy)
    return grams


def walk_of(shape, masks):
    """The steps (mask, depth, column) of the sweep's walk, each with the
    mask of the step it is traced out of, the last earlier step one depth
    shallower (None at depth 0)."""
    last, steps = {}, []
    for mask, depth, column in Plan(shape, masks).walk.tolist():
        steps.append((mask, depth, column, last.get(depth - 1)))
        last[depth] = mask
    return steps


def written_nodes(shape, masks):
    """The masks whose purities the walk writes, in visit order."""
    return [m for m, _, column, _ in walk_of(shape, masks) if column >= 0]


def assert_complements_match_own_layout(result, config, tol):
    """Both columns of each complement pair against the oracle purity of
    the copied side, so every copy the sweep makes is checked against a
    purity computed by code it does not share."""
    stack = sweep_stack(config)
    column = columns(result)
    pairs = copied_sides(result, config.shape.k)
    assert pairs
    for mask, comp in pairs:
        direct = oracle_purities(stack, config.shape.dims, comp)
        for sid, p in enumerate(direct.tolist()):
            own = collision_entropy(p)
            assert abs(result.s2_bits[sid, column[mask]] - own) < tol
            assert abs(result.s2_bits[sid, column[comp]] - own) < tol
    return pairs


class TestSweepConfig:
    def test_validates_sizes(self):
        shape = FactorizationShape((2, 2, 2))
        with pytest.raises(ConfigError):
            SweepConfig(shape=shape, subset_sizes=(3,)).validate()
        with pytest.raises(ConfigError):
            SweepConfig(shape=shape, subset_sizes=(0,)).validate()
        with pytest.raises(ConfigError):
            SweepConfig(shape=shape, subset_sizes=()).validate()

    def test_validates_explicit_vectors(self):
        shape = FactorizationShape((2, 2))
        with pytest.raises(ConfigError):
            SweepConfig(shape=shape, ontic_vectors=(bs("101"),)).validate()

    def test_rejects_single_factor(self):
        with pytest.raises(ConfigError):
            SweepConfig(shape=FactorizationShape((4,))).validate()

    def test_rejects_negative_seed(self):
        # random.Random would seed with the absolute value
        with pytest.raises(ConfigError):
            SweepConfig(shape=FactorizationShape((2, 2)), seed=-3).validate()

    def test_memory_budget(self, monkeypatch):
        monkeypatch.setattr(onticsim.reduction, "GRAM_DIM_CAP", 16)
        shape = FactorizationShape.parse("2^12")
        config = SweepConfig(shape=shape, num_states=1)
        with pytest.raises(ConfigError):
            run_sweep(config)


    def test_memory_budget_names_the_first_mask_over_it(self, monkeypatch):
        monkeypatch.setattr(onticsim.reduction, "GRAM_DIM_CAP", 16)
        grams = spy_lattice(monkeypatch)
        shape = FactorizationShape((2, 3, 5, 7, 2, 3))
        for mask in (
            _mask_of_rank(shape.k, a, rank)
            for a in range(1, shape.k)
            for rank in range(math.comb(shape.k, a))
        ):
            dim = math.prod(d for p, d in enumerate(shape.dims) if mask >> p & 1)
            if min(dim, shape.total // dim) > 16:
                break
        message = (
            f"mask 0b{mask:b} needs a {min(dim, shape.total // dim)}-dim Gram matrix, "
            "over the budget 16"
        )
        assert message == "mask 0b1010 needs a 21-dim Gram matrix, over the budget 16"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_sweep(SweepConfig(shape=shape, num_states=1))
        # the check runs before any Gram product is formed
        assert grams == []

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_memory_budget_builds_no_state(self, monkeypatch, basis):
        # the masks are planned before the stack is built, so a mask over
        # the cap costs no state
        monkeypatch.setattr(onticsim.reduction, "GRAM_DIM_CAP", 16)
        built = []
        monkeypatch.setattr(
            onticsim.experiment, "state_from_ontic", lambda q, shape: built.append(q)
        )
        shape = FactorizationShape.parse("2^12")
        generator = random_permutation(shape.total, seed=1) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=2, generator=generator)
        with pytest.raises(ConfigError, match="Gram matrix, over the budget 16$"):
            run_sweep(config)
        assert built == []


class TestRunSweep:
    def test_record_count_all_proper(self):
        shape = FactorizationShape((2, 2, 2, 2))
        result = run_sweep(SweepConfig(shape=shape, num_states=3, seed=1))
        assert result.masks.shape == result.sizes.shape == ((1 << 4) - 2,)
        assert result.purity.shape == result.s2_bits.shape == (3, (1 << 4) - 2)

    def test_product_state_singletons_are_zero(self):
        # 1001 on (2,2) is a product state: both one-factor entropies vanish
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, ontic_vectors=(bs("1001"),))
        result = run_sweep(config)
        singles = result.s2_bits[:, result.sizes == 1]
        assert singles.shape == (1, 2)
        assert np.all(np.abs(singles) < 1e-12)

    def test_complement_pairs_match(self):
        shape = FactorizationShape((2, 3, 2))
        config = SweepConfig(shape=shape, num_states=4, seed=2)
        result = run_sweep(config)
        pairs = assert_complements_match_own_layout(result, config, 1e-11)
        assert len(pairs) == 3

    def test_record_ordering(self):
        shape = FactorizationShape((2, 2, 2))
        result = run_sweep(SweepConfig(shape=shape, num_states=2, seed=3))
        keys = list(zip(result.sizes.tolist(), result.masks.tolist()))
        assert keys == sorted(keys)
        assert [a for a, m in keys] == [bin(m).count("1") for _, m in keys]
        assert result.purity.shape == (2, len(keys))

    def test_deterministic(self):
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=3, seed=4)
        assert_same_result(run_sweep(config), run_sweep(config))

    def test_subset_sizes_policy(self):
        shape = FactorizationShape((2,) * 5)
        result = run_sweep(
            SweepConfig(shape=shape, num_states=2, seed=6, subset_sizes=(1, 3))
        )
        assert set(result.sizes.tolist()) == {1, 3}
        assert result.purity.shape == (2, 5 + 10)

    def test_sampled_policy_is_deterministic_subset(self):
        shape = FactorizationShape((2,) * 8)
        config = SweepConfig(shape=shape, num_states=2, seed=7, samples_per_size=3)
        result = run_sweep(config)
        per_size = {}
        for mask, size in zip(result.masks.tolist(), result.sizes.tolist()):
            per_size.setdefault(size, set()).add(mask)
        for size, masks in per_size.items():
            assert len(masks) == min(3, math.comb(8, size))
        assert_same_result(run_sweep(config), result)

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_sampled_draw_matches_materialized_sample(self, seed):
        # reference: sample from the sorted list of all C(K, a) masks;
        # s = None is the full enumeration
        for k in range(2, 13):
            shape = FactorizationShape((2,) * k)
            for s in (None, 1, 3, 50):
                config = SweepConfig(shape=shape, seed=seed, samples_per_size=s)
                rng, ref_rng = random.Random(seed), random.Random(seed)
                drawn = _enumerate_masks(config, rng)
                expected = []
                for a in range(1, k):
                    masks = sorted(
                        sum(1 << p for p in combo)
                        for combo in itertools.combinations(range(k), a)
                    )
                    if s is not None and s < len(masks):
                        masks = sorted(ref_rng.sample(masks, s))
                    expected += masks
                assert drawn == expected
                assert rng.getstate() == ref_rng.getstate()

    def test_mask_of_rank_enumerates_in_value_order(self):
        for k in range(1, 11):
            for a in range(k + 1):
                masks = sorted(
                    sum(1 << p for p in combo)
                    for combo in itertools.combinations(range(k), a)
                )
                assert [_mask_of_rank(k, a, r) for r in range(len(masks))] == masks

    @pytest.mark.parametrize(
        "dims", [(2,) * k for k in range(1, 15)] + [(2, 3) * 4], ids=lambda d: "x".join(map(str, d))
    )
    def test_stepped_masks_equal_unranked(self, dims):
        shape = FactorizationShape(dims)
        masks = _enumerate_masks(SweepConfig(shape=shape), random.Random(0))
        unranked = [
            _mask_of_rank(shape.k, a, rank)
            for a in range(1, shape.k)
            for rank in range(math.comb(shape.k, a))
        ]
        assert masks == unranked

    def test_density_controls_popcount(self):
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=5, seed=8, density=0.25)
        result = run_sweep(config)
        assert result.purity.shape == (5, 62)  # sampling law: metadata below
        assert config.state_weight() == 16
        assert config.sampling_label() == "fixed-weight=16"

    def test_energy_basis_keeps_schmidt_symmetry(self):
        shape = FactorizationShape((2,) * 5)
        g = random_permutation(32, seed=9)
        config = SweepConfig(
            shape=shape, num_states=3, seed=9, generator=g
        )
        result = run_sweep(config)
        pairs = assert_complements_match_own_layout(result, config, 1e-11)
        assert len(pairs) == 15

    def test_identity_generator_energy_equals_ontic(self):
        shape = FactorizationShape((2,) * 4)
        ontic = run_sweep(SweepConfig(shape=shape, num_states=2, seed=10))
        energy = run_sweep(
            SweepConfig(
                shape=shape,
                num_states=2,
                seed=10,
                generator=Permutation(np.arange(16)),
            )
        )
        assert np.array_equal(ontic.masks, energy.masks)
        assert ontic.purity.shape == energy.purity.shape == (2, 14)
        assert np.all(np.abs(ontic.purity - energy.purity) <= 1e-12)

    def test_complex_ontic_amplitudes_kept_complex(self, monkeypatch):
        # a unit phase keeps the norm and every purity; the sweep hands the
        # complex amplitudes to the kernel as they are
        config = SweepConfig(shape=FactorizationShape((2, 2, 2)), num_states=3, seed=4)
        real = run_sweep(config)

        def rotated(q, shape):
            return PureState(1j * state_from_ontic(q, shape).amps, shape)

        runs = spy_runs(monkeypatch)
        monkeypatch.setattr(onticsim.experiment, "state_from_ontic", rotated)
        result = run_sweep(config)
        assert [dtype for _, dtype in runs] == [np.complex128]
        assert np.array_equal(result.masks, real.masks)
        assert result.purity.shape == real.purity.shape
        assert np.all(np.abs(real.purity - result.purity) < 1e-12)

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_one_stacked_purity_call_per_complement_pair(self, monkeypatch, basis):
        grams = spy_lattice(monkeypatch)
        shape = FactorizationShape((2, 2, 2))
        generator = Permutation.from_cycles(8, [(0, 3, 5)]) if basis == "energy" else None
        result = run_sweep(SweepConfig(shape=shape, num_states=3, seed=4, generator=generator))
        dtype = np.float64 if basis == "ontic" else np.complex128
        # three pairs, each a root: 1 and 2 are traced out of the hub 3,
        # formed by one Gram product of the whole stack, and 4 by its own
        assert grams == [((3, 8), dtype, m) for m in (3, 4)]
        assert walk_of(shape, result.masks.tolist()) == [
            (3, 0, -1, None), (1, 1, 0, 3), (2, 1, 1, 3), (4, 0, 2, None)
        ]

    @pytest.mark.parametrize(
        "dims, sizes, nodes, roots",
        [
            # 1, 2 and 4, 8 are traced out of the roots 3, 5 and 9; 3 and 5
            # out of the hub 7
            ((2,) * 4, None, [1, 2, 4, 8, 3, 5, 9], [3, 5, 9]),
            # no size-2 mask is a node, so every singleton is a root
            ((2,) * 3, (1,), [1, 2, 4], [1, 2, 4]),
            ((2,) * 3, (1, 2), [1, 2, 4], [1, 2, 4]),
            # 4 and 3 tie at dimension 4: the side with fewer positions
            ((2, 2, 4), None, [1, 2, 4], [1, 2, 4]),
            # 3 (dimension 4) is the smaller side of 4 (dimension 5)
            ((2, 2, 5), None, [1, 2, 3], [3]),
        ],
    )
    def test_kernel_computes_each_pair_node(
        self, monkeypatch, dims, sizes, nodes, roots
    ):
        grams = spy_lattice(monkeypatch)
        shape = FactorizationShape(dims)
        result = run_sweep(
            SweepConfig(shape=shape, num_states=2, seed=5, subset_sizes=sizes)
        )
        written = written_nodes(shape, result.masks.tolist())
        assert lattice_roots(nodes) == roots
        # a Gram product for each hub and each root no hub serves
        hubs = brute_force_hubs(shape, set(nodes))
        served = set().union(*hubs.values())
        expected = set(hubs) | {r for r in roots if r not in served}
        masks = [m for _, _, m in grams]
        assert len(masks) == len(expected) and set(masks) == expected
        assert sorted(written) == sorted(nodes)
        assert sorted(written) == sorted({node_of(m, shape) for m in result.masks.tolist()})
        assert result.purity.shape == (2, result.masks.size)

    @pytest.mark.parametrize("k, states, count", [(12, 2, 462), (14, 1, 1716)])
    def test_roots_are_half_size_masks_holding_position_0(
        self, monkeypatch, k, states, count
    ):
        grams = spy_lattice(monkeypatch)
        shape = FactorizationShape((2,) * k)
        result = run_sweep(SweepConfig(shape=shape, num_states=states, seed=2))
        written = written_nodes(shape, result.masks.tolist())
        assert len(written) == len(set(written)) == (1 << k - 1) - 1
        roots = lattice_roots(set(written))
        assert len(roots) == count == math.comb(k - 1, k // 2 - 1)
        assert all(m & 1 and bin(m).count("1") == k // 2 for m in roots)
        # the Gram products: 110 at k = 12 and 346 at k = 14, each a hub
        # one position larger than the roots it serves, or a root no hub
        # serves, which no hub holds
        masks = [m for _, _, m in grams]
        assert len(masks) == len(set(masks)) == {12: 110, 14: 346}[k]
        own = [m for m in masks if m in roots]
        hubs = [m for m in masks if m not in roots]
        assert all(h & 1 and bin(h).count("1") == k // 2 + 1 for h in hubs)
        held = {h ^ (1 << p) for h in hubs for p in range(1, k) if h >> p & 1}
        assert held.isdisjoint(own) and held | set(own) == set(roots)

    def test_sampled_sweep_computes_each_drawn_pair_once(self, monkeypatch):
        grams = spy_lattice(monkeypatch)
        runs = spy_runs(monkeypatch)
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=2, seed=3, samples_per_size=4)
        result = run_sweep(config)
        drawn = result.masks.tolist()
        written = written_nodes(shape, drawn)
        full = (1 << 6) - 1
        unpaired = [m for m in drawn if full ^ m not in drawn]
        pairs = copied_sides(result, 6)
        # the draw has both kinds: masks with and without a drawn partner
        assert unpaired and pairs
        assert sorted(written) == sorted({node_of(m, shape) for m in drawn})
        assert len(written) == len(unpaired) + len(pairs)
        # one run of one plan over the whole stack
        assert grams and runs == [((2, 64), np.dtype(np.float64))]

    @pytest.mark.parametrize("dims", [(2, 3, 2, 3, 2), (2,) * 6])
    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_rows_match_direct_purity(self, dims, basis):
        shape = FactorizationShape(dims)
        generator = random_permutation(shape.total, seed=17) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=3, seed=17, generator=generator)
        result = run_sweep(config)
        stack = sweep_stack(config)
        assert result.purity.shape == (3, (1 << shape.k) - 2)
        for j, mask in enumerate(result.masks.tolist()):
            direct = oracle_purities(stack, dims, mask)
            for sid in range(3):
                assert abs(result.purity[sid, j] - direct[sid]) < 1e-12

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_one_entropy_call_per_sweep(self, monkeypatch, basis):
        calls = []

        def counted(p):
            calls.append(np.shape(p))
            return collision_entropy(p)

        monkeypatch.setattr(onticsim.experiment, "collision_entropy", counted)
        shape = FactorizationShape((2, 3, 2))
        generator = Permutation.from_cycles(12, [(0, 3, 5)]) if basis == "energy" else None
        result = run_sweep(SweepConfig(shape=shape, num_states=3, seed=4, generator=generator))
        assert calls == [(3, 6)]
        assert np.array_equal(result.s2_bits, collision_entropy(result.purity))

    def test_records_satisfy_bounds(self):
        shape = FactorizationShape((2,) * 6)
        result = run_sweep(SweepConfig(shape=shape, num_states=3, seed=11))
        assert result.purity.shape == (3, 62)
        for ps, s2s in zip(result.purity.tolist(), result.s2_bits.tolist()):
            for size, p, s2 in zip(result.sizes.tolist(), ps, s2s):
                cap = min(size, 6 - size) * 1.0
                assert -1e-12 <= s2 <= cap + 1e-9
                assert s2 == pytest.approx(-math.log2(p), abs=1e-12)


class TestLattice:
    """The sweep kernel, which traces most subsystems out of a larger one,
    against an oracle that shares no code with it."""

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    @pytest.mark.parametrize(
        "text, sizes, samples",
        [
            ("2x3x2x3x2", None, None),
            ("3^5", None, None),
            ("2^6", None, None),
            ("2^7", None, None),
            ("2^8", None, None),
            ("2^9", None, None),
            ("2^10", None, None),
            ("2x3x2x3x2x3x2x3", None, None),
            ("2x2x4", None, None),
            ("2x2x2x100", None, None),
            # the size-7 masks are computed on their size-3 complements,
            # which the sweep does not enumerate
            ("2^10", (4, 7), None),
            ("2^10", (1, 2, 3, 5, 8), 6),
            ("2x3x2x3x2x3x2x3", (2, 5, 6), 4),
        ],
    )
    def test_every_row_matches_direct_purity(self, text, sizes, samples, basis):
        shape = FactorizationShape.parse(text)
        generator = random_permutation(shape.total, seed=23) if basis == "energy" else None
        config = SweepConfig(
            shape=shape, num_states=3, seed=23, generator=generator,
            subset_sizes=sizes, samples_per_size=samples,
        )
        result = run_sweep(config)
        stack = sweep_stack(config)
        assert stack.dtype == (np.float64 if basis == "ontic" else np.complex128)
        for j, mask in enumerate(result.masks.tolist()):
            direct = oracle_purities(stack, shape.dims, mask)
            assert np.abs(result.purity[:, j] - direct).max() < 1e-12, mask

    @pytest.mark.parametrize(
        "text, basis", [("2^10", "ontic"), ("2x3x2x3x2x3", "ontic"), ("2^10", "energy")]
    )
    def test_roots_equal_purity_bit_for_bit(self, monkeypatch, text, basis):
        # a node formed by its own Gram product, a root no hub serves, comes
        # from the same Gram former and reducer as its one-mask plan, which
        # purity runs, so the two agree to the last bit
        grams = spy_lattice(monkeypatch)
        shape = FactorizationShape.parse(text)
        generator = random_permutation(shape.total, seed=23) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=3, seed=23, generator=generator)
        result = run_sweep(config)
        stack = sweep_stack(config)
        nodes = {node_of(m, shape) for m in result.masks.tolist()}
        own = [m for _, _, m in grams if m in nodes]
        assert own and set(own) <= set(lattice_roots(nodes))
        column = columns(result)
        for root in own:
            direct = Plan(shape, [root]).run(stack)[:, 0]
            assert np.array_equal(result.purity[:, column[root]], direct), root

    @pytest.mark.parametrize("scale", [10.0, 0.1, float("nan")])
    def test_corrupted_root_names_its_mask(self, monkeypatch, scale):
        gram_stack = onticsim.reduction._gram_stack
        shape = FactorizationShape((2, 3, 2, 3, 2, 3))
        # positions 1 and 3: a root no hub serves, formed by its own Gram
        root = 0b1010
        steps = walk_of(shape, list(range(1, (1 << 6) - 1)))
        assert [(d, c >= 0) for m, d, c, _ in steps if m == root] == [(0, True)]

        def corrupted(stack, mask, *buffers):
            rho = gram_stack(stack, mask, *buffers)
            return rho * scale if mask.mask == root else rho

        monkeypatch.setattr(onticsim.reduction, "_gram_stack", corrupted)
        config = SweepConfig(shape=shape, num_states=2, seed=8)
        with pytest.raises(NumericViolation, match=f"mask 0b{root:b},"):
            run_sweep(config)

    @pytest.mark.parametrize("scale", [10.0, 0.1, float("nan")])
    def test_corrupted_hub_names_the_first_mask_it_serves(self, monkeypatch, scale):
        # a hub is no sweep mask and is not range-checked itself; its
        # matrix reaches the range check through the roots it serves
        gram_stack = onticsim.reduction._gram_stack
        shape = FactorizationShape((2,) * 6)
        hub = 0b1111
        steps = walk_of(shape, list(range(1, (1 << 6) - 1)))
        served = [m for m, _, _, up in steps if up == hub]
        assert served == [0b111, 0b1011, 0b1101]

        def corrupted(stack, mask, *buffers):
            rho = gram_stack(stack, mask, *buffers)
            return rho * scale if mask.mask == hub else rho

        monkeypatch.setattr(onticsim.reduction, "_gram_stack", corrupted)
        config = SweepConfig(shape=shape, num_states=2, seed=8)
        with pytest.raises(NumericViolation, match=f"mask 0b{served[0]:b},"):
            run_sweep(config)

    def test_every_node_range_checked_once_in_visit_order(self, monkeypatch):
        # every Gram product corrupted: the message names the first node the
        # walk writes, from one range check over all the written nodes
        gram_stack = onticsim.reduction._gram_stack
        check_range = onticsim.reduction._check_range
        checks = []

        def spy(purities, masks, dims):
            checks.append((purities.shape, masks.tolist(), dims.tolist()))
            return check_range(purities, masks, dims)

        monkeypatch.setattr(
            onticsim.reduction,
            "_gram_stack",
            lambda stack, mask, *buffers: gram_stack(stack, mask, *buffers) * 10.0,
        )
        monkeypatch.setattr(onticsim.reduction, "_check_range", spy)
        shape = FactorizationShape.parse("2x3x2x3x2")
        config = SweepConfig(shape=shape, num_states=2, seed=8)
        nodes = written_nodes(shape, _enumerate_masks(config, random.Random(8)))
        with pytest.raises(NumericViolation, match=f"mask 0b{nodes[0]:b}, state row 0,"):
            run_sweep(config)
        assert checks == [((2, len(nodes)), nodes, [dim_of(m, shape) for m in nodes])]

    @pytest.mark.parametrize(
        "text, samples",
        [
            ("2^6", None),
            ("2x3x2x3", None),
            ("3^4", None),
            ("2x2x5", None),
            ("2x3x2x3x2x3", None),
            ("2^8", 5),
            ("2x3x2x3x2x3", 4),
        ],
    )
    def test_plan_matches_brute_force(self, text, samples):
        shape = FactorizationShape.parse(text)
        config = SweepConfig(shape=shape, seed=29, samples_per_size=samples)
        masks = _enumerate_masks(config, random.Random(29))
        plan = Plan(shape, masks)
        steps = walk_of(shape, masks)
        nodes = {node_of(m, shape) for m in masks}
        # each pair computed once, on its node, in the column of the side
        # of the pair enumerated first
        column = {m: c for m, _, c, _ in steps if c >= 0}
        assert len(column) == sum(c >= 0 for _, _, c, _ in steps)
        assert set(column) == nodes
        full = (1 << shape.k) - 1
        for node, c in column.items():
            assert c == min(j for j, m in enumerate(masks) if m in (node, full ^ node))
        assert [plan.nodes[i] for i in plan.index] == [node_of(m, shape) for m in masks]
        hubs = {}
        for mask, depth, c, up in steps:
            if c < 0:
                # a hub: a Gram product of no node, never written
                assert depth == 0 and mask not in nodes
            elif depth == 0:
                assert mask in lattice_roots(nodes)
            else:
                # traced out of the last earlier step one depth shallower,
                # one position larger: the lattice parent, or a hub
                assert up is not None and up & mask == mask
                assert bin(up ^ mask).count("1") == 1
                if up in nodes:
                    assert up == mask | (mask + 1)
                else:
                    hubs.setdefault(up, set()).add(mask)
        assert len(hubs) == sum(c < 0 for _, _, c, _ in steps)
        served = [r for held in hubs.values() for r in held]
        assert set(served) <= set(lattice_roots(nodes))
        for hub, held in hubs.items():
            assert all(r & hub == r and bin(hub ^ r).count("1") == 1 for r in held)
            assert dim_of(hub, shape) <= sum(dim_of(r, shape) for r in held)
            assert dim_of(hub, shape) <= onticsim.reduction.GRAM_DIM_CAP
        assert hubs == brute_force_hubs(shape, nodes)

    @pytest.mark.parametrize("text", ["2^6", "2x3x2x3x2x3"])
    def test_cap_below_every_hub_forms_none(self, monkeypatch, text):
        shape = FactorizationShape.parse(text)
        masks = list(range(1, (1 << shape.k) - 1))
        steps = walk_of(shape, masks)
        hubs = {m for m, _, c, _ in steps if c < 0}
        assert hubs
        cap = min(dim_of(h, shape) for h in hubs) - 1
        assert cap >= max(dim_of(m, shape) for m, _, c, _ in steps if c >= 0)
        monkeypatch.setattr(onticsim.reduction, "GRAM_DIM_CAP", cap)
        grams = spy_lattice(monkeypatch)
        config = SweepConfig(shape=shape, num_states=3, seed=31)
        result = run_sweep(config)
        nodes = {node_of(m, shape) for m in masks}
        assert sorted(m for _, _, m in grams) == sorted(lattice_roots(nodes))
        stack = sweep_stack(config)
        for j, mask in enumerate(result.masks.tolist()):
            direct = oracle_purities(stack, shape.dims, mask)
            assert np.abs(result.purity[:, j] - direct).max() < 1e-12, mask

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_hub_path_at_benchmark_scale(self, basis):
        # every root a hub serves, and a seeded sample of the other masks,
        # of a flagship-sized sweep against the oracle
        shape = FactorizationShape.parse("2^12")
        generator = random_permutation(shape.total, seed=37) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=3, seed=37, generator=generator)
        result = run_sweep(config)
        stack = sweep_stack(config)
        masks = result.masks.tolist()
        steps = walk_of(shape, masks)
        hubs = {m for m, _, c, _ in steps if c < 0}
        served = [m for m, _, _, up in steps if up in hubs]
        assert len(served) > 300
        others = random.Random(37).sample(sorted(set(masks) - set(served)), 200)
        for mask in served + others:
            direct = oracle_purities(stack, shape.dims, mask)
            j = masks.index(mask)
            assert np.abs(result.purity[:, j] - direct).max() < 1e-12, mask

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_sweep_purities_returns_the_result_purities(self, basis):
        shape = FactorizationShape.parse("2x3x2x3x2")
        generator = random_permutation(shape.total, seed=43) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=3, seed=43, generator=generator)
        result = run_sweep(config)
        purities = Plan(shape, result.masks.tolist()).run(sweep_stack(config))
        assert isinstance(purities, np.ndarray) and purities.dtype == np.float64
        assert purities.shape == (3, result.masks.size)
        assert np.array_equal(purities, result.purity)

    def test_one_chain_of_reduced_matrices_alive(self):
        shape = FactorizationShape((2,) * 14)
        config = SweepConfig(shape=shape, num_states=1, seed=3)
        stack = sweep_stack(config)
        masks = _enumerate_masks(config, random.Random(0))
        tracemalloc.start()
        try:
            purities = Plan(shape, masks).run(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert purities.shape == (1, len(masks))
        # a root's 128 x 128 float64 matrix is 128 KiB; the 1,716 roots
        # together would be 225 MB
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "text, basis",
        [
            ("2^12", "ontic"),
            ("2^12", "energy"),
            ("2x3x2x3x2x3x2x3", "ontic"),
            ("2x3x2x3x2x3x2x3", "energy"),
            ("3^7", "energy"),
        ],
    )
    def test_blocks_through_one_plan_equal_one_run(self, text, basis):
        # one plan and one set of buffers run blocks of every size from 1
        # to S, a smaller last block after larger ones included; every
        # block size gives the bits of one run on the whole stack
        shape = FactorizationShape.parse(text)
        generator = random_permutation(shape.total, seed=47) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=5, seed=47, generator=generator)
        stack = sweep_stack(config)
        plan = Plan(shape, _enumerate_masks(config, random.Random(47)))
        whole = plan.run(stack)
        buffers = plan.buffers(len(stack), stack.dtype)
        for rows in range(1, len(stack) + 1):
            blocks = [plan.run(stack[i : i + rows], buffers) for i in range(0, len(stack), rows)]
            assert len(blocks[-1]) == (len(stack) % rows or rows)
            assert np.array_equal(np.concatenate(blocks), whole), rows

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_walk_allocates_only_its_buffers(self, basis):
        # the walk's float64 buffers, one per depth as large as the largest
        # S * d**2 there, two stack-sized work buffers and the (S, M) output
        # bound the peak; a matrix copied per step on top of them shows
        shape = FactorizationShape((2,) * 12)
        generator = random_permutation(shape.total, seed=5) if basis == "energy" else None
        config = SweepConfig(shape=shape, num_states=10, seed=5, generator=generator)
        stack = sweep_stack(config)
        masks = _enumerate_masks(config, random.Random(5))
        largest = {}
        for mask, depth, _, _ in walk_of(shape, masks):
            largest[depth] = max(largest.get(depth, 0), dim_of(mask, shape))
        buffers = 8 * 10 * sum(d * d for d in largest.values())
        bound = buffers + 2 * stack.nbytes + 8 * 10 * len(masks) + (256 << 10)
        Plan(shape, masks).run(stack)
        tracemalloc.start()
        try:
            Plan(shape, masks).run(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
        if basis == "energy":
            # the peak of 0.19.0, whose walk formed each complex rho afresh
            assert peak < 4.60 * (1 << 20)


def factorized_run(text, basis, sizes=None, samples=None):
    """A 5-state sweep under the shape ``text`` (every proper subsystem
    unless ``sizes`` or ``samples`` say otherwise), and its amplitude
    stack; the states and the generator depend only on the total
    dimension, so every factorization of it sees the same stack."""
    shape = FactorizationShape.parse(text)
    generator = random_permutation(shape.total, seed=3) if basis == "energy" else None
    config = SweepConfig(
        shape=shape, num_states=5, seed=3, generator=generator,
        subset_sizes=sizes, samples_per_size=samples,
    )
    return run_sweep(config), sweep_stack(config)


def lift(mask, groups):
    """The fine mask of a coarse one: coarse position p is the run of fine
    positions ``groups[p]``."""
    return sum(1 << f for p, run in enumerate(groups) if mask >> p & 1 for f in run)


class TestFactorizationIdentities:
    """One amplitude stack under two factorizations of its dimension.  A
    coarse position is the run of fine positions it covers (indices are
    big-endian mixed radix), and relabelling the positions moves the mask
    bits with them.  The lattice reaches the two sides by other roots,
    hubs and traces, so they agree to rounding, not to the last bit."""

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    @pytest.mark.parametrize(
        "coarse, fine, groups",
        [
            ("4^6", "2^12", [[2 * p, 2 * p + 1] for p in range(6)]),
            ("4x5", "2x2x5", [[0, 1], [2]]),
            ("6x6", "2x3x2x3", [[0, 1], [2, 3]]),
            # the fine shape serves roots from hubs, the coarse one cannot
            ("6^3", "2x3x2x3x2x3", [[0, 1], [2, 3], [4, 5]]),
        ],
        ids=["4^6-2^12", "4x5-2x2x5", "6x6-2x3x2x3", "6^3-2x3x2x3x2x3"],
    )
    def test_coarse_mask_equals_its_lift(self, coarse, fine, groups, basis):
        coarse_run, coarse_stack = factorized_run(coarse, basis)
        fine_run, fine_stack = factorized_run(fine, basis)
        assert np.array_equal(coarse_stack, fine_stack)
        column = columns(fine_run)
        for j, mask in enumerate(coarse_run.masks.tolist()):
            lifted = lift(mask, groups)
            gap = np.abs(coarse_run.purity[:, j] - fine_run.purity[:, column[lifted]]).max()
            assert gap < 1e-13, mask

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    @pytest.mark.parametrize(
        "coarse, fine, groups, samples",
        [
            ("4^6", "2^12", [[2 * p, 2 * p + 1] for p in range(6)], 4),
            ("6^4", "2x3x2x3x2x3x2x3", [[2 * p, 2 * p + 1] for p in range(4)], 2),
        ],
        ids=["4^6-2^12", "6^4-2x3x2x3x2x3x2x3"],
    )
    def test_sampled_coarse_masks_equal_their_lift(self, coarse, fine, groups, samples, basis):
        # a sampled= coarse run against a sizes= fine run of the lifted sizes
        coarse_run, coarse_stack = factorized_run(coarse, basis, samples=samples)
        sizes = tuple(2 * a for a in sorted(set(coarse_run.sizes.tolist())))
        fine_run, fine_stack = factorized_run(fine, basis, sizes=sizes)
        assert np.array_equal(coarse_stack, fine_stack)
        assert coarse_run.masks.size < 2 ** len(groups) - 2
        column = columns(fine_run)
        for j, mask in enumerate(coarse_run.masks.tolist()):
            lifted = lift(mask, groups)
            gap = np.abs(coarse_run.purity[:, j] - fine_run.purity[:, column[lifted]]).max()
            assert gap < 1e-13, mask

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    @pytest.mark.parametrize(
        "text, sigma",
        [
            ("4^6", [3, 0, 5, 1, 4, 2]),
            ("2^12", [5, 11, 0, 7, 2, 9, 1, 10, 3, 6, 8, 4]),
            ("4x5", [1, 0]),
            ("2x2x5", [2, 0, 1]),
        ],
        ids=["4^6", "2^12", "4x5", "2x2x5"],
    )
    def test_relabelled_positions_keep_purities(self, text, sigma, basis):
        # new position i is old position sigma[i]
        result, stack = factorized_run(text, basis)
        shape = FactorizationShape.parse(text)
        moved = FactorizationShape(tuple(shape.dims[p] for p in sigma))
        tensor = stack.reshape((len(stack),) + shape.dims)
        moved_stack = tensor.transpose([0] + [1 + p for p in sigma]).reshape(len(stack), -1)
        masks = [
            sum(1 << i for i, p in enumerate(sigma) if m >> p & 1) for m in result.masks.tolist()
        ]
        purities = Plan(moved, masks).run(moved_stack)
        assert np.abs(purities - result.purity).max() < 1e-13


class TestSummaries:
    def test_symmetric_sizes_agree(self):
        shape = FactorizationShape((2,) * 6)
        result = run_sweep(SweepConfig(shape=shape, num_states=3, seed=12))
        summary = summarize_by_size(result, shape)
        rows = {row.size: row for row in summary.by_size}
        for a in (1, 2):
            assert rows[a].mean_s2 == pytest.approx(rows[6 - a].mean_s2, abs=1e-11)
            assert rows[a].min_s2 == pytest.approx(rows[6 - a].min_s2, abs=1e-11)
            assert rows[a].max_s2 == pytest.approx(rows[6 - a].max_s2, abs=1e-11)

    def test_single_record(self):
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, ontic_vectors=(bs("1000"),), subset_sizes=(1,))
        result = run_sweep(config)
        first = SweepResult(
            result.masks[:1], result.sizes[:1], result.purity[:, :1], result.s2_bits[:, :1]
        )
        summary = summarize_by_size(first, shape)
        assert len(summary.by_size) == 1
        row = summary.by_size[0]
        assert row.count == 1
        assert row.min_s2 == row.max_s2 == row.mean_s2
        assert row.std_s2 == 0.0

    def test_empty_input(self):
        empty = SweepResult(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty((1, 0)), np.empty((1, 0)),
        )
        with pytest.raises(EmptyInput):
            summarize_by_size(empty, FactorizationShape((2, 2)))

    def test_asymmetry_reported(self):
        shape = FactorizationShape((2, 2, 2))
        config = SweepConfig(shape=shape, num_states=2, seed=13)
        result = run_sweep(config)
        assert summarize_by_size(result, shape).max_complement_asymmetry < 1e-12
        # the copied columns replaced by the purity on their own layout: the
        # summary then compares two separately computed sides
        stack = sweep_stack(config)
        column = columns(result)
        own = result.purity.copy()
        copied = [comp for _, comp in copied_sides(result, 3)]
        for comp in copied:
            own[:, column[comp]] = oracle_purities(stack, shape.dims, comp)
        s2 = np.array([[collision_entropy(p) for p in row] for row in own.tolist()])
        separate = dataclasses.replace(result, purity=own, s2_bits=s2)
        assert own.shape == (2, 6) and len(copied) == 3
        assert summarize_by_size(separate, shape).max_complement_asymmetry < 1e-12

    def test_asymmetry_reads_a_raised_copied_column(self):
        shape = FactorizationShape((2,) * 6)
        result = run_sweep(SweepConfig(shape=shape, num_states=2, seed=25))
        _, comp = copied_sides(result, 6)[0]
        s2 = result.s2_bits.copy()
        s2[:, columns(result)[comp]] += 0.5
        raised = dataclasses.replace(result, s2_bits=s2)
        asym = summarize_by_size(raised, shape).max_complement_asymmetry
        assert asym == pytest.approx(0.5, abs=1e-12)

    def test_asymmetry_reads_a_raised_first_column(self):
        # the side of each pair the sweep enumerates first, which the kernel
        # writes and the other side is read from, raised one pair at a time
        shape = FactorizationShape((2,) * 6)
        result = run_sweep(SweepConfig(shape=shape, num_states=2, seed=25))
        pairs = copied_sides(result, 6)
        assert len(pairs) == 31
        for first, _ in pairs:
            s2 = result.s2_bits.copy()
            s2[:, columns(result)[first]] += 0.5
            raised = dataclasses.replace(result, s2_bits=s2)
            asym = summarize_by_size(raised, shape).max_complement_asymmetry
            assert asym == pytest.approx(0.5, abs=1e-12), first

    def test_asymmetry_without_complement_pairs_reads_0(self):
        # sizes=1 of 2^6 holds no mask's complement: even a raised column
        # is compared with nothing
        shape = FactorizationShape((2,) * 6)
        result = run_sweep(SweepConfig(shape=shape, num_states=2, seed=25, subset_sizes=(1,)))
        assert copied_sides(result, 6) == []
        s2 = result.s2_bits.copy()
        s2[:, 0] += 0.5
        raised = dataclasses.replace(result, s2_bits=s2)
        assert summarize_by_size(result, shape).max_complement_asymmetry == 0.0
        assert summarize_by_size(raised, shape).max_complement_asymmetry == 0.0


class TestCsvOutput:
    def test_byte_identical_reruns(self):
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=3, seed=14)
        text_a = "".join(sweep_csv(run_sweep(config), config))
        text_b = "".join(sweep_csv(run_sweep(config), config))
        assert text_a.encode() == text_b.encode()

    def test_schema(self):
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, num_states=1, seed=15)
        text = "".join(sweep_csv(run_sweep(config), config))
        lines = text.strip().split("\n")
        meta = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "state_id,subset_mask,subset_size,purity,s2_bits"
        assert len(body) == 1 + 2  # header + two proper subsets
        assert any("shape=2x2" in ln for ln in meta)
        assert any("seed=15" in ln for ln in meta)
        assert any("log_base=2" in ln for ln in meta)
        assert any("sampling=uniform-nontrivial" in ln for ln in meta)
        # floats carry full precision
        parts = body[1].split(",")
        assert len(parts) == 5
        float(parts[3]), float(parts[4])

    def test_plot_data_envelope(self):
        shape = FactorizationShape((2,) * 4)
        config = SweepConfig(shape=shape, num_states=2, seed=16)
        result = run_sweep(config)
        text = "".join(plot_data_text(result, config))
        assert "size,count,min_s2,mean_s2,max_s2,std_s2,state_mean_std" in text
        assert "max_complement_asymmetry=" in text
        data_rows = [
            ln for ln in text.strip().split("\n")
            if ln and not ln.startswith("#") and not ln.startswith("size,")
        ]
        assert len(data_rows) == 3  # sizes 1..3


def joined_sweep_csv(result, config):
    """The sweep CSV as 0.10.0 formatted it: every line of the table in
    one list, joined once."""
    lines = [
        f"# tool=onticsim {onticsim.__version__}",
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
    lines.append("state_id,subset_mask,subset_size,purity,s2_bits")
    keys = [f"{m},{a}," for m, a in zip(result.masks.tolist(), result.sizes.tolist())]
    for sid, (ps, s2s) in enumerate(zip(result.purity.tolist(), result.s2_bits.tolist())):
        lines += [f"{sid},{key}{p:.17g},{s2:.17g}" for key, p, s2 in zip(keys, ps, s2s)]
    return "\n".join(lines) + "\n"


def synthetic_result(num_states, k):
    """A SweepResult of every proper mask of 2^k with random purities,
    built without running a sweep."""
    rng = np.random.default_rng(num_states)
    masks = np.arange(1, (1 << k) - 1)
    purities = rng.uniform(2.0 ** -(k // 2), 1.0, (num_states, masks.size))
    return SweepResult(
        masks=masks,
        sizes=np.array([m.bit_count() for m in masks.tolist()]),
        purity=purities,
        s2_bits=collision_entropy(purities),
    )


class TestStreamedCsv:
    @pytest.mark.parametrize("energy", [False, True], ids=["ontic", "energy"])
    def test_blocks_join_to_the_one_string_table(self, energy):
        shape = FactorizationShape((2,) * 6)
        generator = random_permutation(64, seed=41) if energy else None
        config = SweepConfig(shape=shape, num_states=3, seed=42, generator=generator)
        result = run_sweep(config)
        blocks = list(sweep_csv(result, config))
        assert blocks[0].endswith("state_id,subset_mask,subset_size,purity,s2_bits\n")
        assert "".join(blocks) == joined_sweep_csv(result, config)

    def test_blocks_hold_at_most_the_block_rows(self):
        shape = FactorizationShape((2,) * 12)
        result = synthetic_result(3, 12)
        blocks = list(sweep_csv(result, SweepConfig(shape=shape, num_states=3)))
        rows = [b.count("\n") for b in blocks[1:]]
        assert rows == [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS, 3 * 4094 - 2 * CSV_BLOCK_ROWS]

    def test_writer_memory_does_not_grow_with_states(self, tmp_path):
        shape = FactorizationShape((2,) * 14)
        peaks = []
        for num_states in (1, 10):
            result = synthetic_result(num_states, 14)
            config = SweepConfig(shape=shape, num_states=num_states)
            tracemalloc.start()
            _write_output(str(tmp_path / "sweep.csv"), sweep_csv(result, config))
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]
        assert max(peaks) < 3_000_000


# (dims, generator, mask positions) of the blocked-series tests: an int is
# the size of a random generator, whose period is too long to walk
SERIES_GENERATORS = [
    ((2,) * 12, 4096, range(6)),
    # 128 against 32: reduced on the complement's side
    ((2,) * 12, 4096, range(7)),
    ((2,) * 12, "(0 1 2 3 4 5 6 7 8 9 10)(11 12 13)", range(6)),
    ((2,) * 12, "(0 1 2 3 4 5 6 7 8 9 10)(11 12 13)", range(8)),
    ((2, 3, 2, 3, 2), 72, [0, 1]),
    ((2, 3, 2, 3, 2), 72, [1, 2, 3]),
    ((2, 3, 2, 3, 2), "(0 1 2 3 4 5 6 7 8 9 10)(11 12 13)", [0, 1]),
    ((2, 3, 2, 3, 2), "(0 1 2 3 4 5 6 7 8 9 10)(11 12 13)", [1, 2, 3]),
]
SERIES_CASES = [
    (dims, generator, positions, times)
    for dims, generator, positions in SERIES_GENERATORS
    for times in ("none", "first-five", "second-period", "unordered")
    if not (times == "second-period" and isinstance(generator, int))
]


class TestTimeSeries:
    def test_identity_generator_constant(self):
        shape = FactorizationShape((2, 2, 2))
        q = random_ontic(8, seed=17)
        g = Permutation(np.arange(8))
        mask = SubsystemMask.from_positions(shape, [0])
        series = run_time_series(shape, q, g, mask, range(5), allow_wrap=True)
        values = [s2 for _, s2 in series]
        assert max(values) - min(values) == 0.0

    def test_periodicity(self):
        shape = FactorizationShape((2, 2, 2))
        q = random_ontic(8, seed=18)
        g = random_permutation(8, seed=19)
        mask = SubsystemMask.from_positions(shape, [1])
        base = run_time_series(shape, q, g, mask, range(g.order), allow_wrap=False)
        shifted = run_time_series(
            shape, q, g, mask, range(g.order, 2 * g.order), allow_wrap=True
        )
        for (_, a), (_, b) in zip(base, shifted):
            assert a == pytest.approx(b, abs=1e-12)

    def test_wrap_guard(self):
        shape = FactorizationShape((2, 2))
        q = bs("1000")
        g = Permutation(np.arange(4))
        mask = SubsystemMask.from_positions(shape, [0])
        with pytest.raises(ConfigError):
            run_time_series(shape, q, g, mask, range(3))

    def test_mask_of_another_shape_rejected(self):
        # same total, other factors: the stack alone cannot tell them apart
        shape = FactorizationShape((2, 3, 2, 2))
        mask = SubsystemMask.from_positions(FactorizationShape((3, 2, 2, 2)), [0])
        g = random_permutation(24, seed=39)
        with pytest.raises(ConfigError, match="does not match"):
            run_time_series(shape, random_ontic(24, seed=40), g, mask, range(3), allow_wrap=True)

    def test_one_entropy_call_per_series(self, monkeypatch):
        calls = []

        def counted(p):
            calls.append(np.shape(p))
            return collision_entropy(p)

        monkeypatch.setattr(onticsim.experiment, "collision_entropy", counted)
        shape = FactorizationShape((2, 2, 2))
        g = Permutation.from_cycles(8, [[0, 1, 2, 3, 4, 5, 6]])
        mask = SubsystemMask.from_positions(shape, [0, 2])
        series = run_time_series(shape, bs("10110100"), g, mask, range(7))
        assert calls == [(7,)]
        assert [t for t, _ in series] == list(range(7))
        assert all(type(s2) is float for _, s2 in series)

    def test_two_path_oracle(self):
        # evolving the subset by the oracle's repeated squaring, then
        # building the state, must reproduce the series
        shape = FactorizationShape((2, 2, 2))
        g = Permutation.from_cycles(8, [[0, 1, 2, 3, 4, 5, 6]])  # 7-cycle + fixed point
        assert g.order == 7
        rng = random.Random(20)
        mask = SubsystemMask.from_positions(shape, [0, 2])
        for _ in range(5):
            q = random_ontic(8, rng=rng)
            series = run_time_series(shape, q, g, mask, range(7))
            for t, s2 in series:
                q_t = OnticVector.from_array(apply_permutation(g.images, q.to_array(), t))
                expected = collision_entropy(
                    purity(state_from_ontic(q_t, shape), mask)
                )
                assert s2 == pytest.approx(expected, abs=1e-12)

    def test_ontic_start_runs_in_float64(self, monkeypatch):
        shape = FactorizationShape((2, 3, 2, 2))
        q = random_ontic(24, seed=21)
        g = random_permutation(24, seed=22)
        mask = SubsystemMask.from_positions(shape, [0, 1])

        def as_complex(q, shape):
            return PureState(state_from_ontic(q, shape).amps.astype(np.complex128), shape)

        stacks = spy_runs(monkeypatch)
        # 10 rows a block: several blocks, the last one short
        monkeypatch.setattr(onticsim.experiment, "BATCH_POINTS", 10 * 24 + 5)
        real = run_time_series(shape, q, g, mask, range(g.order))
        assert g.order % 10
        assert [rows for (rows, _), _ in stacks] == [10] * (g.order // 10) + [g.order % 10]
        assert {(n, dtype) for (_, n), dtype in stacks} == {(24, np.dtype(np.float64))}
        stacks.clear()
        monkeypatch.setattr(onticsim.experiment, "state_from_ontic", as_complex)
        cast = run_time_series(shape, q, g, mask, range(g.order))
        assert {(n, dtype) for (_, n), dtype in stacks} == {(24, np.dtype(np.complex128))}
        for (t, a), (u, b) in zip(real, cast):
            assert t == u
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("dims, generator, positions, times", SERIES_CASES)
    def test_blocks_equal_per_step_path(self, monkeypatch, dims, generator, positions, times):
        shape = FactorizationShape(dims)
        n = shape.total
        if isinstance(generator, int):
            g = random_permutation(generator, seed=33)
        else:
            g = Permutation.parse(n, generator)
        ts = {
            "none": range(0),
            "first-five": range(5),
            "second-period": range(g.order, 2 * g.order),
            "unordered": [7, 3, 3, -2, (1 << 62) + 5, 0, 1, g.order + 4],
        }[times]
        mask = SubsystemMask.from_positions(shape, positions)
        q = random_ontic(n, seed=34)
        psi0 = state_from_ontic(q, shape)
        expected = [purity(PureState(apply_permutation(g.images, psi0.amps, t), shape), mask)
                    for t in ts]
        expected = list(zip(ts, collision_entropy(np.array(expected)).tolist()))
        # 3 rows a block, so no list here fills its last block
        monkeypatch.setattr(onticsim.experiment, "BATCH_POINTS", 3 * n + 1)
        assert run_time_series(shape, q, g, mask, ts, allow_wrap=True) == expected

    def test_a_range_makes_two_gathers_and_one_purity_call_per_block(self, monkeypatch):
        gathers = []
        power_images = Permutation.power_images

        def counted_gather(self, t):
            gathers.append(t)
            return power_images(self, t)

        monkeypatch.setattr(Permutation, "power_images", counted_gather)
        runs = spy_runs(monkeypatch)
        plans = count_plans(monkeypatch)
        shape = FactorizationShape((2,) * 12)
        g = random_permutation(4096, seed=35)
        mask = SubsystemMask.from_positions(shape, range(7))
        series = run_time_series(shape, random_ontic(4096, seed=36), g, mask, range(5, 104))
        rows = BATCH_POINTS // 4096
        assert len(series) == 99
        # the step 5 to the first time, then the step 1
        assert len(gathers) == 2
        stacks = [shape for shape, _ in runs]
        assert len(stacks) == math.ceil(99 / rows)
        assert stacks == [(rows, 4096)] * (99 // rows) + [(99 % rows, 4096)]
        # one plan for the whole series
        assert plans == [1]

    def test_a_mask_over_the_cap_exits_before_the_first_gather(self, monkeypatch, capsys):
        # the mask is planned before the state is built, so its Gram side
        # over the cap is rejected before any index array is made
        monkeypatch.setattr(onticsim.reduction, "GRAM_DIM_CAP", 16)
        gathers = []
        power_images = Permutation.power_images

        def counted_gather(self, t):
            gathers.append(t)
            return power_images(self, t)

        monkeypatch.setattr(Permutation, "power_images", counted_gather)
        built = []
        monkeypatch.setattr(
            onticsim.experiment, "state_from_ontic", lambda q, shape: built.append(q)
        )
        shape = FactorizationShape((2,) * 12)
        g = random_permutation(4096, seed=49)
        mask = SubsystemMask.from_positions(shape, range(6))
        message = "mask 0b111111 needs a 64-dim Gram matrix, over the budget 16"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            run_time_series(shape, random_ontic(4096, seed=50), g, mask, range(5, 104))
        argv = ["evolve", "--shape", "2^12", "--generator", g.cycle_string(),
                "--mask", "1,2,3,4,5,6", "--t-max", "99", "--allow-wrap"]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert gathers == built == []

    def test_corrupted_gather_is_a_numeric_violation(self, monkeypatch, capsys):
        power_images = Permutation.power_images

        def duplicated(self, t):
            # point 1 read twice and point 0, the one set bit, never
            images = power_images(self, t).copy()
            images[images == 0] = 1
            return images

        monkeypatch.setattr(Permutation, "power_images", duplicated)
        shape = FactorizationShape((2,) * 4)
        q = OnticVector.from_array([1] + [0] * 15)
        g = Permutation.parse(16, "(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)")
        mask = SubsystemMask.from_positions(shape, [0, 1])
        with pytest.raises(NumericViolation, match="step 0 is not a bijection of the 16 points"):
            run_time_series(shape, q, g, mask, range(16))
        argv = ["evolve", "--shape", "2^4", "--generator", g.cycle_string(),
                "--mask", "1,2", "--ontic", q.serialize(), "--t-max", "15"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numeric invariant violated: the index array of step 0 is not a bijection" in err
        assert "Traceback" not in err

    def test_gather_outside_the_points_is_a_numeric_violation(self, monkeypatch, capsys):
        power_images = Permutation.power_images

        def overrun(self, t):
            # the last entry reads point N, one past the end
            images = power_images(self, t).copy()
            images[-1] = self.n
            return images

        monkeypatch.setattr(Permutation, "power_images", overrun)
        shape = FactorizationShape((2,) * 4)
        q = OnticVector.from_array([1] + [0] * 15)
        g = Permutation.parse(16, "(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)")
        mask = SubsystemMask.from_positions(shape, [0, 1])
        with pytest.raises(NumericViolation, match="step 0 is not a bijection of the 16 points"):
            run_time_series(shape, q, g, mask, range(16))
        argv = ["evolve", "--shape", "2^4", "--generator", g.cycle_string(),
                "--mask", "1,2", "--ontic", q.serialize(), "--t-max", "15"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numeric invariant violated: the index array" in err
        assert "Traceback" not in err

    def test_gather_that_is_no_bijection_is_a_numeric_violation(self, monkeypatch, capsys):
        power_images = Permutation.power_images

        def duplicated(self, t):
            # point 1 read twice and point 0 never
            images = power_images(self, t).copy()
            images[images == 0] = 1
            return images

        monkeypatch.setattr(Permutation, "power_images", duplicated)
        shape = FactorizationShape((2,) * 4)
        # w = N/2: every amplitude has magnitude 1/4, so every norm stays 1
        q = OnticVector.from_array([1, 0] * 8)
        g = Permutation.parse(16, "(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)")
        mask = SubsystemMask.from_positions(shape, [0, 1])
        with pytest.raises(NumericViolation, match="step 0 is not a bijection of the 16 points"):
            run_time_series(shape, q, g, mask, range(16))
        argv = ["evolve", "--shape", "2^4", "--generator", g.cycle_string(),
                "--mask", "1,2", "--ontic", q.serialize(), "--t-max", "15"]
        assert main(argv) == 3
        assert "is not a bijection" in capsys.readouterr().err

    def test_norm_check_names_the_time(self, monkeypatch, capsys):
        def scaled(q, shape):
            return types.SimpleNamespace(amps=1.5 * state_from_ontic(q, shape).amps)

        monkeypatch.setattr(onticsim.experiment, "state_from_ontic", scaled)
        shape = FactorizationShape((2,) * 4)
        q = OnticVector.from_array([1] + [0] * 15)
        g = Permutation.parse(16, "(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)")
        mask = SubsystemMask.from_positions(shape, [0, 1])
        with pytest.raises(NumericViolation, match=r"state norm 1\.5 at t=0 "):
            run_time_series(shape, q, g, mask, range(16))
        argv = ["evolve", "--shape", "2^4", "--generator", g.cycle_string(),
                "--mask", "1,2", "--ontic", q.serialize(), "--t-max", "15"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "numeric invariant violated: state norm 1.5 at t=0 " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "corrupt, bits",
        [
            # point 1 read twice and point 0 never
            ("duplicate", [1] + [0] * 15),
            # the last entry reads point N, one past the end
            ("outside", [1] + [0] * 15),
            # w = N/2: every amplitude has magnitude 1/4, so every norm stays 1
            ("duplicate-half-weight", [1, 0] * 8),
        ],
        ids=["duplicate", "outside", "duplicate-half-weight"],
    )
    def test_corrupted_array_fails_before_its_blocks_purity_call(
        self, monkeypatch, capsys, corrupt, bits
    ):
        power_images = Permutation.power_images

        def corrupted(self, t):
            # only the index array of the step 5, made as power_images(-5)
            images = power_images(self, t)
            if t % self.order != self.order - 5:
                return images
            images = images.copy()
            if corrupt == "outside":
                images[-1] = self.n
            else:
                images[images == 0] = 1
            return images

        monkeypatch.setattr(Permutation, "power_images", corrupted)
        runs = spy_runs(monkeypatch)
        plans = count_plans(monkeypatch)
        # 3 rows a block: the step 5 comes first at t = 10, the first row of
        # the third block, after two blocks of step 1
        monkeypatch.setattr(onticsim.experiment, "BATCH_POINTS", 3 * 16)
        shape = FactorizationShape((2,) * 4)
        g = Permutation.parse(16, "(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)")
        mask = SubsystemMask.from_positions(shape, [0, 1])
        with pytest.raises(NumericViolation, match="step 5 is not a bijection of the 16 points"):
            run_time_series(shape, OnticVector.from_array(bits), g, mask, [0, 1, 2, 3, 4, 5, 10])
        assert [rows for (rows, _), _ in runs] == [3, 3]
        assert plans == [1]

    def test_index_array_memory_does_not_grow_with_distinct_steps(self):
        shape = FactorizationShape((2,) * 12)
        g = random_permutation(4096, seed=41)
        mask = SubsystemMask.from_positions(shape, range(6))
        q = random_ontic(4096, seed=42)
        # steps 1, 2, ..., 2000: each one's index array is made once
        ts = list(itertools.accumulate(range(1, 2001)))
        tracemalloc.start()
        try:
            series = run_time_series(shape, q, g, mask, ts, allow_wrap=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == 2000
        # 2,000 index arrays of 4,096 int64 entries would take 62.5 MiB
        assert peak <= 4 << 20, peak

    @pytest.mark.parametrize(
        "dims, positions",
        [
            ((2,) * 6, [0, 2, 4]),
            # 16 against 4: reduced on the complement's side
            ((2,) * 6, [1, 2, 3, 4]),
            ((2, 3, 2, 2), [1]),
            ((2, 3, 2, 2), [0, 1, 2]),
        ],
    )
    def test_exact_integer_oracle(self, monkeypatch, dims, positions):
        shape = FactorizationShape(dims)
        n = shape.total
        g = random_permutation(n, seed=37)
        mask = SubsystemMask.from_positions(shape, positions)
        monkeypatch.setattr(onticsim.experiment, "BATCH_POINTS", 4 * n + 3)
        for seed in range(3):
            q = random_ontic(n, seed=38 + seed)
            ts = range(0, 3 * n, 2)
            series = run_time_series(shape, q, g, mask, ts, allow_wrap=True)
            assert [t for t, _ in series] == list(ts)
            for t, s2 in series:
                bits = apply_permutation(g.images, q.to_array(), t).tolist()
                exact = -math.log2(exact_purity(bits, dims, positions))
                assert abs(s2 - exact) <= 1e-12, (seed, t)


def census_by_row_walk(n, samples, seed):
    """The census from one (samples, n) draw and a cycle walk of each row:
    the reference the batched census must equal exactly."""
    shifted = _random_rows(n, 0, samples, _stream_base(seed)).reshape(samples, n)
    perms = shifted - n * np.arange(samples)[:, None]
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


class TestCycleCensus:
    @pytest.mark.parametrize(
        "n, samples, seed",
        [
            (1, 5, 0),
            (2, 3000, 1),
            # 3000 is not a multiple of the 819 rows a batch holds at n = 20
            (20, 3000, 2),
            (20, 1, 3),
            (33, 1000, 4),
            # one sample is more points than a batch
            (BATCH_POINTS + 5, 3, 5),
        ],
    )
    def test_equals_row_walk(self, n, samples, seed):
        assert run_cycle_census(n, samples, seed) == census_by_row_walk(n, samples, seed)

    @pytest.mark.parametrize("batch_points", [1, 7, 64])
    def test_batch_size_does_not_change_the_census(self, monkeypatch, batch_points):
        whole = run_cycle_census(9, 200, seed=6)
        monkeypatch.setattr(onticsim.experiment, "BATCH_POINTS", batch_points)
        assert run_cycle_census(9, 200, seed=6) == whole

    def test_memory_does_not_grow_with_samples(self):
        # one (50_000, 20) int64 draw alone would be 8 MB
        tracemalloc.start()
        try:
            run_cycle_census(20, 50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_single_point(self):
        census = run_cycle_census(1, samples=50, seed=21)
        assert census.stats[0].mean == 1.0
        assert census.stats[0].std_error == 0.0
        assert not census.stats[0].flagged

    def test_two_points(self):
        census = run_cycle_census(2, samples=50_000, seed=22)
        two = census.stats[1]
        assert two.expected == 0.5
        assert abs(two.mean - 0.5) <= 3 * two.std_error
        assert not two.flagged

    def test_expected_counts_at_twenty(self):
        census = run_cycle_census(20, samples=20_000, seed=23)
        for s in census.stats[:8]:
            assert not s.flagged, (
                f"length {s.length}: mean {s.mean} vs {s.expected} (se {s.std_error})"
            )

    def test_counts_partition_the_points(self):
        # sum of length * mean count = n exactly, for every sample set
        census = run_cycle_census(12, samples=500, seed=24)
        total = sum(s.length * s.mean for s in census.stats)
        assert total == pytest.approx(12.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_cycle_census(0, samples=10)
        with pytest.raises(ConfigError):
            run_cycle_census(5, samples=0)


class TestSamplingLabels:
    def test_explicit_vectors_label(self):
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, ontic_vectors=(bs("1001"),))
        assert config.sampling_label() == "explicit:4:0x9"
        assert config.effective_num_states == 1

    def test_policy_labels(self):
        shape = FactorizationShape((2,) * 5)
        assert SweepConfig(shape=shape).policy_label() == "all-proper"
        assert (
            SweepConfig(shape=shape, subset_sizes=(2, 1)).policy_label()
            == "sizes=1,2"
        )
        assert (
            SweepConfig(shape=shape, samples_per_size=4).policy_label()
            == "sampled=4-per-size"
        )
