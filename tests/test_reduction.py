"""Tests for the kernel's bipartite arrangement, reduced matrices, and
purities."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import (
    PlanRejected,
    arrange,
    purity_from_density,
    reduced_density_bruteforce,
    reference_plan,
)

import onticsim.reduction
from onticsim.bitstate import OnticVector, complement, random_ontic
from onticsim.errors import ConfigError, DimensionCap, NumericViolation, TrivialSubsystem
from onticsim.experiment import SweepConfig, _enumerate_masks
from onticsim.indexing import FactorizationShape, SubsystemMask
from onticsim.reduction import (
    Plan,
    _bipartite_stack,
    _gram_stack,
    _trace,
    purity,
    reduced_density,
)
from onticsim.states import PureState, state_from_ontic


def bs(text):
    return OnticVector(int(text, 2), len(text))


def proper_masks(shape):
    return [
        SubsystemMask(bits, shape) for bits in range(1, (1 << shape.k) - 1)
    ]


def bipartite_view(psi, mask):
    """The (subsystem x complement) matrix the kernel forms its Gram
    product from."""
    stack = psi.amps[np.newaxis]
    return _bipartite_stack(stack, mask, np.empty_like(stack))[0]


def other_side(mask):
    """The complement of ``mask`` in its shape."""
    return SubsystemMask(mask.mask ^ ((1 << mask.shape.k) - 1), mask.shape)


def bruteforce(psi, mask):
    return reduced_density_bruteforce(psi.amps, psi.shape.dims, mask.positions)


class TestBipartiteView:
    def test_hand_reshape(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        view = bipartite_view(psi, SubsystemMask.from_positions(shape, [0]))
        np.testing.assert_allclose(
            view, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
        )

    def test_complement_view_is_transpose(self):
        shape = FactorizationShape((2, 3, 2))
        psi = state_from_ontic(random_ontic(12, seed=1), shape)
        mask = SubsystemMask.from_positions(shape, [0, 1])
        a = bipartite_view(psi, mask)
        b = bipartite_view(psi, other_side(mask))
        np.testing.assert_array_equal(a, b.T)

    def test_norm_one(self):
        shape = FactorizationShape((2, 2, 2, 2))
        rng = random.Random(2)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(16, rng=rng), shape)
            mask = SubsystemMask.from_positions(shape, [1, 3])
            assert np.linalg.norm(bipartite_view(psi, mask)) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_placement_matches_split_index(self):
        # the oracle's digit arithmetic places every amplitude
        shape = FactorizationShape((2, 3, 2))
        psi = state_from_ontic(random_ontic(12, seed=3), shape)
        for mask in proper_masks(shape):
            expected = arrange(psi.amps.tolist(), shape.dims, mask.positions)
            assert np.array_equal(bipartite_view(psi, mask), expected)

    def test_trivial_rejected(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        for bits in (0, 0b11):
            with pytest.raises(TrivialSubsystem):
                reduced_density(psi, SubsystemMask(bits, shape))


class TestReducedDensity:
    def test_product_state_stays_pure(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        rho = reduced_density(psi, SubsystemMask.from_positions(shape, [0]))
        np.testing.assert_allclose(rho.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)
        assert np.trace(rho.entries @ rho.entries).real == pytest.approx(1.0, abs=1e-14)

    def test_entangled_hand_case(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1000"), shape)
        rho = reduced_density(psi, SubsystemMask.from_positions(shape, [0]))
        expected = np.array([[5 / 6, -1 / 6], [-1 / 6, 1 / 6]])
        np.testing.assert_allclose(rho.entries, expected, atol=1e-15)

    def test_trace_one_everywhere(self):
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(4)
        for _ in range(5):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            for mask in proper_masks(shape):
                rho = reduced_density(psi, mask)
                assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("text, positions", [("2x3x2", [0, 2]), ("2^6", [1, 2, 4])])
    def test_complex_state_is_exactly_hermitian(self, text, positions):
        # rho is rebuilt from S = Re rho + Im rho as its symmetric and
        # antisymmetric parts, so its two triangles agree to the last bit
        shape = FactorizationShape.parse(text)
        mask = SubsystemMask.from_positions(shape, positions)
        amps = phased(ontic_stack(shape, 1, seed=shape.total), seed=5)[0]
        rho = reduced_density(PureState(amps, shape), mask).entries
        assert np.array_equal(rho, rho.conj().T)
        want = reduced_density_bruteforce(amps, shape.dims, mask.positions)
        assert np.abs(rho - want).max() <= 1e-13

    @pytest.mark.parametrize("text, positions", [("2x3x2", [0, 2]), ("2^6", [1, 2, 4])])
    def test_real_state_keeps_the_symmetrized_gram_product(self, text, positions):
        # (G + G^T) / 2 of the Gram product against a separate copy, as
        # reduced_density computed it for real states before the real walk
        shape = FactorizationShape.parse(text)
        mask = SubsystemMask.from_positions(shape, positions)
        psi = state_from_ontic(random_ontic(shape.total, seed=9), shape)
        mats = bipartite_view(psi, mask)
        gram = mats @ mats.copy().T
        want = (gram + gram.T) / 2.0
        assert np.array_equal(reduced_density(psi, mask).entries, want)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(onticsim.reduction, "REDUCED_DENSITY_CAP", 2)
        shape = FactorizationShape((4, 4))
        psi = state_from_ontic(random_ontic(16, seed=5), shape)
        with pytest.raises(DimensionCap):
            reduced_density(psi, SubsystemMask.from_positions(shape, [0]))


class TestBruteForceOracle:
    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)])
    def test_agrees_with_fast_path(self, dims):
        shape = FactorizationShape(dims)
        rng = random.Random(6)
        for _ in range(20):
            psi = state_from_ontic(random_ontic(shape.total, rng=rng), shape)
            for mask in proper_masks(shape):
                fast = reduced_density(psi, mask).entries
                slow = bruteforce(psi, mask)
                assert np.abs(fast - slow).max() < 1e-12

    def test_shape_contract(self):
        shape = FactorizationShape((2, 3))
        psi = state_from_ontic(random_ontic(6, seed=7), shape)
        rho = bruteforce(psi, SubsystemMask.from_positions(shape, [1]))
        assert rho.shape == (3, 3)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_complement_spectra_match(self):
        # nonzero eigenvalues of the two halves of a bipartition agree
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(8)
        for _ in range(5):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            for mask in proper_masks(shape):
                lhs = np.linalg.eigvalsh(bruteforce(psi, mask))
                rhs = np.linalg.eigvalsh(bruteforce(psi, other_side(mask)))
                big_l = np.sort(lhs[lhs > 1e-10])[::-1]
                big_r = np.sort(rhs[rhs > 1e-10])[::-1]
                assert big_l.size == big_r.size
                np.testing.assert_allclose(big_l, big_r, atol=1e-10)


class TestPurity:
    def test_product_state(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        assert purity(psi, SubsystemMask.from_positions(shape, [0])) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_hand_value(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1000"), shape)
        assert purity(psi, SubsystemMask.from_positions(shape, [0])) == pytest.approx(
            7 / 9, abs=1e-14
        )

    def test_schmidt_symmetry(self):
        shape = FactorizationShape((2, 2, 2, 2))
        rng = random.Random(10)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(16, rng=rng), shape)
            for mask in proper_masks(shape):
                # purity picks one side for both; the complement's own
                # reduced matrix is the other side, computed separately
                own = purity_from_density(reduced_density(psi, other_side(mask)).entries)
                assert purity(psi, mask) == pytest.approx(own, abs=1e-12)

    def test_bounds(self):
        shape = FactorizationShape((2, 3, 2))
        rng = random.Random(11)
        for _ in range(10):
            psi = state_from_ontic(random_ontic(12, rng=rng), shape)
            for mask in proper_masks(shape):
                p = purity(psi, mask)
                floor = 1.0 / min(mask.dim, shape.total // mask.dim)
                assert floor - 1e-12 <= p <= 1.0 + 1e-12

    def test_complement_state_gives_identical_purity(self):
        # dyadic shape: the amplitude sign flip is exact, so the purity
        # computation is bit-identical
        shape = FactorizationShape((2, 2, 2))
        rng = random.Random(12)
        for _ in range(10):
            q = random_ontic(8, rng=rng)
            psi_q = state_from_ontic(q, shape)
            psi_nq = state_from_ontic(complement(q), shape)
            for mask in proper_masks(shape):
                assert purity(psi_q, mask) == purity(psi_nq, mask)

    def test_sum_formula_cross_path(self):
        # Gram fast path vs the explicit diagonal + off-diagonal sum
        for dims in [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2)]:
            shape = FactorizationShape(dims)
            rng = random.Random(13)
            for _ in range(20):
                psi = state_from_ontic(random_ontic(shape.total, rng=rng), shape)
                for mask in proper_masks(shape):
                    fast = purity(psi, mask)
                    slow = purity_from_density(reduced_density(psi, mask).entries)
                    assert abs(fast - slow) < 1e-12

    def test_complex_state_matches_sum_formula(self):
        # sweeps and evolve from subsets now run in float64; this keeps the
        # single-state complex path checked against the density-matrix sum
        for dims in [(2, 2, 2), (2, 3, 2), (3, 2, 2, 2)]:
            shape = FactorizationShape(dims)
            stack = phased(ontic_stack(shape, 4, seed=len(dims) + 40), seed=41)
            for amps in stack:
                psi = PureState(amps, shape)
                assert psi.amps.dtype == np.complex128
                for mask in proper_masks(shape):
                    slow = purity_from_density(reduced_density(psi, mask).entries)
                    assert abs(purity(psi, mask) - slow) < 1e-12

    def test_trivial_rejected(self):
        shape = FactorizationShape((2, 2))
        psi = state_from_ontic(bs("1001"), shape)
        with pytest.raises(TrivialSubsystem):
            purity(psi, SubsystemMask(0, shape))


class TestLargeScaleSymmetry:
    def test_full_width_pair_at_4096(self):
        # one complementary pair at the flagship scale; the sweep test
        # covers all of them
        shape = FactorizationShape.parse("2^12")
        psi = state_from_ontic(random_ontic(4096, seed=99), shape)
        mask = SubsystemMask.from_positions(shape, [0, 3, 5])
        own = purity_from_density(reduced_density(psi, other_side(mask)).entries)
        assert purity(psi, mask) == pytest.approx(own, abs=1e-11)


def ontic_stack(shape, count, seed):
    rng = random.Random(seed)
    return np.stack(
        [state_from_ontic(random_ontic(shape.total, rng=rng), shape).amps
         for _ in range(count)]
    )


def stacked_purity(stack, mask):
    """The purities of one mask for each row of an (S, N) stack, by the
    mask's one-mask ``Plan``."""
    return Plan(mask.shape, [mask.mask]).run(stack)[:, 0]


def phased(stack, seed):
    # a per-amplitude random phase keeps each row unit-norm and makes it
    # genuinely complex
    rng = np.random.default_rng(seed)
    return stack * np.exp(2j * np.pi * rng.random(stack.shape))


class TestGramStack:
    @pytest.mark.parametrize(
        "text, positions",
        [("2^6", [0, 2, 5]), ("2x2x2x100", [0, 1, 2]), ("2^10", [0, 1, 3, 4, 6, 9])],
        # 8 x 8; an 8-dim side against 100; a 64-dim side against 16, the
        # 4:1 of a 2^12 sweep's 128 x 32 hubs
        ids=["square", "narrow", "hub-like"],
    )
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("complex_amps", [False, True], ids=["real", "complex"])
    def test_matches_bruteforce_per_state(self, text, positions, count, complex_amps):
        shape = FactorizationShape.parse(text)
        mask = SubsystemMask.from_positions(shape, positions)
        stack = ontic_stack(shape, count, seed=len(text) + count)
        if complex_amps:
            stack = phased(stack, seed=count)
        buffers = (np.empty((2,) + stack.shape, stack.dtype), np.empty(count * mask.dim**2))
        rho = _gram_stack(stack, mask, buffers)
        # the real matrix S = Re rho + Im rho, which is rho for real states
        assert rho.dtype == np.float64
        assert rho.shape == (count, mask.dim, mask.dim)
        for row, amps in enumerate(stack):
            want = reduced_density_bruteforce(amps, shape.dims, mask.positions)
            if complex_amps:
                want = want.real + want.imag
            assert np.abs(rho[row] - want).max() <= 1e-13


class TestStackedPurity:
    @pytest.mark.parametrize("dims", [(2, 3, 2, 3, 2), (3, 2, 2), (2, 2, 3)])
    @pytest.mark.parametrize("complex_amps", [False, True])
    def test_matches_bruteforce_oracle(self, dims, complex_amps):
        shape = FactorizationShape(dims)
        stack = ontic_stack(shape, 3, seed=sum(dims))
        if complex_amps:
            stack = phased(stack, seed=len(dims))
        assert stack.dtype == (np.complex128 if complex_amps else np.float64)
        for mask in proper_masks(shape):
            got = stacked_purity(stack, mask)
            for row, amps in enumerate(stack):
                rho = reduced_density_bruteforce(amps, dims, mask.positions)
                assert abs(got[row] - purity_from_density(rho)) < 1e-12

    @pytest.mark.parametrize("text", ["3x2x2", "2x3x2x3x2", "2^8"])
    @pytest.mark.parametrize("complex_amps", [False, True])
    def test_row_alone_equals_row_in_stack(self, text, complex_amps):
        shape = FactorizationShape.parse(text)
        stack = ontic_stack(shape, 5, seed=21)
        if complex_amps:
            stack = phased(stack, seed=22)
        for mask in proper_masks(shape):
            together = stacked_purity(stack, mask)
            for row in range(len(stack)):
                alone = stacked_purity(stack[row:row + 1].copy(), mask)
                assert alone[0] == together[row]

    def test_out_of_range_purity_raises(self):
        shape = FactorizationShape((2, 3, 2))
        stack = ontic_stack(shape, 2, seed=24) * 1.5
        with pytest.raises(NumericViolation, match="state row 0"):
            stacked_purity(stack, SubsystemMask.from_positions(shape, [0]))

    def test_nan_purity_raises(self):
        shape = FactorizationShape((2, 3, 2))
        stack = ontic_stack(shape, 2, seed=24)
        stack[1, 5] = np.nan
        with pytest.raises(NumericViolation, match="purity nan of mask 0b1, state row 1"):
            stacked_purity(stack, SubsystemMask.from_positions(shape, [0]))

    def test_rejects_bad_inputs(self):
        shape = FactorizationShape((2, 3, 2))
        stack = ontic_stack(shape, 2, seed=25)
        with pytest.raises(TrivialSubsystem):
            stacked_purity(stack, SubsystemMask(0, shape))


class TestPlan:
    @pytest.mark.parametrize("text", ["2x3x2", "2^12"])
    def test_improper_mask_rejected_before_any_allocation(self, monkeypatch, text):
        shape = FactorizationShape.parse(text)
        calls = []
        empty = np.empty

        def spy_empty(*args, **kwargs):
            calls.append("np.empty")
            return empty(*args, **kwargs)

        def spy_gram(*args):
            calls.append("_gram_stack")

        monkeypatch.setattr(np, "empty", spy_empty)
        monkeypatch.setattr(onticsim.reduction, "_gram_stack", spy_gram)
        for mask in (0, (1 << shape.k) - 1):
            with pytest.raises(
                TrivialSubsystem, match="reduction needs a proper nonempty subset"
            ):
                Plan(shape, [mask])
            # after a proper mask too
            with pytest.raises(TrivialSubsystem):
                Plan(shape, [1, mask])
        assert calls == []

    @pytest.mark.parametrize("text", ["2x3x2", "2^12", "2x3x2x3x2x3x2x3"])
    def test_one_mask_walk_is_one_gram_step(self, text):
        shape = FactorizationShape.parse(text)
        for mask in range(1, (1 << shape.k) - 1):
            plan = Plan(shape, [mask])
            node = plan.walk[0, 0]
            assert plan.walk.tolist() == [[node, 0, 0]]
            assert node in (mask, mask ^ ((1 << shape.k) - 1))
            assert plan.nodes.tolist() == [node] and plan.index.tolist() == [0]
            assert list(plan.grams) == [node]


def assert_plan_is_the_reference(shape, masks):
    """Every array and list of the plan equal to the 0.24.0 planner's, or
    the same first rejection."""
    cap = onticsim.reduction.GRAM_DIM_CAP
    try:
        want = reference_plan(shape, masks, cap)
    except PlanRejected as rejected:
        with pytest.raises((TrivialSubsystem, ConfigError)) as raised:
            Plan(shape, masks)
        assert (type(raised.value).__name__, str(raised.value)) == rejected.args
        return
    plan = Plan(shape, masks)
    assert plan.walk.dtype == np.int64 and plan.walk.shape == (len(want["walk"]), 3)
    assert list(map(tuple, plan.walk.tolist())) == want["walk"]
    assert list(map(tuple, plan.traces.tolist())) == want["traces"]
    assert plan.sizes == want["sizes"]
    assert plan.nodes.tolist() == want["nodes"]
    assert plan.dims.tolist() == want["dims"]
    assert list(plan.grams) == want["grams"]
    assert plan.index.tolist() == want["index"]


@st.composite
def drawn_shape_and_masks(draw):
    """A shape of 2..7 positions of dimension 2..4, and a list of its proper
    masks with repeats and complement pairs, possibly a single mask."""
    shape = FactorizationShape(tuple(draw(st.lists(st.integers(2, 4), min_size=2, max_size=7))))
    full = (1 << shape.k) - 1
    masks = draw(st.lists(st.integers(1, full - 1), min_size=1, max_size=24))
    masks += [full ^ m for m in draw(st.lists(st.sampled_from(masks), max_size=8))]
    masks += draw(st.lists(st.sampled_from(masks), max_size=8))
    return shape, draw(st.permutations(masks))


class TestPlanAgainstReference:
    """The numpy planner against the pure-Python planner of 0.24.0 in
    ``tests/oracle.py``: every walk row and trace, ``sizes``, ``nodes``,
    ``dims``, the Gram steps' order and ``index``."""

    @pytest.mark.parametrize(
        "text", ["2^12", "2^14", "2x3x2x3x2x3x2x3", "3^7", "2x2x2x100", "2^6"]
    )
    def test_every_proper_mask(self, text):
        shape = FactorizationShape.parse(text)
        assert_plan_is_the_reference(shape, _enumerate_masks(SweepConfig(shape), random.Random(0)))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "text, sizes, samples",
        [("2^20", (1, 2, 3), 50), ("2x3x2x3x2x3", None, 4), ("2^6", (1, 2), 3)],
    )
    def test_sampled_policies(self, text, sizes, samples, seed):
        # CI's sampled sweeps, drawn as the sweep draws them
        shape = FactorizationShape.parse(text)
        config = SweepConfig(shape, seed=seed, subset_sizes=sizes, samples_per_size=samples)
        assert_plan_is_the_reference(shape, _enumerate_masks(config, random.Random(seed)))

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(drawn=drawn_shape_and_masks())
    def test_drawn_lists(self, drawn):
        assert_plan_is_the_reference(*drawn)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(drawn=drawn_shape_and_masks(), data=st.data())
    def test_first_rejected_mask(self, drawn, data):
        # empty and full masks among the list, and a cap some nodes exceed:
        # the first offending mask of the list names the error
        shape, masks = drawn
        full = (1 << shape.k) - 1
        for bad in data.draw(st.lists(st.sampled_from([0, full]), max_size=2)):
            masks.insert(data.draw(st.integers(0, len(masks))), bad)
        cap = data.draw(st.sampled_from([1, 2, 4, 8, onticsim.reduction.GRAM_DIM_CAP]))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(onticsim.reduction, "GRAM_DIM_CAP", cap)
            assert_plan_is_the_reference(shape, masks)


def plain_trace(rho, b, d, a):
    """The partial trace as one plain np.add after another over the
    diagonal-block views, in block order."""
    s = rho.shape[0]
    blocks = rho.reshape(s, b, d, a, b, d, a)
    total = blocks[:, :, 0, :, :, 0] + blocks[:, :, 1, :, :, 1]
    for k in range(2, d):
        total = total + blocks[:, :, k, :, :, k]
    return total.reshape(s, b * a, b * a)


class TestTrace:
    @pytest.mark.parametrize("a", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_equals_plain_sum_bit_for_bit(self, a, d, count, basis):
        # the short-run order (1 < a <= 4) iterates along b; every element
        # is still the same sum, so the bits agree exactly
        b = 5
        rng = np.random.default_rng(a * 100 + d * 10 + count)
        psi = rng.standard_normal((count, b * d * a, 7))
        if basis == "energy":
            psi = psi + 1j * rng.standard_normal(psi.shape)
        rho = psi @ psi.conj().transpose(0, 2, 1)
        # the walk's real matrix S = Re rho + Im rho, which is rho for real states
        rho = np.ascontiguousarray(rho.real + rho.imag)
        out = np.full(count * (b * a) ** 2 + 3, np.nan)
        got = _trace(rho, b, d, a, out)
        assert got.shape == (count, b * a, b * a)
        assert np.shares_memory(got, out)
        assert np.array_equal(got, plain_trace(rho, b, d, a))
        assert np.isnan(out[count * (b * a) ** 2 :]).all()

    def test_walk_runs_in_its_buffer_size_and_restores_the_callers(self, monkeypatch):
        # numpy's ufunc buffer size is WALK_BUFSIZE in every trace and the
        # caller's own after the walk, also when a step raises
        shape = FactorizationShape.parse("2^6")
        plan = Plan(shape, list(range(1, (1 << shape.k) - 1)))
        stack = ontic_stack(shape, 2, seed=11)
        want = plan.run(stack)
        trace, seen = _trace, []

        def spy(*args):
            seen.append(np.getbufsize())
            if len(seen) == 3:
                raise RuntimeError("step failed")
            return trace(*args)

        caller = np.setbufsize(4096)
        try:
            monkeypatch.setattr(onticsim.reduction, "_trace", spy)
            with pytest.raises(RuntimeError, match="step failed"):
                plan.run(stack)
            assert np.getbufsize() == 4096
            monkeypatch.setattr(onticsim.reduction, "_trace", trace)
            assert np.array_equal(plan.run(stack), want)
            assert np.getbufsize() == 4096
        finally:
            np.setbufsize(caller)
        assert seen == [onticsim.reduction.WALK_BUFSIZE] * 3
