"""Tests for the sweep driver, time series, and cycle census."""

import math
import random

import numpy as np
import pytest

import onticsim.experiment
from onticsim.bitstate import OnticVector, popcount, random_ontic
from onticsim.entropy import collision_entropy
from onticsim.errors import ConfigError, EmptyInput
from onticsim.experiment import (
    SweepConfig,
    plot_data_text,
    run_cycle_census,
    run_sweep,
    run_time_series,
    summarize_by_size,
    sweep_csv,
)
from onticsim.indexing import FactorizationShape, SubsystemMask
from onticsim.permrep import Permutation, evolve_ontic, random_permutation
from onticsim.reduction import purity
from onticsim.states import PureState, state_from_ontic


def bs(text):
    return OnticVector.from_bitstring(text)


class TestSweepConfig:
    def test_validates_basis(self):
        shape = FactorizationShape((2, 2))
        with pytest.raises(ConfigError):
            SweepConfig(shape=shape, basis="fourier").validate()
        with pytest.raises(ConfigError):
            SweepConfig(shape=shape, basis="energy").validate()
        with pytest.raises(ConfigError):
            SweepConfig(
                shape=shape, basis="ontic", generator=Permutation.identity(4)
            ).validate()

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

    def test_memory_budget(self):
        shape = FactorizationShape.parse("2^12")
        config = SweepConfig(shape=shape, num_states=1, gram_dim_cap=16)
        with pytest.raises(ConfigError):
            run_sweep(config)


class TestRunSweep:
    def test_record_count_all_proper(self):
        shape = FactorizationShape((2, 2, 2, 2))
        records = run_sweep(SweepConfig(shape=shape, num_states=3, seed=1))
        assert len(records) == 3 * ((1 << 4) - 2)

    def test_product_state_singletons_are_zero(self):
        # 1001 on (2,2) is a product state: both one-factor entropies vanish
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, ontic_vectors=(bs("1001"),))
        records = run_sweep(config)
        singles = [r for r in records if r.subset_size == 1]
        assert len(singles) == 2
        for r in singles:
            assert abs(r.s2_bits) < 1e-12

    def test_complement_pairs_match(self):
        shape = FactorizationShape((2, 3, 2))
        records = run_sweep(SweepConfig(shape=shape, num_states=4, seed=2))
        table = {(r.state_id, r.subset_mask): r.s2_bits for r in records}
        full = (1 << 3) - 1
        for (sid, mask), s2 in table.items():
            assert abs(s2 - table[(sid, full ^ mask)]) < 1e-11

    def test_record_ordering(self):
        shape = FactorizationShape((2, 2, 2))
        records = run_sweep(SweepConfig(shape=shape, num_states=2, seed=3))
        keys = [(r.state_id, r.subset_size, r.subset_mask) for r in records]
        assert keys == sorted(keys)

    def test_deterministic(self):
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=3, seed=4)
        assert run_sweep(config) == run_sweep(config)

    def test_subset_sizes_policy(self):
        shape = FactorizationShape((2,) * 5)
        records = run_sweep(
            SweepConfig(shape=shape, num_states=2, seed=6, subset_sizes=(1, 3))
        )
        assert {r.subset_size for r in records} == {1, 3}
        assert len(records) == 2 * (5 + 10)

    def test_sampled_policy_is_deterministic_subset(self):
        shape = FactorizationShape((2,) * 8)
        config = SweepConfig(shape=shape, num_states=2, seed=7, samples_per_size=3)
        records = run_sweep(config)
        per_size = {}
        for r in records:
            per_size.setdefault(r.subset_size, set()).add(r.subset_mask)
        for size, masks in per_size.items():
            assert len(masks) == min(3, math.comb(8, size))
        assert run_sweep(config) == records

    def test_density_controls_popcount(self):
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=5, seed=8, density=0.25)
        records = run_sweep(config)
        assert records  # sampling law is exercised via metadata below
        assert config.state_weight() == 16
        assert config.sampling_label() == "fixed-weight=16"

    def test_energy_basis_keeps_schmidt_symmetry(self):
        shape = FactorizationShape((2,) * 5)
        g = random_permutation(32, seed=9)
        records = run_sweep(
            SweepConfig(shape=shape, num_states=3, seed=9, basis="energy", generator=g)
        )
        table = {(r.state_id, r.subset_mask): r.s2_bits for r in records}
        full = (1 << 5) - 1
        for (sid, mask), s2 in table.items():
            assert abs(s2 - table[(sid, full ^ mask)]) < 1e-11

    def test_identity_generator_energy_equals_ontic(self):
        shape = FactorizationShape((2,) * 4)
        ontic = run_sweep(SweepConfig(shape=shape, num_states=2, seed=10))
        energy = run_sweep(
            SweepConfig(
                shape=shape,
                num_states=2,
                seed=10,
                basis="energy",
                generator=Permutation.identity(16),
            )
        )
        for a, b in zip(ontic, energy):
            assert a.purity == pytest.approx(b.purity, abs=1e-12)

    def test_complex_ontic_amplitudes_kept_complex(self, monkeypatch):
        # a unit phase keeps the norm and every purity; the sweep hands the
        # complex amplitudes to the kernel as they are
        config = SweepConfig(shape=FactorizationShape((2, 2, 2)), num_states=3, seed=4)
        real = run_sweep(config)
        dtypes = []

        def spy(stack, mask):
            dtypes.append(stack.dtype)
            return purity(stack, mask)

        def rotated(q, shape):
            return PureState(1j * state_from_ontic(q, shape).amps, shape)

        monkeypatch.setattr(onticsim.experiment, "purity", spy)
        monkeypatch.setattr(onticsim.experiment, "state_from_ontic", rotated)
        records = run_sweep(config)
        assert dtypes == [np.complex128] * 6
        assert [(r.state_id, r.subset_mask) for r in records] == [
            (r.state_id, r.subset_mask) for r in real
        ]
        for a, b in zip(real, records):
            assert abs(a.purity - b.purity) < 1e-12

    @pytest.mark.parametrize("basis", ["ontic", "energy"])
    def test_one_stacked_purity_call_per_mask(self, monkeypatch, basis):
        calls = []

        def counted(stack, mask):
            calls.append((stack.shape, stack.dtype))
            return purity(stack, mask)

        monkeypatch.setattr(onticsim.experiment, "purity", counted)
        shape = FactorizationShape((2, 2, 2))
        generator = Permutation.from_cycles(8, [(0, 3, 5)]) if basis == "energy" else None
        run_sweep(SweepConfig(shape=shape, num_states=3, seed=4,
                              basis=basis, generator=generator))
        dtype = np.float64 if basis == "ontic" else np.complex128
        assert calls == [((3, 8), dtype)] * 6

    def test_records_satisfy_bounds(self):
        shape = FactorizationShape((2,) * 6)
        records = run_sweep(SweepConfig(shape=shape, num_states=3, seed=11))
        for r in records:
            cap = min(r.subset_size, 6 - r.subset_size) * 1.0
            assert -1e-12 <= r.s2_bits <= cap + 1e-9
            assert r.s2_bits == pytest.approx(-math.log2(r.purity), abs=1e-12)


class TestSummaries:
    def test_symmetric_sizes_agree(self):
        shape = FactorizationShape((2,) * 6)
        records = run_sweep(SweepConfig(shape=shape, num_states=3, seed=12))
        summary = summarize_by_size(records, k=6)
        rows = {row.size: row for row in summary.by_size}
        for a in (1, 2):
            assert rows[a].mean_s2 == pytest.approx(rows[6 - a].mean_s2, abs=1e-11)
            assert rows[a].min_s2 == pytest.approx(rows[6 - a].min_s2, abs=1e-11)
            assert rows[a].max_s2 == pytest.approx(rows[6 - a].max_s2, abs=1e-11)

    def test_single_record(self):
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, ontic_vectors=(bs("1000"),), subset_sizes=(1,))
        records = run_sweep(config)
        summary = summarize_by_size(records[:1], k=2)
        row = summary.by_size[0]
        assert row.min_s2 == row.max_s2 == row.mean_s2
        assert row.std_s2 == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            summarize_by_size([], k=2)

    def test_asymmetry_reported(self):
        shape = FactorizationShape((2, 2, 2))
        records = run_sweep(SweepConfig(shape=shape, num_states=2, seed=13))
        summary = summarize_by_size(records, k=3)
        assert summary.max_complement_asymmetry < 1e-12


class TestCsvOutput:
    def test_byte_identical_reruns(self):
        shape = FactorizationShape((2,) * 6)
        config = SweepConfig(shape=shape, num_states=3, seed=14)
        text_a = sweep_csv(run_sweep(config), config)
        text_b = sweep_csv(run_sweep(config), config)
        assert text_a.encode() == text_b.encode()

    def test_schema(self):
        shape = FactorizationShape((2, 2))
        config = SweepConfig(shape=shape, num_states=1, seed=15)
        text = sweep_csv(run_sweep(config), config)
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
        records = run_sweep(config)
        text = plot_data_text(records, config)
        assert "size,count,min_s2,mean_s2,max_s2,std_s2,state_mean_std" in text
        assert "max_complement_asymmetry=" in text
        data_rows = [
            ln for ln in text.strip().split("\n")
            if ln and not ln.startswith("#") and not ln.startswith("size,")
        ]
        assert len(data_rows) == 3  # sizes 1..3


class TestTimeSeries:
    def test_identity_generator_constant(self):
        shape = FactorizationShape((2, 2, 2))
        q = random_ontic(8, seed=17)
        g = Permutation.identity(8)
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
        g = Permutation.identity(4)
        mask = SubsystemMask.from_positions(shape, [0])
        with pytest.raises(ConfigError):
            run_time_series(shape, q, g, mask, range(3))

    def test_two_path_oracle(self):
        # evolving the subset then building the state must reproduce the
        # series computed by evolving the state
        shape = FactorizationShape((2, 2, 2))
        g = Permutation.from_cycles(8, [[0, 1, 2, 3, 4, 5, 6]])  # 7-cycle + fixed point
        assert g.order == 7
        rng = random.Random(20)
        mask = SubsystemMask.from_positions(shape, [0, 2])
        for _ in range(5):
            q = random_ontic(8, rng=rng)
            series = run_time_series(shape, q, g, mask, range(7))
            for t, s2 in series:
                q_t = evolve_ontic(g, q, t)
                expected = collision_entropy(
                    purity(state_from_ontic(q_t, shape), mask)
                )
                assert s2 == pytest.approx(expected, abs=1e-12)

    def test_ontic_start_runs_in_float64(self, monkeypatch):
        shape = FactorizationShape((2, 3, 2, 2))
        q = random_ontic(24, seed=21)
        g = random_permutation(24, seed=22)
        mask = SubsystemMask.from_positions(shape, [0, 1])
        dtypes = []

        def spy(psi, mask):
            dtypes.append(psi.amps.dtype)
            return purity(psi, mask)

        def as_complex(q, shape):
            return PureState(state_from_ontic(q, shape).amps.astype(np.complex128), shape)

        monkeypatch.setattr(onticsim.experiment, "purity", spy)
        real = run_time_series(shape, q, g, mask, range(g.order))
        assert dtypes == [np.float64] * g.order
        dtypes.clear()
        monkeypatch.setattr(onticsim.experiment, "state_from_ontic", as_complex)
        cast = run_time_series(shape, q, g, mask, range(g.order))
        assert dtypes == [np.complex128] * g.order
        for (t, a), (u, b) in zip(real, cast):
            assert t == u
            assert abs(a - b) < 1e-12


class TestCycleCensus:
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
