"""Tests for repro.workloads.vectors."""

import numpy as np
import pytest

from repro.workloads.activity import DEFAULT_MAX_ACTIVITY
from repro.workloads.vectors import (
    TOGGLE_JITTER,
    TestVectorGenerator,
    VectorConfig,
    generate_test_vectors,
)


class TestVectorConfig:
    def test_defaults_valid(self):
        config = VectorConfig()
        assert config.num_steps > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_steps": 1},
            {"dt": 0.0},
            # The activity shape is module constants, not fields: any value
            # for them is refused.
            {"baseline_range": (0.5, 0.1)},
            {"peak_range": (0.0, 1.0)},
            {"events_per_cluster": (3, 1)},
            {"toggle_jitter": -0.1},
            {"resonance_probability": 1.5},
            {"idle_probability": -0.2},
            {"max_activity": 0.1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        error = ValueError if set(kwargs) <= {"num_steps", "dt"} else TypeError
        with pytest.raises(error):
            VectorConfig(**kwargs)


class TestTestVectorGenerator:
    def test_trace_dimensions(self, tiny_design):
        config = VectorConfig(num_steps=50)
        generator = TestVectorGenerator(tiny_design, config)
        trace = generator.generate(seed=0)
        assert trace.num_steps == 50
        assert trace.num_loads == tiny_design.num_loads
        assert trace.dt == config.dt

    def test_currents_nonnegative_and_bounded(self, tiny_design):
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=100))
        trace = generator.generate(seed=1)
        assert trace.currents.min() >= 0.0
        upper = (1 + TOGGLE_JITTER) * DEFAULT_MAX_ACTIVITY
        per_load_ratio = trace.currents / tiny_design.loads.nominal_currents[np.newaxis, :]
        assert per_load_ratio.max() <= upper + 1e-9

    def test_reproducible_with_seed(self, tiny_design):
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=40))
        a = generator.generate(seed=7)
        b = generator.generate(seed=7)
        np.testing.assert_allclose(a.currents, b.currents)

    def test_different_seeds_differ(self, tiny_design):
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=40))
        a = generator.generate(seed=1)
        b = generator.generate(seed=2)
        assert not np.allclose(a.currents, b.currents)

    def test_suite_generation(self, tiny_design):
        traces = generate_test_vectors(tiny_design, 5, VectorConfig(num_steps=30), seed=0)
        assert len(traces) == 5
        assert traces[0].name.endswith("v0000")
        assert all(trace.num_steps == 30 for trace in traces)

    def test_suite_reproducible(self, tiny_design):
        first = generate_test_vectors(tiny_design, 3, VectorConfig(num_steps=20), seed=4)
        second = generate_test_vectors(tiny_design, 3, VectorConfig(num_steps=20), seed=4)
        for a, b in zip(first, second):
            np.testing.assert_allclose(a.currents, b.currents)

    def test_suite_vectors_are_distinct(self, tiny_design):
        traces = generate_test_vectors(tiny_design, 3, VectorConfig(num_steps=20), seed=4)
        assert not np.allclose(traces[0].currents, traces[1].currents)

    def test_suite_rejects_zero_count(self, tiny_design):
        with pytest.raises(ValueError):
            generate_test_vectors(tiny_design, 0)

    def test_resonance_steps_positive(self, tiny_design):
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=30))
        assert generator.resonance_steps >= 2

    def test_ramp_event_contributes_at_two_steps(self, tiny_design):
        # With num_steps == 2 the ramp window can shrink to one stamp, where
        # linspace(0, peak, 1) used to contribute exactly nothing; the fixed
        # event always reaches its peak.
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=2))
        time_index = np.arange(2)
        for seed in range(64):
            event = generator._event(np.random.default_rng(seed), time_index, "ramp", 1.3)
            assert event.max() == pytest.approx(1.3)

    def test_ramp_event_unchanged_for_regular_lengths(self, tiny_design):
        # The degenerate-ramp fix must not touch ordinary traces: spans >= 2
        # keep the exact linspace profile.
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=40))
        time_index = np.arange(40)
        rng = np.random.default_rng(5)
        reference_rng = np.random.default_rng(5)
        event = generator._event(rng, time_index, "ramp", 1.0)
        reference_rng.uniform(0.1, 0.9)  # the event-center draw
        start = int(reference_rng.uniform(0.05, 0.6) * 40)
        length = max(2, int(reference_rng.uniform(0.1, 0.4) * 40))
        end = min(40, start + length)
        expected = np.zeros(40)
        expected[start:end] = np.linspace(0.0, 1.0, end - start)
        expected[end:] = 1.0
        np.testing.assert_array_equal(event, expected)

    def test_loads_in_same_cluster_correlate(self, tiny_design):
        # Cluster-level activity should make same-cluster loads more
        # correlated than loads from different clusters, on average.
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=200))
        trace = generator.generate(seed=3)
        cluster_ids = tiny_design.loads.cluster_id
        cluster_members = np.nonzero(cluster_ids == 0)[0]
        other_members = np.nonzero(cluster_ids == 1)[0]
        if len(cluster_members) >= 2 and len(other_members) >= 1:
            same = np.corrcoef(trace.currents[:, cluster_members[0]], trace.currents[:, cluster_members[1]])[0, 1]
            cross = np.corrcoef(trace.currents[:, cluster_members[0]], trace.currents[:, other_members[0]])[0, 1]
            assert same > cross - 0.5  # same-cluster at least comparable
