"""Tests for repro.sim.dynamic_noise."""

import numpy as np
import pytest

from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro.sim.transient import TransientOptions
from repro.sim.waveform import CurrentTrace


@pytest.fixture(scope="module")
def analysis_and_result(tiny_design, tiny_traces):
    analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
    return analysis, analysis.run(tiny_traces[0])


class TestDynamicNoiseAnalysis:
    def test_tile_map_shape(self, tiny_design, analysis_and_result):
        _, result = analysis_and_result
        assert result.tile_noise.shape == tiny_design.tile_grid.shape
        assert result.node_noise.shape == (tiny_design.mna.num_die_nodes,)

    def test_worst_noise_equals_tile_maximum(self, analysis_and_result):
        _, result = analysis_and_result
        assert result.worst_noise == pytest.approx(result.node_noise.max())
        assert result.tile_noise.max() == pytest.approx(result.worst_noise, rel=1e-9)

    def test_hotspot_map_consistent_with_threshold(self, tiny_design, analysis_and_result):
        _, result = analysis_and_result
        threshold = tiny_design.spec.hotspot_threshold
        np.testing.assert_array_equal(result.hotspot_map, result.tile_noise > threshold)
        assert 0.0 <= result.hotspot_map.mean() <= 1.0

    def test_runtime_recorded(self, analysis_and_result):
        _, result = analysis_and_result
        assert result.runtime_seconds > 0

    def test_run_many_reuses_engine(self, tiny_design, tiny_traces):
        analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
        results = analysis.run_many(tiny_traces[:3])
        assert len(results) == 3
        assert all(r.tile_noise.shape == tiny_design.tile_grid.shape for r in results)

    def test_scaling_currents_scales_noise(self, tiny_design, tiny_traces):
        analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
        base = analysis.run(tiny_traces[0])
        double = analysis.run(tiny_traces[0].scaled(2.0))
        # The PDN is linear: doubling all currents doubles every droop.
        np.testing.assert_allclose(double.tile_noise, 2.0 * base.tile_noise, rtol=1e-6)

    def test_more_current_more_hotspots(self, tiny_design, tiny_traces):
        analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
        base = analysis.run(tiny_traces[0])
        double = analysis.run(tiny_traces[0].scaled(2.0))
        assert double.hotspot_map.mean() >= base.hotspot_map.mean()

    def test_rejects_bad_dt(self, tiny_design):
        with pytest.raises(ValueError):
            DynamicNoiseAnalysis(tiny_design, dt=-1e-12)


class TestRunManyBatched:
    def test_matches_per_vector_run(self, tiny_design, tiny_traces):
        analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
        batched = analysis.run_many(tiny_traces[:4])
        for trace, block in zip(tiny_traces, batched):
            single = analysis.run(trace)
            np.testing.assert_allclose(
                block.tile_noise, single.tile_noise, rtol=1e-12, atol=1e-16
            )
            np.testing.assert_array_equal(block.hotspot_map, single.hotspot_map)
            assert block.worst_noise == pytest.approx(single.worst_noise, rel=1e-12)

    def test_runtime_split_evenly(self, tiny_design, tiny_traces):
        analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
        # One lockstep block: its wall clock is split evenly over its traces.
        shares = {result.runtime_seconds for result in analysis.engine.run_many(tiny_traces[:4])}
        assert len(shares) == 1
        assert shares.pop() > 0
        # Each vector then adds its own tile reduction, a small fraction.
        results = analysis.run_many(tiny_traces[:4])
        runtimes = np.array([result.runtime_seconds for result in results])
        assert np.all(runtimes > 0)
        assert np.ptp(runtimes) < runtimes.min()

    def test_empty_batch(self, tiny_design):
        analysis = DynamicNoiseAnalysis(tiny_design, 1e-11)
        assert analysis.run_many([]) == []

    def test_batch_size_forwarded(self, tiny_design, tiny_traces):
        analysis = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt)
        whole = analysis.run_many(tiny_traces[:4])
        chunked = analysis.run_many(tiny_traces[:4], batch_size=2)
        for a, b in zip(whole, chunked):
            np.testing.assert_allclose(a.tile_noise, b.tile_noise, rtol=1e-12, atol=1e-16)
