"""Tests for repro.sim.waveform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.waveform import CurrentTrace, VoltageWaveform, per_tile_maximum


class TestCurrentTrace:
    def test_basic_properties(self):
        trace = CurrentTrace(np.ones((10, 3)), dt=1e-12, name="t")
        assert trace.num_steps == 10
        assert trace.num_loads == 3
        assert trace.duration == pytest.approx(1e-11)
        assert trace.times.shape == (10,)

    def test_total_current(self):
        currents = np.arange(12, dtype=float).reshape(4, 3)
        trace = CurrentTrace(currents, 1e-12)
        np.testing.assert_allclose(trace.total_current(), currents.sum(axis=1))

    def test_scaled(self):
        trace = CurrentTrace(np.ones((5, 2)), 1e-12)
        assert trace.scaled(2.0).currents.max() == pytest.approx(2.0)

    def test_rejects_negative_currents(self):
        with pytest.raises(ValueError):
            CurrentTrace(-np.ones((5, 2)), 1e-12)

    def test_rejects_nan(self):
        currents = np.ones((5, 2))
        currents[0, 0] = np.nan
        with pytest.raises(ValueError):
            CurrentTrace(currents, 1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
        steps=st.integers(1, 12),
        loads=st.integers(1, 6),
        where=st.integers(0, 2**16),
    )
    def test_rejects_non_finite_currents(self, bad, steps, loads, where):
        # The linear solver does not scan right-hand sides; trace currents
        # are checked here, where they enter.
        currents = np.ones((steps, loads))
        currents.flat[where % currents.size] = bad
        with pytest.raises(ValueError, match="currents"):
            CurrentTrace(currents, 1e-12)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            CurrentTrace(np.ones(5), 1e-12)


class TestVoltageWaveform:
    def test_worst_case_reductions(self):
        droops = np.array([[0.1, 0.2], [0.3, 0.1]])
        waveform = VoltageWaveform(droops, 1e-12)
        assert waveform.worst_case() == pytest.approx(0.3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            VoltageWaveform(np.ones(5), 1e-12)


class TestPerTileMaximum:
    def test_basic(self):
        values = np.array([1.0, 5.0, 2.0, 0.5])
        tiles = np.array([0, 0, 1, 1])
        np.testing.assert_allclose(per_tile_maximum(values, tiles, 3), [5.0, 2.0, 0.0])

    def test_empty_tiles_are_zero(self):
        out = per_tile_maximum(np.array([1.0]), np.array([2]), 4)
        np.testing.assert_allclose(out, [0.0, 0.0, 1.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            per_tile_maximum(np.ones(3), np.zeros(4, dtype=int), 2)

    @given(seed=st.integers(0, 200), num_values=st.integers(1, 100), num_tiles=st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_max_decomposition_equals_global_max(self, seed, num_values, num_tiles):
        # Eq. 2 of the paper: max over tiles of per-tile maxima == global max.
        generator = np.random.default_rng(seed)
        values = generator.random(num_values)
        tiles = generator.integers(0, num_tiles, num_values)
        per_tile = per_tile_maximum(values, tiles, num_tiles)
        assert per_tile.max() == pytest.approx(values.max())
