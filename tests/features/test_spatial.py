"""Tests for repro.features.spatial."""

import numpy as np
import pytest

from repro.features.spatial import (
    load_current_maps,
    tile_incidence_matrix,
)
from repro.sim.waveform import CurrentTrace


class TestTileIncidenceMatrix:
    def test_one_hot_rows(self):
        incidence = tile_incidence_matrix(np.array([0, 2, 2]), 3)
        dense = incidence.toarray()
        np.testing.assert_allclose(dense.sum(axis=1), 1.0)
        assert dense[1, 2] == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tile_incidence_matrix(np.array([0, 5]), 3)

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            tile_incidence_matrix(np.zeros((2, 2), dtype=int), 4)


class TestLoadCurrentMaps:
    def test_shape_and_conservation(self, tiny_design, tiny_traces):
        trace = tiny_traces[0]
        maps = load_current_maps(trace, tiny_design)
        assert maps.shape == (trace.num_steps,) + tiny_design.tile_grid.shape
        # Tiling conserves the total current at every stamp.
        np.testing.assert_allclose(
            maps.reshape(trace.num_steps, -1).sum(axis=1), trace.total_current(), rtol=1e-12
        )

    def test_load_count_mismatch_rejected(self, tiny_design):
        bad = CurrentTrace(np.ones((5, 3)), 1e-11)
        with pytest.raises(ValueError):
            load_current_maps(bad, tiny_design)
