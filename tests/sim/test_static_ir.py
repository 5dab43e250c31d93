"""Tests for repro.sim.static_ir."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.static_ir import StaticIRAnalysis, run_static_analysis


class TestStaticIRAnalysis:
    def test_matches_direct_sparse_solve(self, tiny_design):
        analysis = StaticIRAnalysis(tiny_design.mna)
        currents = tiny_design.loads.nominal_currents
        droop = analysis.solve(currents)
        reference = sp.linalg.spsolve(
            tiny_design.mna.static_conductance(), tiny_design.mna.load_vector(currents)
        )
        np.testing.assert_allclose(droop, reference, rtol=1e-8)

    def test_linearity(self, tiny_design):
        analysis = StaticIRAnalysis(tiny_design.mna)
        currents = tiny_design.loads.nominal_currents
        np.testing.assert_allclose(
            analysis.solve(2.0 * currents), 2.0 * analysis.solve(currents), rtol=1e-9
        )

    def test_droop_positive_under_positive_load(self, tiny_design):
        analysis = StaticIRAnalysis(tiny_design.mna)
        droop = analysis.solve(tiny_design.loads.nominal_currents)
        assert droop.min() >= -1e-12

    def test_zero_current_zero_droop(self, tiny_design):
        analysis = StaticIRAnalysis(tiny_design.mna)
        droop = analysis.solve(np.zeros(tiny_design.num_loads))
        np.testing.assert_allclose(droop, 0.0, atol=1e-15)

    def test_rejects_nan_currents(self, tiny_design):
        analysis = StaticIRAnalysis(tiny_design.mna)
        bad = tiny_design.loads.nominal_currents.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError):
            analysis.solve(bad)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(bad=st.sampled_from([np.nan, np.inf, -np.inf]), where=st.integers(0, 2**16))
    def test_rejects_non_finite_load_currents(self, tiny_design, bad, where):
        # The linear solver does not scan right-hand sides; static loads are
        # checked here, where they enter.
        currents = tiny_design.loads.nominal_currents.copy()
        currents[where % currents.size] = bad
        with pytest.raises(ValueError, match="load_currents"):
            StaticIRAnalysis(tiny_design.mna).solve(currents)


class TestRunStaticAnalysis:
    def test_returns_tile_map(self, tiny_design):
        result = run_static_analysis(tiny_design)
        assert result.tile_map.shape == tiny_design.tile_grid.shape
        assert result.worst_case > 0

    def test_tile_map_maxima_consistent_with_nodes(self, tiny_design):
        result = run_static_analysis(tiny_design)
        die_droop = result.node_droop[: tiny_design.mna.num_die_nodes]
        assert result.tile_map.max() == pytest.approx(die_droop.max())

    def test_custom_currents(self, tiny_design):
        low = run_static_analysis(tiny_design, 0.1 * tiny_design.loads.nominal_currents)
        high = run_static_analysis(tiny_design, tiny_design.loads.nominal_currents)
        assert high.worst_case > low.worst_case

    def test_loads_near_bumps_droop_less_than_far_loads(self, tiny_design):
        # Sanity check of the physics behind the distance feature: the tile
        # containing a bump should droop no more than the worst tile.
        result = run_static_analysis(tiny_design)
        bump_xy = tiny_design.grid.bump_xy
        rows, cols = tiny_design.tile_grid.tile_of(bump_xy[:, 0], bump_xy[:, 1])
        bump_tile_droop = result.tile_map[rows, cols].mean()
        assert bump_tile_droop <= result.tile_map.max()
