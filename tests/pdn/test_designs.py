"""Tests for repro.pdn.designs."""

import numpy as np
import pytest

from repro.pdn import (
    DesignSpec,
    design_from_name,
    make_design,
    reference_design,
    reference_design_names,
    small_test_design,
)


class TestDesignSpec:
    def test_defaults_valid(self):
        spec = DesignSpec()
        assert spec.tile_shape == (32, 32)
        assert spec.hotspot_threshold == pytest.approx(0.1)
        assert spec.num_bumps == 64

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DesignSpec(die_width=0.0)
        with pytest.raises(ValueError):
            DesignSpec(total_current=-1.0)
        with pytest.raises(ValueError):
            DesignSpec(tile_rows=0)
        with pytest.raises(ValueError):
            DesignSpec(layers=())


class TestMakeDesign:
    def test_small_design_structure(self, tiny_design):
        assert tiny_design.num_nodes > 0
        assert tiny_design.num_loads == 48
        assert tiny_design.tile_grid.shape == (8, 8)
        assert tiny_design.load_tile_index.shape == (48,)
        assert tiny_design.node_tile_index.shape == (tiny_design.num_nodes,)

    def test_reproducible_from_seed(self):
        a = small_test_design(seed=9)
        b = small_test_design(seed=9)
        np.testing.assert_allclose(a.loads.locations, b.loads.locations)
        np.testing.assert_allclose(a.grid.bump_xy, b.grid.bump_xy)

    def test_different_seeds_differ(self):
        a = small_test_design(seed=1)
        b = small_test_design(seed=2)
        assert not np.allclose(a.loads.locations, b.loads.locations)

    def test_summary_fields(self, tiny_design):
        summary = tiny_design.summary()
        assert summary["name"] == "unit-test"
        assert summary["tile_grid"] == "8x8"
        assert summary["num_loads"] == 48


class TestReferenceDesigns:
    def test_names(self):
        assert reference_design_names() == ("D1", "D2", "D3", "D4")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            reference_design("D9", scale=0.1)

    def test_scaled_d1_structure(self):
        design = reference_design("D1", scale=0.2, seed=0)
        assert design.name == "D1"
        assert design.tile_grid.m >= 8
        assert design.num_loads >= 50
        assert design.mna.num_inductors == design.grid.num_bumps

    def test_full_scale_tile_grids_match_paper(self):
        # Only check the spec (building the full designs is expensive).
        from repro.pdn.designs import _reference_spec

        assert _reference_spec("D1", 1.0).tile_shape == (50, 50)
        assert _reference_spec("D2", 1.0).tile_shape == (130, 130)
        assert _reference_spec("D3", 1.0).tile_shape == (70, 50)
        assert _reference_spec("D4", 1.0).tile_shape == (180, 180)

    def test_scale_preserves_current_density(self):
        from repro.pdn.designs import _reference_spec

        full = _reference_spec("D1", 1.0)
        quarter = _reference_spec("D1", 0.5)
        full_density = full.total_current / (full.die_width * full.die_height)
        quarter_density = quarter.total_current / (quarter.die_width * quarter.die_height)
        assert quarter_density == pytest.approx(full_density, rel=1e-6)

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            reference_design("D1", scale=0.0)

    def test_larger_designs_have_more_nodes(self):
        d1 = reference_design("D1", scale=0.15, seed=0)
        d4 = reference_design("D4", scale=0.15, seed=0)
        assert d4.num_nodes > d1.num_nodes


class TestDefaultDesignFactory:
    """The gateway's default factory, ``design_from_name``."""

    def test_small_names(self):
        design = design_from_name("small")
        assert design.tile_grid.shape == (8, 8)
        sized = design_from_name("small@6")
        assert sized.tile_grid.shape == (6, 6)

    def test_reference_names_with_scale(self):
        design = design_from_name("D1@0.1")
        assert design.name == "D1"
