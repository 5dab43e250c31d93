"""Tests for repro.pdn.geometry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn.geometry import (
    DieArea,
    TileGrid,
    distance_to_bumps,
    jittered_bump_array,
    uniform_bump_array,
)


class TestDieArea:
    def test_area(self):
        assert DieArea(100.0, 200.0).area == pytest.approx(20000.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DieArea(0.0, 10.0)
        with pytest.raises(ValueError):
            DieArea(10.0, -1.0)

    def test_contains(self):
        die = DieArea(100.0, 50.0)
        assert die.contains(0.0, 0.0)
        assert die.contains(100.0, 50.0)
        assert not die.contains(101.0, 10.0)
        assert not die.contains(10.0, -0.1)

    def test_grid_points_inside_die(self):
        die = DieArea(100.0, 60.0)
        xs, ys = die.grid_points(5, 3)
        assert xs.shape == (5,) and ys.shape == (3,)
        assert xs.min() > 0 and xs.max() < die.width
        assert ys.min() > 0 and ys.max() < die.height

    def test_grid_points_rejects_zero(self):
        with pytest.raises(ValueError):
            DieArea(10, 10).grid_points(0, 3)


class TestTileGrid:
    def test_shape_and_counts(self):
        grid = TileGrid(DieArea(100.0, 80.0), m=4, n=5)
        assert grid.shape == (4, 5)
        assert grid.num_tiles == 20
        assert grid.tile_width == pytest.approx(20.0)
        assert grid.tile_height == pytest.approx(20.0)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            TileGrid(DieArea(10, 10), 0, 3)

    def test_tile_of_far_edge_clamped(self):
        grid = TileGrid(DieArea(100.0, 100.0), 10, 10)
        row, col = grid.tile_of(np.array([100.0]), np.array([100.0]))
        assert row[0] == 9 and col[0] == 9

    def test_tile_of_matches_manual_partition(self):
        grid = TileGrid(DieArea(100.0, 100.0), 4, 4)
        row, col = grid.tile_of(np.array([30.0]), np.array([60.0]))
        assert (row[0], col[0]) == (2, 1)

    def test_flat_index_roundtrip(self):
        grid = TileGrid(DieArea(10, 10), 3, 7)
        rows, cols = np.meshgrid(np.arange(3), np.arange(7), indexing="ij")
        flat = grid.flat_index(rows.ravel(), cols.ravel())
        assert sorted(flat.tolist()) == list(range(21))

    def test_tile_centers_shape_and_bounds(self):
        grid = TileGrid(DieArea(100.0, 50.0), 5, 10)
        centers = grid.tile_centers()
        assert centers.shape == (5, 10, 2)
        assert centers[..., 0].max() < 100.0 and centers[..., 1].max() < 50.0

    def test_aggregate_sum_conserves_total(self, rng):
        grid = TileGrid(DieArea(100.0, 100.0), 6, 6)
        x = rng.uniform(0, 100, 200)
        y = rng.uniform(0, 100, 200)
        values = rng.random(200)
        summed = grid.aggregate(x, y, values, reduce="sum")
        assert summed.shape == (6, 6)
        assert summed.sum() == pytest.approx(values.sum())

    def test_aggregate_count(self, rng):
        grid = TileGrid(DieArea(10.0, 10.0), 2, 2)
        x = rng.uniform(0, 10, 50)
        y = rng.uniform(0, 10, 50)
        counts = grid.aggregate(x, y, np.ones(50), reduce="count")
        assert counts.sum() == pytest.approx(50)

    def test_aggregate_max(self):
        grid = TileGrid(DieArea(10.0, 10.0), 1, 2)
        x = np.array([1.0, 2.0, 8.0])
        y = np.array([5.0, 5.0, 5.0])
        out = grid.aggregate(x, y, np.array([3.0, 7.0, 2.0]), reduce="max")
        assert out[0, 0] == 7.0 and out[0, 1] == 2.0

    def test_aggregate_unknown_mode(self):
        grid = TileGrid(DieArea(10, 10), 2, 2)
        with pytest.raises(ValueError):
            grid.aggregate(np.array([1.0]), np.array([1.0]), np.array([1.0]), reduce="median")

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        num_points=st.integers(1, 60),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_point_maps_to_valid_tile(self, m, n, num_points, seed):
        grid = TileGrid(DieArea(123.0, 77.0), m, n)
        generator = np.random.default_rng(seed)
        x = generator.uniform(0, 123.0, num_points)
        y = generator.uniform(0, 77.0, num_points)
        row, col = grid.tile_of(x, y)
        assert np.all((row >= 0) & (row < m))
        assert np.all((col >= 0) & (col < n))


class TestBumpArrays:
    def test_uniform_count_and_bounds(self):
        die = DieArea(100.0, 100.0)
        bumps = uniform_bump_array(die, 4, 5)
        assert bumps.shape == (20, 2)
        assert bumps.min() >= 0 and bumps[:, 0].max() <= die.width

    def test_uniform_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            uniform_bump_array(DieArea(10, 10), 2, 2, margin_fraction=0.6)

    def test_jittered_reproducible_and_in_bounds(self):
        die = DieArea(100.0, 100.0)
        a = jittered_bump_array(die, 3, 3, seed=7)
        b = jittered_bump_array(die, 3, 3, seed=7)
        np.testing.assert_allclose(a, b)
        assert a[:, 0].min() >= 0 and a[:, 0].max() <= 100.0

    def test_jittered_differs_from_uniform(self):
        die = DieArea(100.0, 100.0)
        uniform = uniform_bump_array(die, 3, 3)
        jittered = jittered_bump_array(die, 3, 3, jitter_fraction=0.2, seed=1)
        assert not np.allclose(uniform, jittered)


class TestDistanceToBumps:
    def test_shape(self):
        grid = TileGrid(DieArea(100.0, 100.0), 4, 6)
        bumps = np.array([[10.0, 10.0], [90.0, 90.0]])
        distance = distance_to_bumps(grid, bumps)
        assert distance.shape == (2, 4, 6)

    def test_zero_distance_at_bump_tile_center(self):
        grid = TileGrid(DieArea(100.0, 100.0), 2, 2)
        centers = grid.tile_centers()
        bumps = centers.reshape(-1, 2)[:1]
        distance = distance_to_bumps(grid, bumps)
        assert distance.min() == pytest.approx(0.0)

    def test_values_match_manual_euclidean(self):
        grid = TileGrid(DieArea(10.0, 10.0), 1, 1)
        bumps = np.array([[0.0, 0.0]])
        distance = distance_to_bumps(grid, bumps)
        assert distance[0, 0, 0] == pytest.approx(np.hypot(5.0, 5.0))

    def test_rejects_bad_shape(self):
        grid = TileGrid(DieArea(10.0, 10.0), 2, 2)
        with pytest.raises(ValueError):
            distance_to_bumps(grid, np.zeros((3, 3)))
