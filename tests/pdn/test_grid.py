"""Tests for repro.pdn.grid."""

import numpy as np
import pytest

from repro.pdn.geometry import DieArea, TileGrid, uniform_bump_array
from repro.pdn.grid import (
    GridLayer,
    build_power_grid,
    load_tile_indices,
    node_tile_indices,
)


@pytest.fixture()
def simple_grid():
    die = DieArea(100.0, 100.0)
    layers = [
        GridLayer("M1", nx=8, ny=8, sheet_resistance=0.01),
        GridLayer("M5", nx=4, ny=4, sheet_resistance=0.005),
    ]
    bumps = uniform_bump_array(die, 2, 2)
    loads = np.array([[10.0, 10.0], [50.0, 50.0], [90.0, 90.0]])
    return build_power_grid(die, layers, bumps, loads)


class TestGridLayer:
    def test_node_count(self):
        assert GridLayer("M1", 5, 7, 0.01).num_nodes == 35

    def test_rejects_tiny_mesh(self):
        with pytest.raises(ValueError):
            GridLayer("M1", 1, 4, 0.01)

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            GridLayer("M1", 4, 4, 0.01, direction="diagonal")

    def test_rejects_non_positive_resistance(self):
        with pytest.raises(ValueError):
            GridLayer("M1", 4, 4, 0.0)


class TestBuildPowerGrid:
    def test_node_count_is_sum_of_layers(self, simple_grid):
        assert simple_grid.num_nodes == 8 * 8 + 4 * 4

    def test_bumps_attach_to_top_layer(self, simple_grid):
        top_nodes = np.nonzero(simple_grid.node_layer == 1)[0]
        assert np.all(np.isin(simple_grid.bump_nodes, top_nodes))

    def test_loads_attach_to_bottom_layer(self, simple_grid):
        bottom_nodes = np.nonzero(simple_grid.node_layer == 0)[0]
        assert np.all(np.isin(simple_grid.load_nodes, bottom_nodes))

    def test_resistances_positive(self, simple_grid):
        assert np.all(simple_grid.res_value > 0)

    def test_capacitance_covers_all_nodes(self, simple_grid):
        assert simple_grid.cap_value.shape == (simple_grid.num_nodes,)
        assert np.all(simple_grid.cap_value > 0)

    def test_resistor_endpoints_valid(self, simple_grid):
        assert simple_grid.res_a.min() >= 0
        assert simple_grid.res_b.max() < simple_grid.num_nodes
        assert np.all(simple_grid.res_a != simple_grid.res_b)

    def test_vias_connect_adjacent_layers(self, simple_grid):
        layer_of = simple_grid.node_layer
        crossing = layer_of[simple_grid.res_a] != layer_of[simple_grid.res_b]
        # Upper layer has 16 nodes and each gets one via bundle.
        assert int(np.count_nonzero(crossing)) == 16

    def test_mesh_connectivity_is_connected(self, simple_grid):
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(simple_grid.num_nodes))
        graph.add_edges_from(zip(simple_grid.res_a.tolist(), simple_grid.res_b.tolist()))
        assert nx.is_connected(graph)

    def test_summary_keys(self, simple_grid):
        summary = simple_grid.summary()
        assert summary["num_nodes"] == simple_grid.num_nodes
        assert summary["num_bumps"] == 4
        assert summary["num_loads"] == 3

    def test_requires_a_layer(self):
        die = DieArea(10, 10)
        with pytest.raises(ValueError):
            build_power_grid(die, [], np.array([[5.0, 5.0]]), np.array([[5.0, 5.0]]))

    def test_rejects_bad_bump_shape(self):
        die = DieArea(10, 10)
        layers = [GridLayer("M1", 4, 4, 0.01)]
        with pytest.raises(ValueError):
            build_power_grid(die, layers, np.zeros((2, 3)), np.array([[5.0, 5.0]]))

    def test_directional_layers_have_fewer_resistors(self):
        die = DieArea(100.0, 100.0)
        bumps = np.array([[50.0, 50.0]])
        loads = np.array([[50.0, 50.0]])
        both = build_power_grid(die, [GridLayer("M1", 6, 6, 0.01, "both")], bumps, loads)
        horizontal = build_power_grid(
            die, [GridLayer("M1", 6, 6, 0.01, "horizontal")], bumps, loads
        )
        assert horizontal.num_resistors < both.num_resistors

    def test_load_decap_added_at_load_nodes(self):
        die = DieArea(100.0, 100.0)
        layers = [GridLayer("M1", 6, 6, 0.01)]
        bumps = np.array([[50.0, 50.0]])
        loads = np.array([[10.0, 10.0]])
        with_decap = build_power_grid(die, layers, bumps, loads, load_decap=1e-12)
        without = build_power_grid(die, layers, bumps, loads, load_decap=0.0)
        node = with_decap.load_nodes[0]
        assert with_decap.cap_value[node] > without.cap_value[node]


class TestTileIndices:
    def test_load_tile_indices_range(self, simple_grid):
        tile_grid = TileGrid(simple_grid.die, 4, 4)
        indices = load_tile_indices(simple_grid, tile_grid)
        assert indices.shape == (simple_grid.num_loads,)
        assert indices.min() >= 0 and indices.max() < 16

    def test_node_tile_indices_cover_tiles(self, simple_grid):
        tile_grid = TileGrid(simple_grid.die, 4, 4)
        indices = node_tile_indices(simple_grid, tile_grid)
        # With an 8x8 bottom mesh over a 4x4 tile grid every tile holds nodes.
        assert set(indices.tolist()) == set(range(16))
