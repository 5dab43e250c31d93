"""On-die power grid electrical model.

The on-die grid is modelled the way power-integrity sign-off tools model it
(Sec. 2 of the paper): a multi-layer mesh of resistive stripes connected by
vias, decoupling capacitance to the ground network, C4 bumps tying the top
metal to the package, and per-instance switching current sources attached to
the bottom metal.

All electrical quantities are expressed in the *droop* frame of reference:
node variable ``x_i`` is the deviation of the local supply from the ideal
rail, resistive/capacitive elements stamp as usual, and switching instances
inject positive current (drawing charge raises the droop).  With every node
resistively connected to the reference through the bump/package branches the
conductance matrix is symmetric positive definite, the standard property
exploited by power-grid solvers [5-9].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.pdn.geometry import DieArea, TileGrid
from repro.utils import check_positive, get_logger

_LOG = get_logger("pdn.grid")


@dataclass(frozen=True)
class GridLayer:
    """One metal layer of the on-die power grid.

    Attributes
    ----------
    name:
        Layer name, e.g. ``"M1"`` or ``"RDL"``.
    nx, ny:
        Number of grid nodes along x and y.  Coarser (upper) layers use
        smaller values, mirroring the wider pitch of upper metals.
    sheet_resistance:
        Effective resistance of one stripe segment per unit length
        (ohm / um).  Upper metals are thicker, hence lower values.
    direction:
        ``"both"`` meshes the layer in x and y; ``"horizontal"`` /
        ``"vertical"`` produce stripes in one direction only, as real
        alternating-direction grids do.
    """

    name: str
    nx: int
    ny: int
    sheet_resistance: float
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.nx < 2 or self.ny < 2:
            raise ValueError(
                f"layer {self.name!r} needs at least a 2x2 mesh, got {self.nx}x{self.ny}"
            )
        check_positive(self.sheet_resistance, "sheet_resistance")
        if self.direction not in ("both", "horizontal", "vertical"):
            raise ValueError(f"unknown layer direction {self.direction!r}")

    @property
    def num_nodes(self) -> int:
        """Number of electrical nodes contributed by this layer."""
        return self.nx * self.ny


@dataclass
class PowerGrid:
    """Assembled multi-layer power grid.

    Construction happens through :func:`build_power_grid`; the resulting
    object stores flat element arrays that the MNA stamping code
    (:mod:`repro.pdn.stamps`) converts into sparse matrices.

    Attributes
    ----------
    die:
        Die outline.
    layers:
        Layer specifications, ordered bottom (index 0, instance-facing) to
        top (bump-facing).
    node_layer / node_x / node_y:
        Per-node metadata arrays of length ``num_nodes``.
    res_a / res_b / res_value:
        Resistor element arrays; ``res_value`` in ohms.
    cap_node / cap_value:
        Grounded capacitance (decap + intrinsic) per node, in farads.
    bump_nodes / bump_xy:
        Top-layer node index and (x, y) location of every power bump.
    load_nodes / load_xy:
        Bottom-layer node index and location of every current-load port.
    """

    die: DieArea
    layers: tuple[GridLayer, ...]
    node_layer: np.ndarray
    node_x: np.ndarray
    node_y: np.ndarray
    res_a: np.ndarray
    res_b: np.ndarray
    res_value: np.ndarray
    cap_node: np.ndarray
    cap_value: np.ndarray
    bump_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    bump_xy: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    load_nodes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    load_xy: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))

    @property
    def num_nodes(self) -> int:
        """Number of on-die electrical nodes (excluding package-internal nodes)."""
        return int(self.node_layer.shape[0])

    @property
    def num_resistors(self) -> int:
        """Number of resistive segments (stripes + vias)."""
        return int(self.res_value.shape[0])

    @property
    def num_bumps(self) -> int:
        """Number of power bumps."""
        return int(self.bump_nodes.shape[0])

    @property
    def num_loads(self) -> int:
        """Number of current-load attachment points."""
        return int(self.load_nodes.shape[0])

    @property
    def total_decap(self) -> float:
        """Total on-die decoupling capacitance in farads."""
        return float(np.sum(self.cap_value))

    def summary(self) -> dict:
        """Human-readable size/electrical summary used by Table 1 reporting."""
        return {
            "num_nodes": self.num_nodes,
            "num_resistors": self.num_resistors,
            "num_bumps": self.num_bumps,
            "num_loads": self.num_loads,
            "num_layers": len(self.layers),
            "total_decap_nF": self.total_decap * 1e9,
            "die_width_um": self.die.width,
            "die_height_um": self.die.height,
        }


def _nearest_node(xs: np.ndarray, ys: np.ndarray, px: float, py: float) -> int:
    """Index (into the layer-local grid) of the node nearest to (px, py)."""
    ix = int(np.argmin(np.abs(xs - px)))
    iy = int(np.argmin(np.abs(ys - py)))
    return iy * xs.shape[0] + ix


def _mesh_layer(
    layer: GridLayer,
    die: DieArea,
    node_offset: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mesh a single layer.

    Returns ``(x, y, res_a, res_b, res_value)`` where ``x``/``y`` give node
    coordinates and resistor endpoints are global node indices (already
    shifted by ``node_offset``).
    """
    xs, ys = die.grid_points(layer.nx, layer.ny)
    gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx)
    x = gx.ravel()
    y = gy.ravel()

    def node_id(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        return node_offset + iy * layer.nx + ix

    res_a_parts: list[np.ndarray] = []
    res_b_parts: list[np.ndarray] = []
    res_v_parts: list[np.ndarray] = []

    pitch_x = die.width / layer.nx
    pitch_y = die.height / layer.ny

    if layer.direction in ("both", "horizontal"):
        # Horizontal stripes: connect (ix, iy) to (ix + 1, iy).
        ix, iy = np.meshgrid(np.arange(layer.nx - 1), np.arange(layer.ny))
        a = node_id(ix.ravel(), iy.ravel())
        b = node_id(ix.ravel() + 1, iy.ravel())
        res_a_parts.append(a)
        res_b_parts.append(b)
        res_v_parts.append(np.full(a.shape, layer.sheet_resistance * pitch_x))

    if layer.direction in ("both", "vertical"):
        # Vertical stripes: connect (ix, iy) to (ix, iy + 1).
        ix, iy = np.meshgrid(np.arange(layer.nx), np.arange(layer.ny - 1))
        a = node_id(ix.ravel(), iy.ravel())
        b = node_id(ix.ravel(), iy.ravel() + 1)
        res_a_parts.append(a)
        res_b_parts.append(b)
        res_v_parts.append(np.full(a.shape, layer.sheet_resistance * pitch_y))

    res_a = np.concatenate(res_a_parts) if res_a_parts else np.empty(0, dtype=int)
    res_b = np.concatenate(res_b_parts) if res_b_parts else np.empty(0, dtype=int)
    res_v = np.concatenate(res_v_parts) if res_v_parts else np.empty(0, dtype=float)
    return x, y, res_a, res_b, res_v


def build_power_grid(
    die: DieArea,
    layers: Sequence[GridLayer],
    bump_locations: np.ndarray,
    load_locations: np.ndarray,
    via_resistance: float = 0.5,
    vias_per_connection: int = 4,
    decap_per_area: float = 1e-15,
    load_decap: float = 5e-15,
    intrinsic_cap_per_node: float = 1e-16,
) -> PowerGrid:
    """Assemble a :class:`PowerGrid` from layer specs and attachment points.

    Parameters
    ----------
    die:
        Die outline in um.
    layers:
        Metal layers ordered bottom to top.  Adjacent layers are connected by
        via arrays: every node of the *coarser* layer connects to the nearest
        node of the finer layer below it.
    bump_locations:
        ``(B, 2)`` bump coordinates; bumps attach to the nearest node of the
        topmost layer.
    load_locations:
        ``(L, 2)`` current-load coordinates; loads attach to the nearest node
        of the bottommost layer.
    via_resistance:
        Resistance of a single via cut in ohms.
    vias_per_connection:
        Number of parallel via cuts per inter-layer connection.
    decap_per_area:
        Distributed decap density in F/um^2, spread over bottom-layer nodes.
    load_decap:
        Extra local decap (F) added at each load node, modelling intentional
        decap cells placed next to aggressors.
    intrinsic_cap_per_node:
        Small parasitic capacitance (F) at every node; keeps the capacitance
        matrix strictly positive so transient integration is well posed.
    """
    if len(layers) < 1:
        raise ValueError("at least one metal layer is required")
    check_positive(via_resistance, "via_resistance")
    if vias_per_connection < 1:
        raise ValueError(f"vias_per_connection must be >= 1, got {vias_per_connection}")

    bump_locations = np.atleast_2d(np.asarray(bump_locations, dtype=float))
    load_locations = np.atleast_2d(np.asarray(load_locations, dtype=float))
    if bump_locations.shape[1] != 2:
        raise ValueError(f"bump_locations must have shape (B, 2), got {bump_locations.shape}")
    if load_locations.shape[1] != 2:
        raise ValueError(f"load_locations must have shape (L, 2), got {load_locations.shape}")

    node_x_parts: list[np.ndarray] = []
    node_y_parts: list[np.ndarray] = []
    node_layer_parts: list[np.ndarray] = []
    res_a_parts: list[np.ndarray] = []
    res_b_parts: list[np.ndarray] = []
    res_v_parts: list[np.ndarray] = []

    layer_offsets: list[int] = []
    layer_axes: list[tuple[np.ndarray, np.ndarray]] = []
    offset = 0
    for li, layer in enumerate(layers):
        layer_offsets.append(offset)
        x, y, ra, rb, rv = _mesh_layer(layer, die, offset)
        node_x_parts.append(x)
        node_y_parts.append(y)
        node_layer_parts.append(np.full(x.shape, li, dtype=int))
        res_a_parts.append(ra)
        res_b_parts.append(rb)
        res_v_parts.append(rv)
        layer_axes.append(die.grid_points(layer.nx, layer.ny))
        offset += layer.num_nodes

    # Inter-layer vias: each node of the upper layer drops to the nearest node
    # of the layer below.
    effective_via_r = via_resistance / vias_per_connection
    for li in range(1, len(layers)):
        upper = layers[li]
        lower = layers[li - 1]
        up_off = layer_offsets[li]
        low_off = layer_offsets[li - 1]
        up_xs, up_ys = layer_axes[li]
        low_xs, low_ys = layer_axes[li - 1]
        # Vectorised nearest-node mapping: independent along x and y because
        # both layers are axis-aligned uniform grids.
        map_x = np.argmin(np.abs(low_xs[np.newaxis, :] - up_xs[:, np.newaxis]), axis=1)
        map_y = np.argmin(np.abs(low_ys[np.newaxis, :] - up_ys[:, np.newaxis]), axis=1)
        ix, iy = np.meshgrid(np.arange(upper.nx), np.arange(upper.ny))
        upper_nodes = up_off + iy.ravel() * upper.nx + ix.ravel()
        lower_nodes = low_off + map_y[iy.ravel()] * lower.nx + map_x[ix.ravel()]
        res_a_parts.append(upper_nodes)
        res_b_parts.append(lower_nodes)
        res_v_parts.append(np.full(upper_nodes.shape, effective_via_r))

    node_x = np.concatenate(node_x_parts)
    node_y = np.concatenate(node_y_parts)
    node_layer = np.concatenate(node_layer_parts)
    res_a = np.concatenate(res_a_parts).astype(int)
    res_b = np.concatenate(res_b_parts).astype(int)
    res_value = np.concatenate(res_v_parts).astype(float)

    num_nodes = node_x.shape[0]

    # --- Capacitance -----------------------------------------------------
    cap_value = np.full(num_nodes, intrinsic_cap_per_node, dtype=float)
    bottom = layers[0]
    bottom_nodes = np.arange(layer_offsets[0], layer_offsets[0] + bottom.num_nodes)
    if decap_per_area > 0:
        per_node_decap = decap_per_area * die.area / bottom.num_nodes
        cap_value[bottom_nodes] += per_node_decap

    # --- Bumps (top layer) ------------------------------------------------
    top_index = len(layers) - 1
    top_off = layer_offsets[top_index]
    top_xs, top_ys = layer_axes[top_index]
    bump_nodes = np.array(
        [top_off + _nearest_node(top_xs, top_ys, bx, by) for bx, by in bump_locations],
        dtype=int,
    )

    # --- Loads (bottom layer) ----------------------------------------------
    low_xs, low_ys = layer_axes[0]
    load_nodes = np.array(
        [layer_offsets[0] + _nearest_node(low_xs, low_ys, lx, ly) for lx, ly in load_locations],
        dtype=int,
    )
    if load_decap > 0:
        np.add.at(cap_value, load_nodes, load_decap)

    grid = PowerGrid(
        die=die,
        layers=tuple(layers),
        node_layer=node_layer,
        node_x=node_x,
        node_y=node_y,
        res_a=res_a,
        res_b=res_b,
        res_value=res_value,
        cap_node=np.arange(num_nodes),
        cap_value=cap_value,
        bump_nodes=bump_nodes,
        bump_xy=bump_locations,
        load_nodes=load_nodes,
        load_xy=load_locations,
    )
    _LOG.debug("built power grid: %s", grid.summary())
    return grid


def load_tile_indices(grid: PowerGrid, tile_grid: TileGrid) -> np.ndarray:
    """Flat tile index of every current load, used for per-tile aggregation."""
    row, col = tile_grid.tile_of(grid.load_xy[:, 0], grid.load_xy[:, 1])
    return tile_grid.flat_index(row, col)


def node_tile_indices(grid: PowerGrid, tile_grid: TileGrid) -> np.ndarray:
    """Flat tile index of every grid node (used for per-tile noise maxima)."""
    row, col = tile_grid.tile_of(grid.node_x, grid.node_y)
    return tile_grid.flat_index(row, col)
