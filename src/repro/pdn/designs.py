"""Design specifications and reference designs D1-D4.

The paper evaluates four proprietary commercial PDN designs whose
characteristics are listed in its Table 1 (0.58M-4.4M electrical nodes,
2.5k-810k current loads, 50x50 to 180x180 tile grids).  We cannot obtain
those designs, so this module provides a parametric generator that produces
synthetic analogues with the same *structure*: multi-layer on-die grid,
flip-chip bump array, clustered switching loads, and a package macro-model.

:func:`reference_design` exposes analogues named ``"D1"`` .. ``"D4"`` whose
tile grids match the paper and whose electrical parameters are chosen so the
worst-case dynamic noise lands in the paper's reported range (~0.09-0.13 V at
Vdd = 1 V).  A ``scale`` argument shrinks both the tile grid and the
electrical mesh for fast test/benchmark runs; the full-size configuration is
just ``scale=1.0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.pdn.geometry import DieArea, TileGrid, jittered_bump_array
from repro.pdn.grid import (
    GridLayer,
    PowerGrid,
    build_power_grid,
    load_tile_indices,
    node_tile_indices,
)
from repro.pdn.loads import LoadPlacement, generate_load_placement
from repro.pdn.package import PackageModel
from repro.pdn.stamps import MNASystem, build_mna
from repro.utils import check_positive, get_logger
from repro.utils.random import RandomState, ensure_rng

_LOG = get_logger("pdn.designs")


@dataclass(frozen=True)
class LayerSpec:
    """Mesh density and sheet resistance of one metal layer (bottom to top)."""

    nx: int
    ny: int
    sheet_resistance: float
    direction: str = "both"
    name: str = ""


@dataclass(frozen=True)
class DesignSpec:
    """Full parameter set describing one synthetic PDN design.

    The defaults produce a small but electrically sensible design; the
    reference designs override size-related fields.  All lengths in um,
    resistances in ohm, capacitances in F, currents in A.
    """

    name: str = "custom"
    die_width: float = 2000.0
    die_height: float = 2000.0
    tile_rows: int = 32
    tile_cols: int = 32
    layers: tuple[LayerSpec, ...] = (
        LayerSpec(nx=64, ny=64, sheet_resistance=0.005, name="M1"),
        LayerSpec(nx=32, ny=32, sheet_resistance=0.002, name="M5"),
        LayerSpec(nx=16, ny=16, sheet_resistance=0.001, name="M9"),
    )
    bump_rows: int = 8
    bump_cols: int = 8
    bump_jitter: float = 0.1
    num_loads: int = 600
    total_current: float = 12.0
    num_clusters: int = 4
    cluster_fraction: float = 0.5
    via_resistance: float = 0.5
    vias_per_connection: int = 4
    decap_per_area: float = 3e-15
    load_decap: float = 2e-14
    package: PackageModel = field(default_factory=PackageModel)
    vdd: float = 1.0
    hotspot_threshold_fraction: float = 0.10

    def __post_init__(self) -> None:
        check_positive(self.die_width, "die_width")
        check_positive(self.die_height, "die_height")
        check_positive(self.total_current, "total_current")
        check_positive(self.vdd, "vdd")
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ValueError("tile grid must be at least 1x1")
        if not self.layers:
            raise ValueError("at least one metal layer is required")

    @property
    def tile_shape(self) -> tuple[int, int]:
        """Tile-map shape ``(m, n)``."""
        return (self.tile_rows, self.tile_cols)

    @property
    def hotspot_threshold(self) -> float:
        """Absolute noise threshold (V) above which a tile counts as a hotspot."""
        return self.hotspot_threshold_fraction * self.vdd

    @property
    def num_bumps(self) -> int:
        """Total number of power bumps."""
        return self.bump_rows * self.bump_cols


@dataclass
class Design:
    """A fully assembled design ready for simulation and feature extraction.

    Attributes
    ----------
    spec:
        The generating specification.
    die / tile_grid:
        Geometry objects.
    grid:
        The electrical :class:`~repro.pdn.grid.PowerGrid`.
    mna:
        Stamped :class:`~repro.pdn.stamps.MNASystem`.
    loads:
        Load placement with nominal currents and cluster ids.
    load_tile_index / node_tile_index:
        Flat tile index of each load / each die node, used to build per-tile
        feature maps and per-tile worst-case noise.
    """

    spec: DesignSpec
    die: DieArea
    tile_grid: TileGrid
    grid: PowerGrid
    mna: MNASystem
    loads: LoadPlacement
    load_tile_index: np.ndarray
    node_tile_index: np.ndarray

    @property
    def name(self) -> str:
        """Design name from the spec."""
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        """Number of on-die electrical nodes."""
        return self.grid.num_nodes

    @property
    def num_loads(self) -> int:
        """Number of current loads."""
        return self.loads.num_loads

    @property
    def bump_locations(self) -> np.ndarray:
        """Bump coordinates, shape ``(B, 2)``."""
        return self.grid.bump_xy

    def summary(self) -> dict:
        """Size summary in the spirit of the paper's Table 1 (static part)."""
        info = self.grid.summary()
        info.update(
            {
                "name": self.name,
                "tile_grid": f"{self.tile_grid.m}x{self.tile_grid.n}",
                "num_loads": self.num_loads,
                "total_current_A": self.loads.total_nominal_current,
                "vdd": self.spec.vdd,
            }
        )
        return info


def make_design(spec: DesignSpec, seed: RandomState = None) -> Design:
    """Build a :class:`Design` from a :class:`DesignSpec`.

    The same ``seed`` always yields an identical design (bump jitter, load
    placement and nominal currents are all derived from it).
    """
    rng = ensure_rng(seed)
    die = DieArea(spec.die_width, spec.die_height)
    tile_grid = TileGrid(die, spec.tile_rows, spec.tile_cols)

    bump_xy = jittered_bump_array(
        die,
        spec.bump_rows,
        spec.bump_cols,
        jitter_fraction=spec.bump_jitter,
        seed=rng,
    )

    placement = generate_load_placement(
        die,
        num_loads=spec.num_loads,
        total_current=spec.total_current,
        num_clusters=spec.num_clusters,
        cluster_fraction=spec.cluster_fraction,
        seed=rng,
    )

    layers = tuple(
        GridLayer(
            name=layer.name or f"L{i}",
            nx=layer.nx,
            ny=layer.ny,
            sheet_resistance=layer.sheet_resistance,
            direction=layer.direction,
        )
        for i, layer in enumerate(spec.layers)
    )

    grid = build_power_grid(
        die,
        layers,
        bump_locations=bump_xy,
        load_locations=placement.locations,
        via_resistance=spec.via_resistance,
        vias_per_connection=spec.vias_per_connection,
        decap_per_area=spec.decap_per_area,
        load_decap=spec.load_decap,
    )
    mna = build_mna(grid, spec.package)

    design = Design(
        spec=spec,
        die=die,
        tile_grid=tile_grid,
        grid=grid,
        mna=mna,
        loads=placement,
        load_tile_index=load_tile_indices(grid, tile_grid),
        node_tile_index=node_tile_indices(grid, tile_grid),
    )
    _LOG.info("built design %s: %d nodes, %d loads", spec.name, design.num_nodes, design.num_loads)
    return design


def _scaled(value: int, scale: float, minimum: int = 2) -> int:
    """Scale an integer dimension, never dropping below ``minimum``."""
    return max(minimum, int(round(value * scale)))


def _reference_spec(name: str, scale: float) -> DesignSpec:
    """Specification of the D1-D4 analogues at a given geometric scale.

    ``scale`` multiplies the *linear* die dimension: tile counts, mesh
    densities and the bump array shrink linearly, while load count and total
    current shrink with the area (``scale**2``) so that current density — and
    therefore the worst-case noise level — is preserved across scales.
    """
    check_positive(scale, "scale")
    presets: dict[str, dict] = {
        # Tile grids match the paper's Table 2 (m x n); electrical meshes,
        # load counts and current densities are chosen so the mean/max
        # worst-case noise of each design lands in the band the paper's
        # Table 1 reports (roughly 90-130 mV mean at Vdd = 1 V) with D3 the
        # noisiest and D4 the mildest, mirroring the paper.
        "D1": dict(
            die=(2500.0, 2500.0), tiles=(50, 50), mesh=(100, 50, 25),
            bumps=(7, 7), loads=1200, current_density=4.4, clusters=5,
            cluster_fraction=0.55, decap=2.8e-15,
        ),
        "D2": dict(
            die=(3000.0, 3000.0), tiles=(130, 130), mesh=(130, 65, 33),
            bumps=(9, 9), loads=2400, current_density=4.1, clusters=6,
            cluster_fraction=0.40, decap=3.2e-15,
        ),
        "D3": dict(
            die=(3500.0, 2500.0), tiles=(70, 50), mesh=(140, 70, 35),
            bumps=(8, 6), loads=3600, current_density=4.9, clusters=7,
            cluster_fraction=0.60, decap=2.6e-15,
        ),
        "D4": dict(
            die=(4500.0, 4500.0), tiles=(180, 180), mesh=(180, 90, 45),
            bumps=(12, 12), loads=6000, current_density=4.2, clusters=9,
            cluster_fraction=0.35, decap=3.4e-15,
        ),
    }
    if name not in presets:
        raise ValueError(f"unknown reference design {name!r}; expected one of {sorted(presets)}")
    p = presets[name]
    die_w = p["die"][0] * scale
    die_h = p["die"][1] * scale
    tile_m, tile_n = p["tiles"]
    m1, m5, m9 = p["mesh"]
    bump_rows, bump_cols = p["bumps"]

    tile_m = _scaled(tile_m, scale, minimum=8)
    tile_n = _scaled(tile_n, scale, minimum=8)
    layers = (
        LayerSpec(nx=max(_scaled(m1, scale), tile_n), ny=max(_scaled(m1, scale), tile_m),
                  sheet_resistance=0.005, name="M1"),
        LayerSpec(nx=_scaled(m5, scale, 4), ny=_scaled(m5, scale, 4),
                  sheet_resistance=0.002, name="M5"),
        LayerSpec(nx=_scaled(m9, scale, 3), ny=_scaled(m9, scale, 3),
                  sheet_resistance=0.0008, name="M9"),
    )
    area_mm2 = die_w * die_h / 1e6
    package = PackageModel(
        bump_resistance=30e-3,
        bump_inductance=12e-12,
        bulk_decap=2e-9 * area_mm2 / 10.0,
        bulk_decap_esr=5e-3,
    )
    return DesignSpec(
        name=name,
        die_width=die_w,
        die_height=die_h,
        tile_rows=tile_m,
        tile_cols=tile_n,
        layers=layers,
        bump_rows=_scaled(bump_rows, scale, 2),
        bump_cols=_scaled(bump_cols, scale, 2),
        num_loads=max(50, int(p["loads"] * scale * scale)),
        total_current=p["current_density"] * area_mm2,
        num_clusters=p["clusters"],
        cluster_fraction=p["cluster_fraction"],
        decap_per_area=p["decap"],
        load_decap=2e-14,
        package=package,
    )


def reference_design(
    name: str,
    scale: float = 1.0,
    seed: RandomState = 0,
) -> Design:
    """Build one of the D1-D4 analogue designs.

    Parameters
    ----------
    name:
        ``"D1"``, ``"D2"``, ``"D3"`` or ``"D4"``.
    scale:
        Geometric scale factor; ``1.0`` reproduces the paper's tile grids
        (50x50 ... 180x180), smaller values shrink everything proportionally
        for quick runs.
    seed:
        Seed controlling bump jitter and load placement.
    """
    return make_design(_reference_spec(name, scale), seed=seed)


def reference_design_names() -> tuple[str, ...]:
    """Names of the available reference designs."""
    return ("D1", "D2", "D3", "D4")


#: Signature of a design factory: reference string -> Design (e.g.
#: :func:`design_from_name`).
DesignFactory = Callable[[str], Design]


def design_from_name(name: str, seed: RandomState = 0) -> Design:
    """Build a design from a compact factory reference string.

    The string format is shared by the screening gateway and the dataset
    factory, whose workers rebuild designs from these references
    rather than unpickling full :class:`Design` objects:

    * ``"small"`` or ``"small@<tiles>"`` — the unit-test design at the given
      square tile count (default 8);
    * ``"D1"`` .. ``"D4"``, optionally ``"D1@<scale>"`` — a reference
      analogue at the given geometric scale (default 0.2).

    Parameters
    ----------
    name:
        Factory reference, e.g. ``"D2@0.15"``.
    seed:
        Seed for the design's stochastic parts (bump jitter, loads).

    Returns
    -------
    The assembled :class:`Design`.
    """
    base, _, suffix = name.partition("@")
    if base == "small":
        tiles = int(suffix) if suffix else 8
        return small_test_design(tile_rows=tiles, tile_cols=tiles, seed=seed)
    scale = float(suffix) if suffix else 0.2
    return reference_design(base, scale=scale, seed=seed)


def small_test_design(
    tile_rows: int = 8,
    tile_cols: int = 8,
    num_loads: int = 60,
    seed: RandomState = 0,
    total_current: float = 2.4,
) -> Design:
    """A deliberately tiny design used throughout the unit tests.

    It keeps the full structure (three metal layers, package R-L, clustered
    loads) but with a mesh small enough that a transient simulation finishes
    in milliseconds.
    """
    spec = DesignSpec(
        name="unit-test",
        die_width=800.0,
        die_height=800.0,
        tile_rows=tile_rows,
        tile_cols=tile_cols,
        layers=(
            LayerSpec(nx=max(16, tile_cols), ny=max(16, tile_rows), sheet_resistance=0.005, name="M1"),
            LayerSpec(nx=8, ny=8, sheet_resistance=0.002, name="M5"),
            LayerSpec(nx=4, ny=4, sheet_resistance=0.0008, name="M9"),
        ),
        bump_rows=3,
        bump_cols=3,
        num_loads=num_loads,
        total_current=total_current,
        num_clusters=2,
        cluster_fraction=0.5,
        decap_per_area=3e-15,
        package=PackageModel(bump_resistance=30e-3, bump_inductance=12e-12,
                             bulk_decap=5e-10, bulk_decap_esr=5e-3),
    )
    return make_design(spec, seed=seed)
