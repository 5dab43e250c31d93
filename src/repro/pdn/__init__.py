"""Power distribution network (PDN) modelling.

This subpackage is the substrate the paper takes for granted: a model of the
on-die power grid (multi-layer resistive mesh, decap, bumps), the package
macro-model, current-load placement, and the MNA matrices the simulator
solves.  The reference designs D1-D4 are synthetic analogues of the paper's
four commercial designs (see DESIGN.md for the substitution rationale).
"""

from repro.pdn.geometry import (
    DieArea,
    TileGrid,
    distance_to_bumps,
    jittered_bump_array,
    uniform_bump_array,
)
from repro.pdn.grid import GridLayer, PowerGrid, build_power_grid, load_tile_indices, node_tile_indices
from repro.pdn.loads import LoadPlacement, generate_load_placement
from repro.pdn.package import PackageModel
from repro.pdn.stamps import REFERENCE_NODE, MNASystem, assemble_conductance, build_mna
from repro.pdn.designs import (
    Design,
    DesignSpec,
    LayerSpec,
    design_from_name,
    make_design,
    reference_design,
    reference_design_names,
    small_test_design,
)

__all__ = [
    "DieArea",
    "TileGrid",
    "distance_to_bumps",
    "uniform_bump_array",
    "jittered_bump_array",
    "GridLayer",
    "PowerGrid",
    "build_power_grid",
    "load_tile_indices",
    "node_tile_indices",
    "LoadPlacement",
    "generate_load_placement",
    "PackageModel",
    "REFERENCE_NODE",
    "MNASystem",
    "assemble_conductance",
    "build_mna",
    "Design",
    "DesignSpec",
    "LayerSpec",
    "design_from_name",
    "make_design",
    "reference_design",
    "reference_design_names",
    "small_test_design",
]
