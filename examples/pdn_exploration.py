#!/usr/bin/env python3
"""PDN design-space exploration with the simulation substrate.

The library is useful below the ML layer too: this example uses the PDN
modelling and simulation subpackages directly to explore how decap budget and
bump count trade off against worst-case dynamic noise — the kind of what-if
loop a power-integrity engineer runs before committing a floorplan.

For each candidate PDN configuration it:

1. builds the design (grid + package + loads),
2. runs a static IR analysis and a dynamic power-virus simulation, and
3. reports mean/max droop, the die-package resonance frequency, and the
   hotspot count.

Run with:  python examples/pdn_exploration.py
"""

from __future__ import annotations

import numpy as np

from repro.pdn import DesignSpec, LayerSpec, PackageModel, make_design
from repro.sim import DynamicNoiseAnalysis, run_static_analysis
from repro.workloads import build_scenario_trace


def build_candidate(name: str, decap_per_area: float, bump_grid: int) -> DesignSpec:
    """A mid-size design with the given decap density and bump array."""
    return DesignSpec(
        name=name,
        die_width=1500.0,
        die_height=1500.0,
        tile_rows=16,
        tile_cols=16,
        layers=(
            LayerSpec(nx=32, ny=32, sheet_resistance=0.005, name="M1"),
            LayerSpec(nx=16, ny=16, sheet_resistance=0.002, name="M5"),
            LayerSpec(nx=8, ny=8, sheet_resistance=0.0008, name="M9"),
        ),
        bump_rows=bump_grid,
        bump_cols=bump_grid,
        num_loads=300,
        total_current=7.0,
        num_clusters=3,
        decap_per_area=decap_per_area,
        package=PackageModel(bump_resistance=30e-3, bump_inductance=12e-12,
                             bulk_decap=1e-9, bulk_decap_esr=5e-3),
    )


def main() -> None:
    candidates = [
        build_candidate("lean-decap / 4x4 bumps", 1.0e-15, 4),
        build_candidate("lean-decap / 6x6 bumps", 1.0e-15, 6),
        build_candidate("rich-decap / 4x4 bumps", 4.0e-15, 4),
        build_candidate("rich-decap / 6x6 bumps", 4.0e-15, 6),
    ]

    dt = 1e-11
    print(f"{'candidate':<28} {'static max':>10} {'dynamic max':>11} "
          f"{'mean WN':>8} {'hotspots':>8} {'resonance':>10}")
    for spec in candidates:
        design = make_design(spec, seed=0)
        static = run_static_analysis(design)
        virus = build_scenario_trace("power_virus", design, num_steps=300, dt=dt)
        dynamic = DynamicNoiseAnalysis(design, dt).run(virus)
        resonance = spec.package.resonance_frequency(design.grid.total_decap)
        hotspots = int(np.count_nonzero(dynamic.hotspot_map))
        print(
            f"{spec.name:<28} {static.worst_case * 1e3:9.1f}mV {dynamic.worst_noise * 1e3:10.1f}mV "
            f"{dynamic.mean_tile_noise * 1e3:7.1f}mV {hotspots:8d} {resonance / 1e9:8.2f}GHz"
        )


if __name__ == "__main__":
    main()
