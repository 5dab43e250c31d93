"""Static (DC) IR-drop analysis.

Static analysis "employs DC excitation and hence ignores the impact of
capacitance or inductance" (Sec. 2): inductors are shorts, capacitors are
open, and the droop is the solution of ``G x = I`` with the average load
currents on the right-hand side.  The static map is used as a sanity baseline
(it underestimates dynamic noise because it misses the die-package resonance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.pdn.designs import Design
from repro.pdn.stamps import MNASystem
from repro.sim.linear import LinearSolver, make_solver
from repro.sim.waveform import per_tile_maximum
from repro.utils import check_finite


@dataclass
class StaticIRResult:
    """Result of a static IR-drop analysis.

    Attributes
    ----------
    node_droop:
        Droop at every MNA node (V), shape ``(num_nodes,)``.
    tile_map:
        Per-tile maximum droop (V), shape ``(m, n)``; only filled when the
        analysis was given a :class:`~repro.pdn.designs.Design`.
    """

    node_droop: np.ndarray
    tile_map: Optional[np.ndarray] = None

    @property
    def worst_case(self) -> float:
        """Largest droop across all nodes (V)."""
        return float(np.max(self.node_droop))


class StaticIRAnalysis:
    """Reusable static analysis bound to one MNA system.

    The conductance matrix is factorised once at construction so repeated
    analyses with different current vectors amortise the factorisation, just
    as a sign-off tool would.
    """

    def __init__(self, mna: MNASystem):
        self._mna = mna
        self._solver: LinearSolver = make_solver(mna.static_conductance())

    @property
    def solver(self) -> LinearSolver:
        """The underlying linear solver (exposed for benchmarking)."""
        return self._solver

    def solve(self, load_currents: np.ndarray) -> np.ndarray:
        """Droop at every node for the given per-load DC currents."""
        load_currents = np.asarray(load_currents, dtype=float)
        check_finite(load_currents, "load_currents")
        rhs = self._mna.load_vector(load_currents)
        return self._solver.solve(rhs)


def run_static_analysis(
    design: Design,
    load_currents: Optional[np.ndarray] = None,
) -> StaticIRResult:
    """One-shot static IR analysis of a design.

    Parameters
    ----------
    design:
        The design to analyse.
    load_currents:
        Per-load DC currents (A); defaults to the nominal currents of the
        design's load placement.
    """
    if load_currents is None:
        load_currents = design.loads.nominal_currents
    analysis = StaticIRAnalysis(design.mna)
    node_droop = analysis.solve(load_currents)

    die_droop = node_droop[: design.mna.num_die_nodes]
    tile_values = per_tile_maximum(
        die_droop, design.node_tile_index, design.tile_grid.num_tiles
    )
    return StaticIRResult(
        node_droop=node_droop,
        tile_map=tile_values.reshape(design.tile_grid.shape),
    )
