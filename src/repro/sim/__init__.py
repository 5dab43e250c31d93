"""PDN simulation engine.

This subpackage is the reproduction's substitute for the commercial PDN
sign-off tool: one sparse solver (symmetric-mode SuperLU, factor once and solve
many), static IR analysis, a transient engine (backward-Euler companion
models for decap and package inductance, started from the DC operating
point), and the worst-case dynamic noise
analysis that produces the ground-truth tile maps.

Transient integration sits behind a solver-strategy seam: the full-order
companion path (:class:`FullOrderStrategy`) and the gated Krylov
reduced-order model (:class:`ReducedOrderStrategy`, ``solver_mode="rom"``)
are interchangeable behind :class:`TransientEngine` — see ``docs/solvers.md``.
"""

from repro.sim.linear import LinearSolver, make_solver
from repro.sim.static_ir import StaticIRAnalysis, StaticIRResult, run_static_analysis
from repro.sim.transient import (
    SOLVER_MODES,
    FullOrderStrategy,
    TransientEngine,
    TransientOptions,
    TransientResult,
    TransientSolverStrategy,
)
from repro.sim.rom import ReducedOrderStrategy, ROMOptions, ROMRunStats
from repro.sim.dynamic_noise import DynamicNoiseAnalysis, DynamicNoiseResult
from repro.sim.waveform import CurrentTrace, VoltageWaveform, per_tile_maximum

__all__ = [
    "LinearSolver",
    "make_solver",
    "StaticIRAnalysis",
    "StaticIRResult",
    "run_static_analysis",
    "TransientEngine",
    "TransientOptions",
    "TransientResult",
    "TransientSolverStrategy",
    "FullOrderStrategy",
    "ReducedOrderStrategy",
    "ROMOptions",
    "ROMRunStats",
    "SOLVER_MODES",
    "DynamicNoiseAnalysis",
    "DynamicNoiseResult",
    "CurrentTrace",
    "VoltageWaveform",
    "per_tile_maximum",
]
