"""Worst-case dynamic PDN noise analysis (the "commercial tool" stand-in).

The paper's ground truth comes from a commercial dynamic PDN sign-off tool
that, given a test vector, reports the worst-case noise of every tile over
the whole trace.  :class:`DynamicNoiseAnalysis` plays that role here: it runs
the transient engine over a current trace and reduces the per-node droop
maxima to the per-tile worst-case noise map of Eq. 2, flags hotspots, and
reports its own wall-clock runtime so the CNN's speedup can be measured the
same way the paper measures it (Table 2).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.pdn.designs import Design
from repro.sim.transient import TransientEngine, TransientOptions, TransientResult
from repro.sim.waveform import CurrentTrace, per_tile_maximum
from repro import faults, obs
from repro.utils import check_positive, get_logger

_LOG = get_logger("sim.dynamic_noise")


@dataclass
class DynamicNoiseResult:
    """Worst-case dynamic noise of one design under one test vector.

    Attributes
    ----------
    tile_noise:
        Worst-case noise map (V) over tiles, shape ``(m, n)``.
    node_noise:
        Worst-case droop per die node (V).
    worst_noise:
        Global worst-case noise (Eq. 1), in volts.
    worst_time_index:
        Time stamp at which the global worst droop occurred.
    hotspot_map:
        Boolean map of tiles whose worst-case noise exceeds the design's
        hotspot threshold (10% of Vdd by default).
    runtime_seconds:
        Wall-clock time of the analysis (transient integration + reduction).
    """

    tile_noise: np.ndarray
    node_noise: np.ndarray
    worst_noise: float
    worst_time_index: int
    hotspot_map: np.ndarray
    runtime_seconds: float

    @property
    def mean_tile_noise(self) -> float:
        """Mean worst-case noise across tiles (V)."""
        return float(np.mean(self.tile_noise))


class DynamicNoiseAnalysis:
    """Reusable worst-case dynamic noise analysis for one design.

    The transient engine (and therefore the sparse factorisation) is built
    once per (design, dt) pair and reused across test vectors, mirroring how
    a sign-off tool amortises matrix factorisation across vectors.
    """

    def __init__(
        self,
        design: Design,
        dt: float,
        transient_options: TransientOptions = TransientOptions(),
    ):
        check_positive(dt, "dt")
        self._design = design
        self._dt = dt
        self._engine = TransientEngine(design.mna, dt, transient_options)

    @property
    def design(self) -> Design:
        """The design under analysis."""
        return self._design

    @property
    def engine(self) -> TransientEngine:
        """The underlying transient engine."""
        return self._engine

    def _reduce(self, transient: TransientResult) -> DynamicNoiseResult:
        """Reduce one transient result to the per-tile worst-case noise map.

        The result's ``runtime_seconds`` is the trace's share of its transient
        block plus this reduction's own time.
        """
        started = time.perf_counter()
        design = self._design
        die_noise = transient.max_droop_per_node[: design.mna.num_die_nodes]
        tile_values = per_tile_maximum(
            die_noise, design.node_tile_index, design.tile_grid.num_tiles
        )
        tile_noise = tile_values.reshape(design.tile_grid.shape)
        return DynamicNoiseResult(
            tile_noise=tile_noise,
            node_noise=die_noise,
            worst_noise=transient.worst_droop,
            worst_time_index=transient.worst_time_index,
            hotspot_map=tile_noise > design.spec.hotspot_threshold,
            runtime_seconds=transient.runtime_seconds + time.perf_counter() - started,
        )

    def run(self, trace: CurrentTrace) -> DynamicNoiseResult:
        """Compute the worst-case noise map for one test vector.

        Parameters
        ----------
        trace:
            The switching-current test vector (must match the analysis dt).

        Returns
        -------
        The :class:`DynamicNoiseResult` for this vector — :meth:`run_many` on
        a batch of one, so ``runtime_seconds`` measures this vector's whole
        transient integration plus the per-tile reduction.
        """
        return self.run_many([trace])[0]

    def run_many(
        self,
        traces: Sequence[CurrentTrace],
        batch_size: Optional[int] = None,
    ) -> list[DynamicNoiseResult]:
        """Analyse a batch of test vectors with lockstep block solves.

        All traces advance through the transient engine together
        (:meth:`TransientEngine.run_many`), so every time stamp costs one
        block back-substitution for the whole batch instead of one solve per
        vector.  Noise maps agree with per-vector :meth:`run` calls to
        solver rounding (a few ULPs at worst) and are deterministic for a
        given batch decomposition.  Each vector's ``runtime_seconds`` is its
        share of the lockstep block that integrated it (block solves are not
        separable per vector) plus its own tile reduction, so vectors in
        different blocks carry different times.  In gated ROM runs a vector
        carries the time of the path that produced its label.

        Parameters
        ----------
        traces:
            Test vectors to analyse (any mix of lengths; same dt).
        batch_size:
            Maximum vectors per lockstep block (see
            :meth:`TransientEngine.run_many` for what a block holds);
            ``None`` integrates each equal-length group in one block.

        Returns
        -------
        One :class:`DynamicNoiseResult` per trace, in input order.
        """
        traces = list(traces)
        if not traces:
            return []
        faults.active().before_solve(self._design.name, len(traces))
        started = time.perf_counter()
        transients = self._engine.run_many(traces, batch_size=batch_size)
        results = [self._reduce(transient) for transient in transients]
        elapsed = time.perf_counter() - started
        obs.metrics().histogram("sim.analysis_seconds").observe(elapsed)
        _LOG.debug(
            "dynamic noise batch on %s: %d vectors in %.2f s",
            self._design.name,
            len(traces),
            elapsed,
        )
        return results
