"""Transient (dynamic) simulation of the PDN.

This is the reproduction's stand-in for the commercial dynamic sign-off
engine: it integrates ``C x' + G x = B i(t)`` over the test-vector trace with
a fixed time step, using companion models for capacitors and inductors so
that the system matrix is constant and a single sparse factorisation is
reused for every time stamp — exactly the "series of static analyses with the
same matrix" structure the paper describes (Sec. 2).

The integrator is backward Euler (first order, L-stable), started from the
DC operating point of each trace's first stamp, so no artificial power-on
transient enters the labels.

The integration itself sits behind a **solver-strategy seam**
(:class:`TransientSolverStrategy`): :class:`FullOrderStrategy` is the classic
full-order companion-model path described above, and
:class:`repro.sim.rom.ReducedOrderStrategy` replays the *same* companion
iteration in a small Krylov subspace (``solver_mode="rom"``), validated
against the full solver by a deterministic error gate (see
``docs/solvers.md``).  :class:`TransientEngine` routes :meth:`~TransientEngine.
run` and :meth:`~TransientEngine.run_many` through whichever strategy the
options select.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.pdn.stamps import INDUCTOR_SHORT_RESISTANCE, REFERENCE_NODE, MNASystem
from repro.sim.linear import LinearSolver, make_solver
from repro.sim.waveform import CurrentTrace
from repro.utils import check_positive, get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.sim.rom import ReducedOrderStrategy, ROMOptions, ROMRunStats

_LOG = get_logger("sim.transient")

#: Supported solver strategies (see ``docs/solvers.md``).
SOLVER_MODES = ("full", "rom")

#: Absolute floor (V) for the ROM gate's relative-error denominator, so
#: near-zero reference droops cannot inflate the error.
DROOP_FLOOR = 1e-9

#: Stamps of a block's currents :func:`_stamp_currents` stacks at a time, so
#: a full-order block holds one short chunk of its currents, not all of them.
_STAMP_CHUNK = 32


@dataclass(frozen=True)
class TransientOptions:
    """Knobs of the transient engine.

    Attributes
    ----------
    solver_mode:
        ``"full"`` integrates the full-order companion system
        (:class:`FullOrderStrategy`, the default); ``"rom"`` integrates the
        Krylov reduced-order projection
        (:class:`repro.sim.rom.ReducedOrderStrategy`) with a gated fallback
        to the full solver.
    rom:
        Reduced-order options (:class:`repro.sim.rom.ROMOptions`); only
        meaningful with ``solver_mode="rom"``, where ``None`` means the
        defaults.
    """

    solver_mode: str = "full"
    rom: Optional["ROMOptions"] = None

    def __post_init__(self) -> None:
        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(
                f"unknown solver mode {self.solver_mode!r}; expected one of {SOLVER_MODES}"
            )
        if self.solver_mode == "rom":
            from repro.sim.rom import ROMOptions

            if self.rom is None:
                object.__setattr__(self, "rom", ROMOptions())
            elif not isinstance(self.rom, ROMOptions):
                raise TypeError(f"rom must be a ROMOptions, got {type(self.rom).__name__}")
        elif self.rom is not None:
            raise ValueError("rom options require solver_mode='rom'")


@dataclass
class TransientResult:
    """Outcome of one transient run.

    Worst-case noise needs only running maxima, so no run keeps the
    ``(T, N)`` droop waveform.

    Attributes
    ----------
    max_droop_per_node:
        Maximum droop over the whole trace for every MNA node (V).
    final_droop:
        Droop at the final time stamp (useful for chained traces).
    worst_droop:
        The single worst droop over all nodes and stamps (Eq. 1).
    worst_time_index:
        Time-stamp index at which ``worst_droop`` occurred.
    num_steps / dt:
        Trace length and step used.
    solver:
        Name of the strategy that produced this result (``"full"`` or
        ``"rom"``) — in gated ROM runs the validation sample comes back
        ``"full"``.
    runtime_seconds:
        This trace's share of the wall clock of the strategy block that
        produced it (block time divided by the traces in the block); set by
        :meth:`TransientEngine.run_many`.
    """

    max_droop_per_node: np.ndarray
    final_droop: np.ndarray
    worst_droop: float
    worst_time_index: int
    num_steps: int
    dt: float
    solver: str = "full"
    runtime_seconds: float = 0.0


class TransientSolverStrategy(abc.ABC):
    """Interface between :class:`TransientEngine` and a concrete integrator.

    A strategy owns whatever factorisations or projection bases it needs and
    turns blocks of current traces into :class:`TransientResult` objects —
    one integrator loop per strategy.  The engine handles trace validation,
    batching/grouping and (in ROM mode) the error gate; strategies only
    integrate.
    """

    #: Short strategy name stamped into :attr:`TransientResult.solver`.
    name: str = "abstract"

    @abc.abstractmethod
    def run_block(self, traces: list[CurrentTrace]) -> list[TransientResult]:
        """Integrate equal-length traces in lockstep (one column each)."""


def _stamp_currents(traces: list[CurrentTrace]) -> Iterator[np.ndarray]:
    """Each stamp's ``(L, V)`` currents of equal-length traces, in order.

    One ``(_STAMP_CHUNK, L, V)`` buffer is refilled chunk by chunk, so a
    yielded stamp is a contiguous view that stays valid until the next one
    is requested.
    """
    num_steps = traces[0].num_steps
    chunk = np.empty((min(_STAMP_CHUNK, num_steps), traces[0].num_loads, len(traces)))
    for start in range(0, num_steps, len(chunk)):
        count = min(len(chunk), num_steps - start)
        for column, trace in enumerate(traces):
            chunk[:count, :, column] = trace.currents[start:start + count]
        yield from chunk[:count]


class FullOrderStrategy(TransientSolverStrategy):
    """The full-order companion-model integrator (the classic path).

    Building the strategy assembles and factorises the backward-Euler
    companion system ``S = G + G_L(dt) + C / dt`` once; every block afterwards
    is back-substitution against that factorisation.  This is the reference
    every other strategy is validated against: its results define the
    ground-truth labels of the corpus format.
    """

    name = "full"

    def __init__(self, mna: MNASystem, dt: float):
        self._mna = mna
        self._dt = dt

        self._cap_companion = mna.cap_diag / dt
        self._ind_companion = dt / mna.ind_value

        system = mna.conductance_with_inductor_branches(self._ind_companion)
        system = system + sp.diags(self._cap_companion, format="csc")
        self._system = system.tocsc()
        factor_started = time.perf_counter()
        self._solver: LinearSolver = make_solver(self._system)
        # The factor/solve split: building the strategy pays the (single)
        # sparse factorisation; every block afterwards is back-substitution.
        obs.metrics().histogram("sim.factor_seconds").observe(
            time.perf_counter() - factor_started
        )

        # Static solver for DC initial conditions (built lazily).
        self._static_solver: Optional[LinearSolver] = None

        # The load scatter: the load incidence restricted to the nodes that
        # carry loads.  A CSR row sums its columns in index order, so loads
        # sharing a node pre-sum exactly as ``np.add.at`` accumulates them.
        loads = mna.load_incidence().tocsr()
        self._load_nodes = np.flatnonzero(np.diff(loads.indptr))
        self._load_map = loads[self._load_nodes]
        # Inductor branches are few: plain index arithmetic, in branch order.
        self._ind_internal = np.flatnonzero(mna.ind_b != REFERENCE_NODE)
        self._ind_b_internal = mna.ind_b[self._ind_internal]

    @property
    def mna(self) -> MNASystem:
        """The MNA system being integrated."""
        return self._mna

    @property
    def solver(self) -> LinearSolver:
        """The factorised companion-system solver (shared with ROM builds)."""
        return self._solver

    @property
    def system_matrix(self) -> sp.csc_matrix:
        """The assembled companion system matrix ``S`` (CSC)."""
        return self._system

    @property
    def cap_companion(self) -> np.ndarray:
        """Per-node capacitor companion conductance ``C / dt``."""
        return self._cap_companion

    @property
    def ind_companion(self) -> np.ndarray:
        """Per-branch inductor companion conductance ``dt / L``."""
        return self._ind_companion

    def scatter_loads(self, rhs: np.ndarray, currents: np.ndarray) -> None:
        """Add one stamp's ``(L, V)`` load currents into ``rhs`` ``(N, V)`` in place.

        Loads sharing a node are pre-summed by one sparse product, then
        added to the rows they touch: on a zero ``rhs`` the result equals
        :meth:`~repro.pdn.stamps.MNASystem.load_vector_block` of
        ``currents.T`` bit for bit.
        """
        rhs[self._load_nodes] += self._load_map @ currents

    def _static(self) -> LinearSolver:
        """The lazily built static (DC) solver of the initial state."""
        if self._static_solver is None:
            self._static_solver = make_solver(self._mna.static_conductance())
        return self._static_solver

    def _dc_state(self, load_currents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """DC droop and inductor branch currents of a block of traces.

        Parameters
        ----------
        load_currents:
            Per-trace first-stamp currents, shape ``(V, L)``.

        Returns
        -------
        ``(droop, branch_current)`` with one column per trace: shapes
        ``(N, V)`` and ``(num_inductors, V)``.
        """
        droop = self._static().solve_many(self._mna.load_vector_block(load_currents))
        return droop, self._branch_voltages(droop) / INDUCTOR_SHORT_RESISTANCE

    def _branch_voltages(self, droop: np.ndarray) -> np.ndarray:
        """Inductor branch voltages ``E^T x`` of ``(N, V)`` droops, ``(B, V)``."""
        voltages = droop[self._mna.ind_a]
        voltages[self._ind_internal] -= droop[self._ind_b_internal]
        return voltages

    def run_block(self, traces: list[CurrentTrace]) -> list[TransientResult]:
        """Lockstep integration of equal-length traces (one column each).

        The only full-order integrator: a single trace is a block of one.
        State, right-hand side and maxima are Fortran-ordered ``(N, V)``
        arrays — the layout SuperLU reads and returns — and each stamp's
        right-hand side ``C/dt x + B u - E i_L`` is written in place: the
        capacitor term, then the pre-summed loads, then the inductor
        currents.
        """
        solve_started = time.perf_counter()
        mna = self._mna
        num_nodes = mna.num_nodes
        num_traces = len(traces)
        num_steps = traces[0].num_steps
        stamps = _stamp_currents(traces)
        droop, inductor_current = self._dc_state(next(stamps).T)

        max_droop = droop.copy(order="F")
        # Each stamp's worst droop per trace; the block's worst, and the
        # first stamp that reached it, are read off once at the end.
        stamp_worst = np.zeros((num_steps, num_traces))
        if num_nodes:
            droop.max(axis=0, out=stamp_worst[0])

        cap_companion = self._cap_companion[:, np.newaxis]
        ind_companion = self._ind_companion[:, np.newaxis]
        ind_a = mna.ind_a
        ind_internal, ind_b_internal = self._ind_internal, self._ind_b_internal
        rhs = np.empty((num_nodes, num_traces), order="F")

        for step, currents in enumerate(stamps, start=1):
            np.multiply(cap_companion, droop, out=rhs)
            self.scatter_loads(rhs, currents)
            np.subtract.at(rhs, ind_a, inductor_current)
            np.add.at(rhs, ind_b_internal, inductor_current[ind_internal])
            droop = self._solver.solve_many(rhs)
            inductor_current = inductor_current + ind_companion * self._branch_voltages(droop)
            np.maximum(max_droop, droop, out=max_droop)
            if num_nodes:
                droop.max(axis=0, out=stamp_worst[step])

        worst_time_index = stamp_worst.argmax(axis=0)
        worst_droop = stamp_worst.max(axis=0)
        obs.metrics().histogram("sim.solve_seconds").observe(
            time.perf_counter() - solve_started
        )
        return [
            TransientResult(
                max_droop_per_node=max_droop[:, column].copy(),
                final_droop=droop[:, column].copy(),
                worst_droop=float(worst_droop[column]),
                worst_time_index=int(worst_time_index[column]),
                num_steps=num_steps,
                dt=self._dt,
                solver=self.name,
            )
            for column in range(num_traces)
        ]


class TransientEngine:
    """Reusable transient integrator bound to one MNA system and time step.

    Building the engine factorises the companion-model system matrix; calling
    :meth:`run` with different current traces reuses that factorisation, which
    is how repeated worst-case validations amortise their cost.

    With ``solver_mode="rom"`` the engine additionally builds the Krylov
    reduced-order projection (:mod:`repro.sim.rom`) from that same
    factorisation and routes integration through it; :meth:`run_many` then
    validates a deterministic sample of every batch against the full-order
    path and falls back wholesale when the ROM misses the pinned
    ``worst_droop`` tolerance (see ``docs/solvers.md``).
    """

    def __init__(
        self,
        mna: MNASystem,
        dt: float,
        options: TransientOptions = TransientOptions(),
    ):
        check_positive(dt, "dt")
        self._mna = mna
        self._dt = dt
        self._full = FullOrderStrategy(mna, dt)
        self._rom: Optional["ReducedOrderStrategy"] = None
        if options.solver_mode == "rom":
            from repro.sim.rom import ReducedOrderStrategy

            self._rom = ReducedOrderStrategy.build(self._full, options.rom)

    @property
    def strategy(self) -> TransientSolverStrategy:
        """The active integration strategy (full-order or ROM)."""
        return self._rom if self._rom is not None else self._full

    @property
    def rom_stats(self) -> Optional["ROMRunStats"]:
        """Gate statistics of the ROM strategy (``None`` in full mode)."""
        return self._rom.stats if self._rom is not None else None

    def _check_trace(self, trace: CurrentTrace) -> None:
        """Validate one trace against the engine's dt and load count."""
        if not np.isclose(trace.dt, self._dt, rtol=1e-9, atol=0.0):
            raise ValueError(
                f"trace dt {trace.dt} does not match engine dt {self._dt}; "
                "build a new engine for a different time step"
            )
        if trace.num_loads != self._mna.num_loads:
            raise ValueError(
                f"trace has {trace.num_loads} loads but the design has {self._mna.num_loads}"
            )

    def run(self, trace: CurrentTrace) -> TransientResult:
        """Integrate the system over one current trace: a block of one.

        Exactly :meth:`run_many` on ``[trace]`` — the trace's ``dt`` must
        match the engine's ``dt`` (the factorisation depends on it), and in
        ROM mode the call is gated like any other: with
        ``validate_vectors >= 1`` the lone trace is the validation sample, so
        its label is the full-order result whether the gate passes or falls
        back.
        """
        return self.run_many([trace])[0]

    # ------------------------------------------------------------------ #
    # lockstep block integration
    # ------------------------------------------------------------------ #

    def run_many(
        self,
        traces: Sequence[CurrentTrace],
        batch_size: Optional[int] = None,
    ) -> list[TransientResult]:
        """Integrate several traces in lockstep through one factorisation.

        Dynamic PDN analysis is a series of static solves against one
        matrix; this is the block-RHS version of that observation.  Traces
        are grouped by length and each group advances through time together:
        at every stamp the per-trace right-hand sides are stacked as columns
        and handed to the solver's block back-substitution
        (:meth:`~repro.sim.linear.LinearSolver.solve_many`) in a **single**
        call, so the per-solve overhead — and all per-step Python work — is
        amortised across the whole batch.  This is the hot path of the
        dataset factory (:mod:`repro.datagen`).

        Column back-substitutions are independent inside SuperLU: each
        returned :class:`TransientResult` agrees with what :meth:`run`
        produces for the same trace to solver rounding (usually bit-equal;
        at worst a few ULPs, because the multi-RHS kernel may round
        differently), and results are fully deterministic for a given batch
        decomposition (asserted by ``tests/sim/test_transient.py``).

        In ROM mode every call is **gated**: a deterministic sample of the
        traces (:attr:`repro.sim.rom.ROMOptions.validate_vectors`, spread
        evenly over the call) is also integrated full-order; when the ROM's
        ``worst_droop`` deviates beyond
        :attr:`~repro.sim.rom.ROMOptions.tolerance` on any sampled trace the
        whole call falls back to the full-order strategy (recorded in
        :attr:`rom_stats` and the ``sim.rom.fallbacks`` counter).  Sampled
        traces always return their full-order results.

        Parameters
        ----------
        traces:
            Current traces; each must match the engine's ``dt`` and the
            design's load count.  Lengths may differ (equal lengths batch
            best).
        batch_size:
            Maximum number of traces integrated per lockstep block.  A
            full-order block holds ``(N, batch_size)`` state arrays plus one
            chunk of 32 stamps of its traces' currents (``32 x L x
            batch_size`` floats), never all of them; a ROM block holds one
            chunk of stamps (their reduced drive and states, and their node
            droops reconstructed in at most 8 MiB).  ``None`` integrates
            each equal-length group as one block.

        Returns
        -------
        One :class:`TransientResult` per trace, in input order.
        """
        traces = list(traces)
        if batch_size is not None and batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        for trace in traces:
            self._check_trace(trace)
        if not traces:
            return []
        if self._rom is None:
            return self._run_groups(traces, batch_size, self._full)
        return self._run_gated(traces, batch_size)

    def _run_groups(
        self,
        traces: list[CurrentTrace],
        batch_size: Optional[int],
        strategy: TransientSolverStrategy,
    ) -> list[TransientResult]:
        """Group already-validated traces by length and run lockstep blocks.

        Each result carries its share of its block's wall clock.
        """
        results: list[Optional[TransientResult]] = [None] * len(traces)
        groups: dict[int, list[int]] = {}
        for index, trace in enumerate(traces):
            groups.setdefault(trace.num_steps, []).append(index)
        for indices in groups.values():
            limit = batch_size or len(indices)
            for start in range(0, len(indices), limit):
                chunk = indices[start:start + limit]
                started = time.perf_counter()
                block = strategy.run_block([traces[i] for i in chunk])
                share = (time.perf_counter() - started) / len(chunk)
                for index, result in zip(chunk, block):
                    result.runtime_seconds = share
                    results[index] = result
        return results  # type: ignore[return-value]

    def _validation_indices(self, count: int) -> list[int]:
        """Deterministic evenly-spread sample of trace indices to validate."""
        assert self._rom is not None
        sample = min(self._rom.options.validate_vectors, count)
        if sample <= 0:
            return []
        if sample == 1:
            return [0]
        return sorted({round(i * (count - 1) / (sample - 1)) for i in range(sample)})

    def _run_gated(
        self, traces: list[CurrentTrace], batch_size: Optional[int]
    ) -> list[TransientResult]:
        """ROM integration with the deterministic full-order error gate."""
        rom = self._rom
        assert rom is not None
        results = self._run_groups(traces, batch_size, rom)
        indices = self._validation_indices(len(traces))
        if not indices:
            rom.stats.rom_vectors += len(traces)
            return results

        reference = self._run_groups([traces[i] for i in indices], batch_size, self._full)
        error = 0.0
        for index, full_result in zip(indices, reference):
            denominator = max(abs(full_result.worst_droop), DROOP_FLOOR)
            error = max(
                error, abs(results[index].worst_droop - full_result.worst_droop) / denominator
            )
        rom.stats.calls += 1
        rom.stats.validated += len(indices)
        rom.stats.max_rel_error = max(rom.stats.max_rel_error, error)
        obs.metrics().counter("sim.rom.validations").inc(len(indices))

        if error <= rom.options.tolerance:
            # Accept: the sampled traces keep their (free, exact) full-order
            # results, everything else stays reduced-order.
            for index, full_result in zip(indices, reference):
                results[index] = full_result
            rom.stats.rom_vectors += len(traces) - len(indices)
            rom.stats.full_vectors += len(indices)
            return results

        rom.stats.fallbacks += 1
        rom.stats.full_vectors += len(traces)
        obs.metrics().counter("sim.rom.fallbacks").inc()
        _LOG.warning(
            "ROM gate failed (rel. worst_droop error %.3g > tolerance %.3g); "
            "falling back to the full-order solver for this batch of %d traces",
            error,
            rom.options.tolerance,
            len(traces),
        )
        validated = set(indices)
        remaining = [i for i in range(len(traces)) if i not in validated]
        recomputed = self._run_groups([traces[i] for i in remaining], batch_size, self._full)
        for index, full_result in zip(indices, reference):
            results[index] = full_result
        for index, full_result in zip(remaining, recomputed):
            results[index] = full_result
        return results
