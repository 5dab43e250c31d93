"""Krylov reduced-order model (ROM) of the PDN transient problem.

Datagen throughput is bounded by the full-order transient solver: every time
stamp of every test vector is one sparse back-substitution against the
backward-Euler companion system ``S = G + G_L(dt) + C / dt``.  This module
replays the *same* companion-model iteration in a small subspace instead:

1. **Basis construction** (truncated block Krylov / moment matching): the
   starting block is the *complete* set of excitation ports — every load
   incidence column of ``B`` plus the package-inductor incidence ``E`` — so
   no excited region is invisible to the subspace.  The block Krylov
   sequence ``S⁻¹X, (S⁻¹D)S⁻¹X, …`` (``D`` the capacitor companion
   diagonal) is the sequence of moments of the *discrete-time* transfer
   function the integrator realises; each level is rank-truncated before
   being propagated (bounding the sparse-solve width) and a final
   Gram-matrix eigendecomposition keeps the ``rank`` dominant directions of
   the whole moment stack.  The construction is fully deterministic — no
   random sketch — and reuses the sparse factorisation already paid for by
   the full-order path.
2. **Projection**: the reduced system ``V^T S V`` (dense, a few hundred
   rows) is Cholesky-factored **once per design**; the step recursion is
   then pre-applied (``F = S_r⁻¹ D_r`` and friends) so each time stamp costs
   a single ``r × r`` GEMM.  Inductor branch currents are *not* projected —
   the package has few of them and keeping them exact preserves the
   die–package resonance feedback loop.
3. **Integration** (:class:`ReducedOrderStrategy`): the companion iteration
   runs in reduced coordinates, and node droops are reconstructed chunk-wise
   with one level-3 BLAS product per chunk (optionally in float32 — see
   :attr:`ROMOptions.reconstruct_dtype`) to track the per-node maxima the
   noise labels need.

Accuracy is **gated, not assumed**: :meth:`repro.sim.transient.
TransientEngine.run_many` validates a deterministic sample of every batch
against the full-order strategy and falls back wholesale when the relative
``worst_droop`` error exceeds :attr:`ROMOptions.tolerance` (recorded in
:class:`ROMRunStats`, the ``sim.rom.*`` metrics and the corpus manifest).
See ``docs/solvers.md`` for the full contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np
import scipy.linalg

from repro import obs
from repro.sim.transient import TransientResult, TransientSolverStrategy
from repro.sim.waveform import CurrentTrace, VoltageWaveform
from repro.utils import get_logger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.transient import FullOrderStrategy

_LOG = get_logger("sim.rom")

#: Gram-eigenvalue ratio below which moment columns are dropped as linearly
#: dependent (eigenvalues are squared singular values, hence the square of
#: the usual singular-value drop tolerance).
_DROP_TOLERANCE = 1e-13

#: Hard ceiling of the automatic rank choice (``ROMOptions.rank == 0``).
_AUTO_RANK_CAP = 256

#: Floor of the automatic rank choice.
_AUTO_RANK_FLOOR = 64

#: Columns :func:`_normalise_columns` squares at once, so the temporary
#: ``np.linalg.norm`` takes is a sliver of the moment stack, not a copy.
_NORM_CHUNK_COLUMNS = 32

#: Target byte size of one reconstruction chunk (bounds the dense ``(N, c, V)``
#: working set of the chunked level-3 BLAS reconstruction).
_CHUNK_TARGET_BYTES = 1 << 25

#: Allowed values of :attr:`ROMOptions.reconstruct_dtype`.
RECONSTRUCT_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class ROMOptions:
    """Knobs of the reduced-order strategy and its error gate.

    Attributes
    ----------
    order:
        Krylov depth — how many moments of the discrete-time transfer
        function the basis matches.  Deeper captures more of the ringing
        transient; 6 is the sweet spot on the seed designs.
    rank:
        Number of basis columns kept after truncation.  ``0`` (the default)
        chooses automatically from the design: half the excitation-port
        count, clamped to ``[64, 256]`` and to the node count.
    tolerance:
        Relative ``worst_droop`` error above which a gated batch falls back
        to the full-order solver.
    validate_vectors:
        How many traces of each :meth:`~repro.sim.transient.TransientEngine.
        run_many` call are validated against the full-order solver
        (``0`` disables the gate — labels are then *unvalidated*).
    droop_floor:
        Absolute floor (V) for the gate's relative-error denominator, so
        near-zero reference droops cannot inflate the error.
    reconstruct_dtype:
        Dtype of the chunked droop reconstruction (``"float32"`` halves the
        dominant GEMM cost at ~1e-7 relative error — far below any usable
        gate tolerance; ``"float64"`` reconstructs at working precision).
        The reduced state recursion itself always runs in float64.
    """

    order: int = 6
    rank: int = 0
    tolerance: float = 0.08
    validate_vectors: int = 2
    droop_floor: float = 1e-9
    reconstruct_dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0 (0 = auto), got {self.rank}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.validate_vectors < 0:
            raise ValueError(f"validate_vectors must be >= 0, got {self.validate_vectors}")
        if self.droop_floor <= 0:
            raise ValueError(f"droop_floor must be > 0, got {self.droop_floor}")
        if self.reconstruct_dtype not in RECONSTRUCT_DTYPES:
            raise ValueError(
                f"reconstruct_dtype must be one of {RECONSTRUCT_DTYPES}, "
                f"got {self.reconstruct_dtype!r}"
            )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (folded into corpus hashes)."""
        return {
            "order": self.order,
            "rank": self.rank,
            "tolerance": self.tolerance,
            "validate_vectors": self.validate_vectors,
            "droop_floor": self.droop_floor,
            "reconstruct_dtype": self.reconstruct_dtype,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ROMOptions":
        """Rebuild options from :meth:`to_dict` output."""
        return cls(**payload)


@dataclass
class ROMRunStats:
    """Cumulative gate statistics of one :class:`ReducedOrderStrategy`.

    Attributes
    ----------
    calls:
        Gated ``run_many`` calls seen.
    validated:
        Traces integrated by *both* strategies for the error gate.
    fallbacks:
        Gated calls that fell back wholesale to the full-order solver.
    rom_vectors / full_vectors:
        Traces whose returned labels came from the reduced / full path.
    max_rel_error:
        Worst relative ``worst_droop`` error observed at the gate.
    """

    calls: int = 0
    validated: int = 0
    fallbacks: int = 0
    rom_vectors: int = 0
    full_vectors: int = 0
    max_rel_error: float = 0.0


def _normalise_columns(block: np.ndarray) -> None:
    """Scale columns to unit norm in place (zero columns are left untouched).

    Each chunk of columns goes through ``np.linalg.norm`` on its own; a
    column's norm sums exactly as it would in the whole block.
    """
    for start in range(0, block.shape[1], _NORM_CHUNK_COLUMNS):
        chunk = block[:, start : start + _NORM_CHUNK_COLUMNS]
        norms = np.linalg.norm(chunk, axis=0, keepdims=True)
        chunk /= np.where(norms > 0.0, norms, 1.0)


def _gram_truncate(block: np.ndarray, rank: int) -> np.ndarray:
    """Dominant ``rank``-dimensional orthonormal subspace of ``block``.

    Works on the (small) Gram matrix ``K^T K`` instead of a tall SVD — an
    ``O(N·W²)`` GEMM plus an ``O(W³)`` symmetric eigendecomposition, which is
    far cheaper than ``O(N·W²)``-with-large-constants LAPACK ``gesdd`` for
    the tall stacks the Krylov recurrence produces.  Columns are normalised
    first — in place, so ``block`` is overwritten — so the eigenvalue
    spectrum reflects directions, not scales; eigenvalues below
    ``_DROP_TOLERANCE`` times the largest are dropped as linearly dependent.
    Deterministic (no randomised sketch).
    """
    if block.shape[1] == 0:
        return block
    _normalise_columns(block)
    # The Gram matrix is symmetric: its Fortran-contiguous transpose lets
    # LAPACK overwrite it in place instead of copying it.
    gram = block.T @ block
    eigenvalues, eigenvectors = scipy.linalg.eigh(gram.T, overwrite_a=True, check_finite=False)
    del gram
    # eigh returns ascending order; walk from the top.
    top = eigenvalues[-1]
    if top <= 0.0:
        return block[:, :0]
    keep = min(rank, int((eigenvalues > top * _DROP_TOLERANCE).sum()))
    sel = slice(len(eigenvalues) - keep, len(eigenvalues))
    mixed = block @ (eigenvectors[:, sel] / np.sqrt(eigenvalues[sel]))
    # The Gram route loses a few digits of orthonormality; one thin QR
    # restores it to working precision for the reduced Cholesky.
    polished, _ = scipy.linalg.qr(mixed, mode="economic", check_finite=False)
    return np.ascontiguousarray(polished)


def _excitation_block(full: "FullOrderStrategy") -> np.ndarray:
    """The complete excitation-port block ``X = [B | E]``.

    Every load incidence column and every package-inductor port, so the
    level-0 moments span the response of *each* excitation individually;
    the rank truncation (not a lossy sketch) then decides what to keep.
    """
    mna = full.mna
    # Column-major, as the incidences' own dense form: each incidence is
    # written straight into its contiguous slice.
    ports = np.zeros((mna.num_nodes, mna.num_loads + mna.num_inductors), order="F")
    mna.load_incidence().toarray(out=ports[:, : mna.num_loads])
    if mna.num_inductors:
        mna.inductor_incidence().toarray(out=ports[:, mna.num_loads :])
    return ports


def _auto_rank(num_ports: int, num_nodes: int) -> int:
    """Default basis size: half the port count, clamped to a sane band."""
    rank = max(_AUTO_RANK_FLOOR, (num_ports + 1) // 2)
    return min(rank, _AUTO_RANK_CAP, num_nodes)


class ReducedOrderStrategy(TransientSolverStrategy):
    """Moment-matching reduced-order integrator behind the solver seam.

    Built from (and sharing the factorisation of) a
    :class:`~repro.sim.transient.FullOrderStrategy` via :meth:`build`; the
    projected dense system is factored once and pre-applied to the companion
    recursion, then reused across every trace.  Results carry
    ``solver="rom"`` and agree with the full-order strategy to the gated
    tolerance on the worst-droop metric (``docs/solvers.md``).
    """

    name = "rom"

    def __init__(
        self,
        full: "FullOrderStrategy",
        options: ROMOptions,
        basis: np.ndarray,
        step_matrix: np.ndarray,
        load_gain: np.ndarray,
        inductor_gain: np.ndarray,
        inductor_projection: np.ndarray,
    ):
        self._full = full
        self._options = options
        self._basis = basis
        #: ``F = S_r⁻¹ D_r`` — the pre-applied reduced step matrix.
        self._step_matrix = step_matrix
        #: ``S_r⁻¹ B_r`` — pre-applied reduced load scatter.
        self._load_gain = load_gain
        #: ``S_r⁻¹ E_r`` — pre-applied reduced inductor scatter.
        self._ind_gain = inductor_gain
        #: ``E_r = (E^T V)^T`` — un-applied, for branch voltages ``E^T V z``.
        self._ind_proj = inductor_projection
        self._reconstruct_dtype = np.dtype(options.reconstruct_dtype)
        self._basis_recon = (
            basis
            if self._reconstruct_dtype == basis.dtype
            else basis.astype(self._reconstruct_dtype)
        )
        #: Cumulative gate statistics, updated by the engine's gate.
        self.stats = ROMRunStats()

    @classmethod
    def build(
        cls, full: "FullOrderStrategy", options: Optional[ROMOptions] = None
    ) -> "ReducedOrderStrategy":
        """Project the companion system of a full-order strategy.

        Runs the truncated block-Krylov recurrence against the full
        strategy's (already paid) factorisation, keeps the ``rank`` dominant
        directions of the moment stack, projects ``(S, D, B, E)`` onto the
        basis and Cholesky-factors + pre-applies the reduced system.
        Observed as ``sim.rom.build_seconds`` / ``sim.rom.builds`` and the
        ``sim.rom.build`` span; the kept basis size lands in the
        ``sim.rom.rank`` gauge.
        """
        options = options or ROMOptions()
        mna = full.mna
        build_started = time.perf_counter()
        ports = _excitation_block(full)
        rank = options.rank or _auto_rank(ports.shape[1], mna.num_nodes)
        rank = min(rank, mna.num_nodes)
        with obs.get_tracer().span(
            "sim.rom.build", nodes=mna.num_nodes, order=options.order, rank=rank
        ):
            cap_column = full.cap_companion[:, np.newaxis]
            moment = full.solver.solve_many(ports)
            del ports
            # One preallocated moment stack: each level is written into its
            # own slice and normalised there, and the final truncation
            # normalises the stack in place.  Level widths after the first are at most
            # ``min(width, rank)``; rank-deficient truncations leave the
            # tail unused.  Column-major, like the solver's output: every
            # used prefix is contiguous, and the column norms and the Gram
            # product, whose summation order follows the layout, round
            # exactly as they do on the solved levels themselves.
            width = moment.shape[1]
            stack = np.empty(
                (mna.num_nodes, width + (options.order - 1) * min(width, rank)), order="F"
            )
            used = 0
            for level in range(options.order):
                if level:
                    if moment.shape[1] > rank:
                        moment = _gram_truncate(moment, rank)
                    if moment.shape[1] == 0:
                        break  # subspace exhausted (tiny designs)
                    moment = full.solver.solve_many(cap_column * moment)
                level_columns = stack[:, used:used + moment.shape[1]]
                level_columns[...] = moment
                _normalise_columns(level_columns)
                used += moment.shape[1]
            basis = _gram_truncate(stack[:, :used], rank)

            reduced = basis.T @ (full.system_matrix @ basis)
            reduced = 0.5 * (reduced + reduced.T)
            factor = scipy.linalg.cho_factor(reduced, lower=True, check_finite=False)
            cap_companion_r = (basis * full.cap_companion[:, np.newaxis]).T @ basis
            load_projection = np.ascontiguousarray((mna.load_incidence().T @ basis).T)
            if mna.num_inductors:
                inductor_projection = np.ascontiguousarray(
                    (mna.inductor_incidence().T @ basis).T
                )
            else:
                inductor_projection = np.empty((basis.shape[1], 0))
            # Pre-apply the reduced inverse once so the step loop is pure
            # GEMM — no per-step triangular solves.
            step_matrix = scipy.linalg.cho_solve(factor, cap_companion_r, check_finite=False)
            load_gain = scipy.linalg.cho_solve(factor, load_projection, check_finite=False)
            inductor_gain = scipy.linalg.cho_solve(
                factor, inductor_projection, check_finite=False
            )

        elapsed = time.perf_counter() - build_started
        obs.metrics().histogram("sim.rom.build_seconds").observe(elapsed)
        obs.metrics().counter("sim.rom.builds").inc()
        obs.metrics().gauge("sim.rom.rank").set(basis.shape[1])
        _LOG.info(
            "built ROM basis: %d nodes -> %d columns in %.3f s",
            mna.num_nodes,
            basis.shape[1],
            elapsed,
        )
        return cls(
            full,
            options,
            basis,
            step_matrix,
            load_gain,
            inductor_gain,
            inductor_projection,
        )

    @property
    def options(self) -> ROMOptions:
        """The ROM options the strategy was built with."""
        return self._options

    @property
    def rank(self) -> int:
        """Number of basis columns actually kept after rank truncation."""
        return int(self._basis.shape[1])

    def run_block(self, traces: list[CurrentTrace]) -> list[TransientResult]:
        """Lockstep reduced-order integration of equal-length traces.

        Mirrors the full-order companion iteration exactly, restricted to the
        basis: the load drive of *all* stamps is pre-applied in one GEMM, the
        reduced state advances through a single ``r × r`` GEMM per stamp
        (``F = S_r⁻¹ D_r`` was pre-applied at build time), inductor branch
        currents stay exact, and node droops are reconstructed chunk-wise
        (one level-3 BLAS product per chunk, in
        :attr:`ROMOptions.reconstruct_dtype`) to accumulate the per-node
        maxima.
        """
        solve_started = time.perf_counter()
        full = self._full
        mna = full.mna
        options = full.options
        num_nodes = mna.num_nodes
        num_traces = len(traces)
        num_steps = traces[0].num_steps
        basis = self._basis
        rank = basis.shape[1]
        # The block's one copy of its currents, written straight into the
        # C-ordered (L, T, V) drive operand so the reshape below is a view.
        currents = np.empty((mna.num_loads, num_steps, num_traces))
        for column, trace in enumerate(traces):
            currents[:, :, column] = trace.currents.T
        droop, inductor_current = full._dc_state(currents[:, 0, :].T)

        # Pre-applied load drive of every stamp: one GEMM for the whole block.
        flat = currents.reshape(mna.num_loads, num_steps * num_traces)
        drive = (self._load_gain @ flat).reshape(rank, num_steps, num_traces)
        # Free the currents before the reconstruction chunks are allocated.
        del currents, flat

        state = basis.T @ droop  # reduced coordinates z with x ~= V z
        step_matrix = self._step_matrix
        ind_gain = self._ind_gain
        ind_proj = self._ind_proj
        ind_companion = full.ind_companion[:, np.newaxis]
        has_inductors = bool(mna.num_inductors)
        applied = step_matrix @ state  # F z, carried across steps

        # The DC droop is known exactly — seed the maxima with it rather than
        # with its in-subspace projection.
        max_droop = droop.copy()
        worst_droop = droop.max(axis=0) if num_nodes else np.zeros(num_traces)
        worst_time_index = np.zeros(num_traces, dtype=int)
        stored: Optional[np.ndarray] = None
        if options.store_waveform:
            stored = np.empty((num_steps, num_nodes, num_traces))
            stored[0] = droop

        rdtype = self._reconstruct_dtype
        basis_r = self._basis_recon
        itemsize = rdtype.itemsize
        chunk_steps = max(
            1, int(_CHUNK_TARGET_BYTES // max(1, itemsize * num_nodes * num_traces))
        )
        pending: list[np.ndarray] = []
        pending_start = 1

        def flush() -> None:
            """Reconstruct the pending chunk and fold it into the maxima."""
            nonlocal pending, pending_start
            if not pending:
                return
            count = len(pending)
            stacked = np.stack(pending, axis=1).astype(rdtype, copy=False)  # (r, c, V)
            frames = (basis_r @ stacked.reshape(rank, count * num_traces)).reshape(
                num_nodes, count, num_traces
            )
            np.maximum(max_droop, frames.max(axis=1), out=max_droop)
            if num_nodes:
                step_worst = frames.max(axis=0)  # (c, V)
                chunk_max = step_worst.max(axis=0)
                chunk_arg = step_worst.argmax(axis=0)
                improved = chunk_max > worst_droop
                worst_droop[improved] = chunk_max[improved]
                worst_time_index[improved] = pending_start + chunk_arg[improved]
            if stored is not None:
                stored[pending_start:pending_start + count] = frames.transpose(1, 0, 2)
            pending_start += count
            pending = []

        for step in range(1, num_steps):
            # z' = F z + S_r⁻¹(B u_t - E h_t); ``applied`` carries F z.
            state = applied + drive[:, step, :]
            if has_inductors:
                state -= ind_gain @ inductor_current
                inductor_current = inductor_current + ind_companion * (ind_proj.T @ state)
            applied = step_matrix @ state
            pending.append(state)
            if len(pending) >= chunk_steps:
                flush()
        flush()

        final_droop = basis @ state  # (N, V)
        obs.metrics().histogram("sim.rom.solve_seconds").observe(
            time.perf_counter() - solve_started
        )
        results = []
        for column in range(num_traces):
            waveform = None
            if stored is not None:
                waveform = VoltageWaveform(stored[:, :, column].copy(), full._dt)
            results.append(
                TransientResult(
                    max_droop_per_node=np.asarray(max_droop[:, column], dtype=float).copy(),
                    final_droop=final_droop[:, column].copy(),
                    worst_droop=float(worst_droop[column]),
                    worst_time_index=int(worst_time_index[column]),
                    num_steps=num_steps,
                    dt=full._dt,
                    waveform=waveform,
                    solver=self.name,
                )
            )
        return results
