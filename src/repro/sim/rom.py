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
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro import obs
from repro.sim.transient import DROOP_FLOOR, TransientResult, TransientSolverStrategy
from repro.sim.waveform import CurrentTrace, VoltageWaveform
from repro.utils import FixedKeys, get_logger

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

#: Columns the basis build solves or normalises at once, so a Krylov level's
#: right-hand sides and the temporary ``np.linalg.norm`` takes are slivers
#: of the moment stack, not copies of a level.
_CHUNK_COLUMNS = 32

#: Target byte size of one reconstruction chunk (bounds the dense ``(c, V, N)``
#: working set of the chunked level-3 BLAS reconstruction).
_CHUNK_TARGET_BYTES = 1 << 23

#: Allowed values of :attr:`ROMOptions.reconstruct_dtype`.
RECONSTRUCT_DTYPES = ("float32", "float64")

# Every serialised option block records the floor at its one value, so
# corpus and campaign hashes made when it was an option stay unchanged.
_FIXED_KEYS = FixedKeys(droop_floor=DROOP_FLOOR)


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
        (``0`` disables the gate — labels are then *unvalidated*).  The
        gate's relative error divides by at least
        :data:`~repro.sim.transient.DROOP_FLOOR`.
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
        if self.reconstruct_dtype not in RECONSTRUCT_DTYPES:
            raise ValueError(
                f"reconstruct_dtype must be one of {RECONSTRUCT_DTYPES}, "
                f"got {self.reconstruct_dtype!r}"
            )

    def to_dict(self) -> dict:
        """JSON-serialisable representation (folded into corpus hashes)."""
        return _FIXED_KEYS.write(asdict(self))

    @classmethod
    def from_dict(cls, payload: dict) -> "ROMOptions":
        """Rebuild options from :meth:`to_dict` output (one droop floor only)."""
        return cls(**_FIXED_KEYS.pop(dict(payload), "ROM options"))


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
    for start in range(0, block.shape[1], _CHUNK_COLUMNS):
        chunk = block[:, start : start + _CHUNK_COLUMNS]
        norms = np.linalg.norm(chunk, axis=0, keepdims=True)
        chunk /= np.where(norms > 0.0, norms, 1.0)


def _dominant_mix(block: np.ndarray, rank: int) -> np.ndarray:
    """Spanning columns of the dominant ``rank``-dimensional subspace of ``block``.

    ``block``'s columns must already be unit-norm (or zero), so the spectrum
    reflects directions, not scales; ``block`` is not modified.  Works on the
    (small) Gram matrix ``K^T K`` instead of a tall SVD — an ``O(N·W²)`` GEMM
    plus a symmetric eigendecomposition of only its top ``rank`` eigenpairs.
    Eigenvalues below ``_DROP_TOLERANCE`` times the largest are dropped as
    linearly dependent, so the result has ``min(rank, #kept)`` columns.  The
    columns are orthonormal up to the few digits the Gram route loses;
    :func:`_orthonormalise` restores the rest.  Deterministic (no randomised
    sketch).
    """
    width = block.shape[1]
    if width == 0:
        return block[:, :0].copy()
    # The Gram matrix is symmetric: its Fortran-contiguous transpose lets
    # LAPACK overwrite it in place instead of copying it.
    gram = block.T @ block
    eigenvalues, eigenvectors = scipy.linalg.eigh(
        gram.T,
        overwrite_a=True,
        check_finite=False,
        subset_by_index=(max(0, width - rank), width - 1),
    )
    del gram
    # eigh returns ascending order; walk from the top.
    top = eigenvalues[-1]
    if top <= 0.0:
        return block[:, :0].copy()
    keep = int((eigenvalues > top * _DROP_TOLERANCE).sum())
    sel = slice(len(eigenvalues) - keep, len(eigenvalues))
    return block @ (eigenvectors[:, sel] / np.sqrt(eigenvalues[sel]))


def _orthonormalise(mixed: np.ndarray) -> np.ndarray:
    """One thin QR: orthonormal to working precision for the reduced Cholesky.

    Called on a temporary, the call holds ``mixed``'s only reference, so it
    is freed before the row-major copy of the polished columns is made.
    """
    polished, _ = scipy.linalg.qr(mixed, mode="economic", check_finite=False)
    del mixed
    return np.ascontiguousarray(polished)


def _excitation_ports(full: "FullOrderStrategy") -> sp.csc_matrix:
    """The complete excitation-port block ``X = [B | E]``, sparse.

    Every load incidence column and every package-inductor port, so the
    level-0 moments span the response of *each* excitation individually;
    the rank truncation (not a lossy sketch) then decides what to keep.
    The build densifies it a chunk of columns at a time.
    """
    mna = full.mna
    return sp.hstack([mna.load_incidence(), mna.inductor_incidence()], format="csc")


def _solve_level(
    full: "FullOrderStrategy", rhs_columns: Callable[[slice], np.ndarray], out: np.ndarray
) -> None:
    """Solve one Krylov level into ``out``, ``_CHUNK_COLUMNS`` at a time, and normalise it.

    ``rhs_columns(chunk)`` returns the dense right-hand sides of the columns
    ``chunk`` selects; each chunk's solution is written straight into its
    slice of ``out``.
    """
    for start in range(0, out.shape[1], _CHUNK_COLUMNS):
        chunk = slice(start, min(start + _CHUNK_COLUMNS, out.shape[1]))
        out[:, chunk] = full.solver.solve_many(rhs_columns(chunk))
    _normalise_columns(out)


def _moment_stack(
    full: "FullOrderStrategy", ports: sp.csc_matrix, rank: int, order: int
) -> np.ndarray:
    """The normalised Krylov levels side by side, ``(N, used)`` column-major.

    One preallocated stack: each level is solved a chunk of columns at a
    time straight into its own slice and normalised there.  Level widths
    after the first are at most ``min(width, rank)``; a level wider than
    ``rank`` is truncated before it is propagated, and rank-deficient
    truncations leave the tail unused.  The solve is linear, so propagating
    from the *normalised* previous level scales the next level's columns
    only.  The returned view is the stack's only reference.
    """
    cap_column = full.cap_companion[:, np.newaxis]
    width = ports.shape[1]
    stack = np.empty((ports.shape[0], width + (order - 1) * min(width, rank)), order="F")
    level = stack[:, :width]
    _solve_level(full, lambda chunk: ports[:, chunk].toarray(order="F"), level)
    used = width
    for _ in range(1, order):
        source = level
        if source.shape[1] > rank:
            source = _orthonormalise(_dominant_mix(source, rank))
        if source.shape[1] == 0:
            break  # subspace exhausted (tiny designs)
        level = stack[:, used:used + source.shape[1]]
        _solve_level(full, lambda chunk: cap_column * source[:, chunk], level)
        used += level.shape[1]
    return stack[:, :used]


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
        #: ``V^T`` in the reconstruction dtype: chunks reconstruct as
        #: ``states^T @ V^T``, node-contiguous ``(c, V, N)`` frames.
        self._basis_recon_t = basis.T.astype(options.reconstruct_dtype, copy=False)
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
        ports = _excitation_ports(full)
        rank = options.rank or _auto_rank(ports.shape[1], mna.num_nodes)
        rank = min(rank, mna.num_nodes)
        with obs.get_tracer().span(
            "sim.rom.build", nodes=mna.num_nodes, order=options.order, rank=rank
        ):
            # Nested calls hand each temporary on: the stack dies before the
            # polish QR allocates its copies.
            basis = _orthonormalise(
                _dominant_mix(_moment_stack(full, ports, rank, options.order), rank)
            )

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
        basis, one chunk of stamps at a time: the chunk's load drive is
        pre-applied with one GEMM per trace, the reduced state advances
        through a single ``r × r`` GEMM per stamp (``F = S_r⁻¹ D_r`` was
        pre-applied at build time), inductor branch currents stay exact, and
        the chunk's node droops are reconstructed with one level-3 BLAS
        product ``states^T @ V^T`` (at most ``_CHUNK_TARGET_BYTES``, in
        :attr:`ROMOptions.reconstruct_dtype`) into ``(c, V, N)`` frames, so
        the per-node maxima and each stamp's worst droop both reduce over
        contiguous memory.  The block holds one chunk, never a copy of its
        currents.
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
        droop, inductor_current = full._dc_state(
            np.stack([trace.currents[0] for trace in traces])
        )
        state = basis.T @ droop  # reduced coordinates z with x ~= V z
        step_matrix = self._step_matrix
        ind_gain = self._ind_gain
        ind_proj = self._ind_proj
        ind_companion = full.ind_companion[:, np.newaxis]
        has_inductors = bool(mna.num_inductors)
        applied = step_matrix @ state  # F z, carried across steps

        # The DC droop is known exactly — seed the maxima with it rather than
        # with its in-subspace projection.  Maxima are kept ``(V, N)``, the
        # layout of one reconstructed stamp.
        max_droop = droop.T.copy()
        worst_droop = droop.max(axis=0) if num_nodes else np.zeros(num_traces)
        worst_time_index = np.zeros(num_traces, dtype=int)
        stored: Optional[np.ndarray] = None
        if options.store_waveform:
            stored = np.empty((num_steps, num_nodes, num_traces))
            stored[0] = droop

        basis_t = self._basis_recon_t
        chunk_steps = min(
            max(1, _CHUNK_TARGET_BYTES // max(1, basis_t.itemsize * num_nodes * num_traces)),
            max(1, num_steps - 1),
        )
        # One chunk of stamps at a time: its pre-applied load drive, and its
        # reduced states, cast to the reconstruction dtype as they are written.
        drive = np.empty((rank, chunk_steps, num_traces))
        states = np.empty((chunk_steps, num_traces, rank), basis_t.dtype)
        for start in range(1, num_steps, chunk_steps):
            count = min(chunk_steps, num_steps - start)
            for column, trace in enumerate(traces):
                drive[:, :count, column] = self._load_gain @ trace.currents[start:start + count].T
            for offset in range(count):
                # z' = F z + S_r⁻¹(B u_t - E h_t); ``applied`` carries F z.
                state = applied + drive[:, offset, :]
                if has_inductors:
                    state -= ind_gain @ inductor_current
                    inductor_current = inductor_current + ind_companion * (ind_proj.T @ state)
                applied = step_matrix @ state
                states[offset] = state.T

            frames = (states[:count].reshape(count * num_traces, rank) @ basis_t).reshape(
                count, num_traces, num_nodes
            )
            np.maximum(max_droop, frames.max(axis=0), out=max_droop)
            if num_nodes:
                step_worst = frames.max(axis=2)  # (c, V)
                chunk_max = step_worst.max(axis=0)
                chunk_arg = step_worst.argmax(axis=0)
                improved = chunk_max > worst_droop
                worst_droop[improved] = chunk_max[improved]
                worst_time_index[improved] = start + chunk_arg[improved]
            if stored is not None:
                stored[start:start + count] = frames.transpose(0, 2, 1)
            del frames  # before the next chunk's frames are allocated

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
                    max_droop_per_node=max_droop[column].copy(),
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
