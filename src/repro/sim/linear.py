"""The sparse solver for the PDN system matrix.

Dynamic PDN analysis is "a series of static analyses, where the system matrix
is the same but with different right-hand-side items" (Sec. 2 of the paper),
so the dominant cost is repeated solves against one SPD matrix.  The system
therefore needs exactly one solver: :class:`LinearSolver` factorises the
matrix once with SuperLU in symmetric mode (a symmetric minimum-degree
ordering of ``A^T + A`` and no off-diagonal pivoting, which for an SPD matrix
is an ``LDL^T``-style factorisation) and back-substitutes every right-hand
side against it.  The static, transient and reduced-order engines all build
theirs through :func:`make_solver`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class LinearSolver:
    """``A x = b`` for one fixed sparse SPD matrix: factor once, solve many.

    scipy has no sparse Cholesky; SuperLU with ``permc_spec="MMD_AT_PLUS_A"``,
    ``diag_pivot_thresh=0`` and ``SymmetricMode`` keeps the symmetric
    ordering and the diagonal pivots, which on PDN matrices gives ~40%
    sparser factors (and proportionally faster back-substitution) than the
    default COLAMD LU.

    A block of right-hand sides is always solved in **one** back-substitution
    call, never a per-column Python loop.  SuperLU back-substitutes the
    columns of a block independently; ``solve_many(B)[:, j]`` equals
    ``solve(B[:, j])`` up to a few ULPs (the multi-RHS kernel may round
    differently than the single-RHS one) and is *deterministic* for a given
    block, which is what the dataset factory's reproducibility contract
    builds on (see ``docs/data-pipeline.md``).

    Right-hand sides are not checked for NaN/Inf here: every one is built
    from inputs validated where they enter the system (a
    :class:`~repro.sim.waveform.CurrentTrace` refuses non-finite currents,
    :meth:`~repro.sim.static_ir.StaticIRAnalysis.solve` non-finite loads),
    so a per-stamp scan would only repeat those checks.
    """

    def __init__(self, matrix: sp.spmatrix):
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        self._matrix = matrix
        self._lu = spla.splu(
            matrix,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
        )

    @property
    def matrix(self) -> sp.csc_matrix:
        """The system matrix this solver was built for."""
        return self._matrix

    @property
    def size(self) -> int:
        """Number of unknowns."""
        return self._matrix.shape[0]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side of shape ``(n,)``."""
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Solve a whole RHS block in a single factorised call.

        Parameters
        ----------
        rhs_matrix:
            Either a single right-hand side of shape ``(n,)`` (falls through
            to :meth:`solve`) or ``k`` right-hand sides stacked as columns,
            shape ``(n, k)``.

        Returns
        -------
        The solutions in the same layout as the input.
        """
        rhs_matrix = np.asarray(rhs_matrix, dtype=float)
        if rhs_matrix.ndim == 1:
            return self.solve(rhs_matrix)
        if rhs_matrix.ndim != 2 or rhs_matrix.shape[0] != self.size:
            raise ValueError(
                f"rhs_matrix must have shape ({self.size},) or ({self.size}, k), "
                f"got {rhs_matrix.shape}"
            )
        if rhs_matrix.shape[1] == 0:
            return rhs_matrix.copy()
        return self._lu.solve(rhs_matrix)


def make_solver(matrix: sp.spmatrix) -> LinearSolver:
    """Factorise ``matrix``.

    The engines call this module-level function rather than the class, so a
    single patch point sees (and can time) every factorisation.
    """
    return LinearSolver(matrix)
