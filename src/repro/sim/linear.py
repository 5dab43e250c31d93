"""Sparse linear solvers for the PDN system matrix.

Dynamic PDN analysis is "a series of static analyses, where the system matrix
is the same but with different right-hand-side items" (Sec. 2 of the paper),
so the dominant cost is repeated solves against one SPD matrix.  This module
provides the solver back-ends used by the static and transient engines:

* :class:`DirectSolver` — sparse LU factorisation (SuperLU via scipy),
  factorise once, solve many times; the default for sign-off accuracy.
* :class:`CholeskySolver` — LL^T factorisation through a shifted LDL^T; kept
  as an alternative direct method that exploits symmetry.
* :class:`ConjugateGradientSolver` — Jacobi-preconditioned CG (or any
  caller-supplied preconditioner), the classic iterative choice for very
  large grids.

All solvers share the :class:`LinearSolver` interface so the simulation
engines can switch between them freely.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils import check_finite, get_logger

_LOG = get_logger("sim.linear")


class LinearSolver(abc.ABC):
    """A reusable solver for ``A x = b`` with a fixed sparse SPD matrix."""

    def __init__(self, matrix: sp.spmatrix):
        matrix = matrix.tocsc()
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        self._matrix = matrix

    @property
    def matrix(self) -> sp.csc_matrix:
        """The system matrix this solver was built for."""
        return self._matrix

    @property
    def size(self) -> int:
        """Number of unknowns."""
        return self._matrix.shape[0]

    @abc.abstractmethod
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for a single right-hand side."""

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Solve for several right-hand sides stacked as columns.

        Parameters
        ----------
        rhs_matrix:
            Either a single right-hand side of shape ``(n,)`` or a block of
            ``k`` right-hand sides stacked as columns, shape ``(n, k)``.

        Returns
        -------
        The solutions in the same layout as the input (``(n,)`` or
        ``(n, k)``).  Column ``j`` agrees with ``solve(rhs_matrix[:, j])``
        to solver rounding (see :class:`_FactorizedDirectSolver`).

        Iterative solvers fall back to a per-column loop (each column keeps
        its own convergence history); factorised direct solvers dispatch the
        whole block to one back-substitution call.
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
        return np.column_stack([self.solve(rhs_matrix[:, j]) for j in range(rhs_matrix.shape[1])])

    def residual_norm(self, x: np.ndarray, rhs: np.ndarray) -> float:
        """Relative residual ``||A x - b|| / ||b||`` (0 when ``b`` is 0)."""
        rhs_norm = np.linalg.norm(rhs)
        if rhs_norm == 0.0:
            return float(np.linalg.norm(self._matrix @ x))
        return float(np.linalg.norm(self._matrix @ x - rhs) / rhs_norm)


class _FactorizedDirectSolver(LinearSolver):
    """Shared solve paths for solvers backed by a SuperLU factorisation.

    Subclasses set ``self._lu`` in their constructor.  Both the single- and
    multi-RHS paths go through the factorisation object directly, so a block
    of right-hand sides is always solved in **one** back-substitution call —
    never a per-column Python loop.  SuperLU back-substitutes the columns of
    a block independently of each other; ``solve_many(B)[:, j]`` equals
    ``solve(B[:, j])`` up to a few ULPs (the multi-RHS kernel may round
    differently than the single-RHS one — data-dependent, observed at the
    1e-17 level) and is *deterministic* for a given block, which is what the
    dataset factory's reproducibility contract builds on (see
    ``tests/sim/test_linear.py`` and ``docs/data-pipeline.md``).
    """

    _lu: spla.SuperLU

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` for one right-hand side of shape ``(n,)``."""
        rhs = np.asarray(rhs, dtype=float)
        check_finite(rhs, "rhs")
        return self._lu.solve(rhs)

    def solve_many(self, rhs_matrix: np.ndarray) -> np.ndarray:
        """Solve a whole RHS block ``(n, k)`` in a single factorised call.

        Falls through to :meth:`solve` for a 1-D input.  See
        :meth:`LinearSolver.solve_many` for the layout contract.
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
        check_finite(rhs_matrix, "rhs_matrix")
        return self._lu.solve(rhs_matrix)


class DirectSolver(_FactorizedDirectSolver):
    """Sparse LU (SuperLU) factorisation; factor once, solve many times."""

    def __init__(self, matrix: sp.spmatrix):
        super().__init__(matrix)
        self._lu = spla.splu(self._matrix)


class CholeskySolver(_FactorizedDirectSolver):
    """Symmetric factorisation via SuperLU on the symmetrised system.

    scipy has no sparse Cholesky; we keep the symmetric permutation options of
    SuperLU (``diag_pivot_thresh=0`` with natural symmetric mode) which, for
    an SPD matrix, behaves like an LDL^T factorisation without pivoting.
    """

    def __init__(self, matrix: sp.spmatrix):
        super().__init__(matrix)
        self._lu = spla.splu(
            self._matrix,
            diag_pivot_thresh=0.0,
            permc_spec="MMD_AT_PLUS_A",
            options={"SymmetricMode": True},
        )


@dataclass
class IterativeStats:
    """Convergence bookkeeping for the most recent iterative solve."""

    iterations: int = 0
    converged: bool = True
    residual: float = 0.0


class ConjugateGradientSolver(LinearSolver):
    """Preconditioned conjugate gradients.

    Parameters
    ----------
    matrix:
        SPD system matrix.
    tolerance:
        Relative residual tolerance.
    max_iterations:
        Iteration cap; ``None`` lets scipy pick ``10 * n``.
    preconditioner:
        ``"jacobi"`` (default), ``"none"``, or a callable applying ``M^{-1}``.
    """

    def __init__(
        self,
        matrix: sp.spmatrix,
        tolerance: float = 1e-10,
        max_iterations: Optional[int] = None,
        preconditioner: str | Callable[[np.ndarray], np.ndarray] = "jacobi",
    ):
        super().__init__(matrix)
        self.tolerance = tolerance
        self.max_iterations = max_iterations
        self.stats = IterativeStats()
        self._preconditioner = self._build_preconditioner(preconditioner)

    def _build_preconditioner(
        self, preconditioner: str | Callable[[np.ndarray], np.ndarray]
    ) -> Optional[spla.LinearOperator]:
        if callable(preconditioner):
            return spla.LinearOperator(self._matrix.shape, matvec=preconditioner)
        if preconditioner == "none":
            return None
        if preconditioner == "jacobi":
            diagonal = self._matrix.diagonal()
            if np.any(diagonal <= 0):
                raise ValueError("Jacobi preconditioner requires a positive diagonal")
            inverse_diagonal = 1.0 / diagonal
            return spla.LinearOperator(
                self._matrix.shape, matvec=lambda vector: inverse_diagonal * vector
            )
        raise ValueError(f"unknown preconditioner {preconditioner!r}")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        check_finite(rhs, "rhs")
        iteration_counter = {"count": 0}

        def callback(_):
            iteration_counter["count"] += 1

        solution, info = spla.cg(
            self._matrix,
            rhs,
            rtol=self.tolerance,
            maxiter=self.max_iterations,
            M=self._preconditioner,
            callback=callback,
        )
        self.stats = IterativeStats(
            iterations=iteration_counter["count"],
            converged=(info == 0),
            residual=self.residual_norm(solution, rhs),
        )
        if info != 0:
            _LOG.warning("CG did not converge (info=%s, residual=%.3e)", info, self.stats.residual)
        return solution


_SOLVER_REGISTRY: dict[str, type[LinearSolver]] = {
    "direct": DirectSolver,
    "cholesky": CholeskySolver,
    "cg": ConjugateGradientSolver,
}


def make_solver(matrix: sp.spmatrix, method: str = "direct", **kwargs) -> LinearSolver:
    """Create a solver by name (``"direct"``, ``"cholesky"``, ``"cg"``)."""
    try:
        solver_class = _SOLVER_REGISTRY[method]
    except KeyError as error:
        raise ValueError(
            f"unknown solver method {method!r}; expected one of {solver_names()}"
        ) from error
    return solver_class(matrix, **kwargs)


def solver_names() -> tuple[str, ...]:
    """Names accepted by :func:`make_solver`."""
    return tuple(sorted(_SOLVER_REGISTRY))
