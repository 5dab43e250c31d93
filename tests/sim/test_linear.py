"""Tests for repro.sim.linear (sparse solver back-ends)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sim.linear import (
    CholeskySolver,
    ConjugateGradientSolver,
    DirectSolver,
    make_solver,
    solver_names,
)


def _laplacian_2d(side: int) -> sp.csc_matrix:
    """A grounded 2-D Laplacian — the canonical power-grid-like SPD matrix."""
    main = 4.0 * np.ones(side * side)
    matrix = sp.diags(
        [main, -np.ones(side * side - 1), -np.ones(side * side - 1),
         -np.ones(side * side - side), -np.ones(side * side - side)],
        [0, 1, -1, side, -side],
        format="lil",
    )
    # Remove the wrap-around couplings of the 1-offset diagonals.
    for row in range(side, side * side, side):
        matrix[row, row - 1] = 0.0
        matrix[row - 1, row] = 0.0
    return sp.csc_matrix(matrix)


@pytest.fixture(scope="module")
def spd_system():
    matrix = _laplacian_2d(12)
    rng = np.random.default_rng(0)
    rhs = rng.random(matrix.shape[0])
    reference = sp.linalg.spsolve(matrix, rhs)
    return matrix, rhs, reference


class TestDirectSolver:
    def test_matches_reference(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = DirectSolver(matrix)
        np.testing.assert_allclose(solver.solve(rhs), reference, rtol=1e-10)

    def test_solve_many(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = DirectSolver(matrix)
        stacked = np.column_stack([rhs, 2 * rhs])
        solutions = solver.solve_many(stacked)
        np.testing.assert_allclose(solutions[:, 0], reference, rtol=1e-10)
        np.testing.assert_allclose(solutions[:, 1], 2 * reference, rtol=1e-10)

    def test_residual_norm_small(self, spd_system):
        matrix, rhs, _ = spd_system
        solver = DirectSolver(matrix)
        assert solver.residual_norm(solver.solve(rhs), rhs) < 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            DirectSolver(sp.csc_matrix(np.ones((2, 3))))

    def test_rejects_nan_rhs(self, spd_system):
        matrix, rhs, _ = spd_system
        solver = DirectSolver(matrix)
        bad = rhs.copy()
        bad[0] = np.nan
        with pytest.raises(ValueError):
            solver.solve(bad)


class TestCholeskySolver:
    def test_matches_reference(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = CholeskySolver(matrix)
        np.testing.assert_allclose(solver.solve(rhs), reference, rtol=1e-8)


class TestConjugateGradientSolver:
    def test_matches_reference_with_jacobi(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = ConjugateGradientSolver(matrix, tolerance=1e-12)
        np.testing.assert_allclose(solver.solve(rhs), reference, rtol=1e-6, atol=1e-10)
        assert solver.stats.converged
        assert solver.stats.iterations > 0

    def test_no_preconditioner(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = ConjugateGradientSolver(matrix, preconditioner="none", tolerance=1e-12)
        np.testing.assert_allclose(solver.solve(rhs), reference, rtol=1e-6, atol=1e-10)

    def test_callable_preconditioner(self, spd_system):
        matrix, rhs, reference = spd_system
        inverse_diag = 1.0 / matrix.diagonal()
        solver = ConjugateGradientSolver(
            matrix, preconditioner=lambda v: inverse_diag * v, tolerance=1e-12
        )
        np.testing.assert_allclose(solver.solve(rhs), reference, rtol=1e-6, atol=1e-10)

    def test_unknown_preconditioner(self, spd_system):
        matrix, _, _ = spd_system
        with pytest.raises(ValueError):
            ConjugateGradientSolver(matrix, preconditioner="ilu0")

    def test_zero_rhs(self, spd_system):
        matrix, _, _ = spd_system
        solver = ConjugateGradientSolver(matrix)
        np.testing.assert_allclose(solver.solve(np.zeros(matrix.shape[0])), 0.0)


class TestBlockSolve:
    """Regression: direct factorised solvers solve RHS blocks in one call.

    ``solve_many`` used to fall back to a per-column Python loop; these
    tests pin the block path's contract — one back-substitution call whose
    columns agree with per-column ``solve`` to solver rounding, and
    deterministic results for a given block.
    """

    @pytest.mark.parametrize("solver_class", [DirectSolver, CholeskySolver])
    def test_block_matches_per_column(self, spd_system, solver_class):
        matrix, rhs, _ = spd_system
        solver = solver_class(matrix)
        rng = np.random.default_rng(7)
        block = rng.random((matrix.shape[0], 9))
        block[:, 0] = rhs
        stacked = solver.solve_many(block)
        for j in range(block.shape[1]):
            np.testing.assert_allclose(
                stacked[:, j], solver.solve(block[:, j]), rtol=1e-13, atol=1e-16
            )

    @pytest.mark.parametrize("solver_class", [DirectSolver, CholeskySolver])
    def test_block_is_deterministic(self, spd_system, solver_class):
        matrix, _, _ = spd_system
        solver = solver_class(matrix)
        block = np.random.default_rng(8).random((matrix.shape[0], 5))
        first = solver.solve_many(block)
        np.testing.assert_array_equal(first, solver.solve_many(block))

    def test_single_call_back_substitution(self, spd_system):
        """The whole block goes through SuperLU once — never a column loop."""
        matrix, _, _ = spd_system
        solver = DirectSolver(matrix)
        calls = []
        real_lu = solver._lu

        class CountingLU:
            def solve(self, rhs_block):
                calls.append(np.asarray(rhs_block).shape)
                return real_lu.solve(rhs_block)

        solver._lu = CountingLU()
        block = np.random.default_rng(9).random((matrix.shape[0], 6))
        solver.solve_many(block)
        assert calls == [(matrix.shape[0], 6)]

    def test_iterative_fallback_loops_per_column(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = ConjugateGradientSolver(matrix, tolerance=1e-12)
        block = np.column_stack([rhs, 3.0 * rhs])
        stacked = solver.solve_many(block)
        np.testing.assert_allclose(stacked[:, 0], reference, rtol=1e-6, atol=1e-10)
        np.testing.assert_allclose(stacked[:, 1], 3.0 * reference, rtol=1e-6, atol=1e-10)

    def test_empty_block(self, spd_system):
        matrix, _, _ = spd_system
        solver = DirectSolver(matrix)
        result = solver.solve_many(np.empty((matrix.shape[0], 0)))
        assert result.shape == (matrix.shape[0], 0)

    def test_rejects_wrong_height(self, spd_system):
        matrix, _, _ = spd_system
        solver = DirectSolver(matrix)
        with pytest.raises(ValueError):
            solver.solve_many(np.ones((matrix.shape[0] + 1, 2)))

    def test_rejects_nan_block(self, spd_system):
        matrix, _, _ = spd_system
        solver = DirectSolver(matrix)
        block = np.ones((matrix.shape[0], 2))
        block[3, 1] = np.nan
        with pytest.raises(ValueError):
            solver.solve_many(block)


class TestMakeSolver:
    @pytest.mark.parametrize("method", ["direct", "cholesky", "cg"])
    def test_all_methods_solve(self, spd_system, method):
        matrix, rhs, reference = spd_system
        solver = make_solver(matrix, method)
        solution = solver.solve(rhs)
        np.testing.assert_allclose(solution, reference, rtol=1e-5, atol=1e-8)

    def test_unknown_method(self, spd_system):
        with pytest.raises(ValueError):
            make_solver(spd_system[0], "gaussian-elimination")

    def test_solver_names_contains_all(self):
        names = solver_names()
        assert set(names) == {"direct", "cholesky", "cg"}
