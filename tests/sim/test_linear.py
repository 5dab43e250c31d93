"""Tests for repro.sim.linear: properties of the one sparse solver.

The solver's invariants are checked on random small SPD grids (derandomized
hypothesis): a random sparse graph of positive edge conductances, assembled
as a weighted Laplacian, plus a positive diagonal to ground it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.linear import LinearSolver, make_solver

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def _spd_grid(seed: int, nodes: int) -> sp.csc_matrix:
    """A grounded weighted Laplacian: random positive edges + positive diagonal."""
    rng = np.random.default_rng(seed)
    # A path keeps the graph connected; random chords add mesh-like fill.
    rows = list(range(nodes - 1))
    cols = list(range(1, nodes))
    chords = rng.integers(0, nodes, size=(2 * nodes, 2))
    chords = chords[chords[:, 0] != chords[:, 1]]
    rows += chords[:, 0].tolist()
    cols += chords[:, 1].tolist()
    conductance = rng.uniform(0.1, 10.0, size=len(rows))
    edges = sp.coo_matrix((conductance, (rows, cols)), shape=(nodes, nodes))
    edges = edges + edges.T
    degree = np.asarray(edges.sum(axis=1)).ravel()
    ground = rng.uniform(1e-3, 1.0, size=nodes)
    return sp.csc_matrix(sp.diags(degree + ground) - edges)


grids = st.builds(_spd_grid, seed=st.integers(0, 2**32 - 1), nodes=st.integers(2, 60))


@pytest.fixture(scope="module")
def spd_system():
    matrix = _spd_grid(0, 144)
    rhs = np.random.default_rng(0).random(matrix.shape[0])
    return matrix, rhs, spla.spsolve(matrix, rhs)


class TestLinearSolver:
    @PROPERTY_SETTINGS
    @given(matrix=grids, rhs_seed=st.integers(0, 2**32 - 1))
    def test_matches_reference(self, matrix, rhs_seed):
        rhs = np.random.default_rng(rhs_seed).standard_normal(matrix.shape[0])
        np.testing.assert_allclose(
            LinearSolver(matrix).solve(rhs), spla.spsolve(matrix, rhs), rtol=1e-10
        )

    def test_solve_many(self, spd_system):
        matrix, rhs, reference = spd_system
        solutions = LinearSolver(matrix).solve_many(np.column_stack([rhs, 2 * rhs]))
        np.testing.assert_allclose(solutions[:, 0], reference, rtol=1e-10)
        np.testing.assert_allclose(solutions[:, 1], 2 * reference, rtol=1e-10)

    def test_rejects_non_square(self):
        for shape in [(2, 3), (5, 4), (1, 2)]:
            with pytest.raises(ValueError):
                LinearSolver(sp.csc_matrix(np.ones(shape)))


class TestBlockSolve:
    """A RHS block goes through one back-substitution call.

    ``solve_many`` once fell back to a per-column Python loop; these tests
    pin the block path's contract — columns agree with per-column ``solve``
    to a few ULPs, and a given block solves deterministically.
    """

    @PROPERTY_SETTINGS
    @given(matrix=grids, width=st.integers(1, 9), rhs_seed=st.integers(0, 2**32 - 1))
    def test_block_matches_per_column(self, matrix, width, rhs_seed):
        solver = LinearSolver(matrix)
        block = np.random.default_rng(rhs_seed).standard_normal((matrix.shape[0], width))
        stacked = solver.solve_many(block)
        for j in range(width):
            column = solver.solve(block[:, j])
            ulps = 8 * np.finfo(float).eps * np.abs(column).max()
            np.testing.assert_allclose(stacked[:, j], column, rtol=1e-13, atol=ulps)

    def test_block_is_deterministic(self, spd_system):
        solver = LinearSolver(spd_system[0])
        block = np.random.default_rng(8).random((solver.size, 5))
        np.testing.assert_array_equal(solver.solve_many(block), solver.solve_many(block))

    def test_single_call_back_substitution(self, spd_system):
        """The whole block goes through SuperLU once — never a column loop."""
        matrix, _, _ = spd_system
        solver = LinearSolver(matrix)
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

    def test_empty_block(self, spd_system):
        solver = LinearSolver(spd_system[0])
        result = solver.solve_many(np.empty((solver.size, 0)))
        assert result.shape == (solver.size, 0)

    def test_rejects_wrong_height(self, spd_system):
        solver = LinearSolver(spd_system[0])
        with pytest.raises(ValueError):
            solver.solve_many(np.ones((solver.size + 1, 2)))


class TestMakeSolver:
    def test_factorises_matrix(self, spd_system):
        matrix, rhs, reference = spd_system
        solver = make_solver(matrix)
        assert isinstance(solver, LinearSolver)
        assert solver.size == matrix.shape[0]
        np.testing.assert_allclose(solver.solve(rhs), reference, rtol=1e-10)
