"""The full-order step's right-hand side: load scatter and inductor terms.

Two pins on :meth:`repro.sim.transient.FullOrderStrategy.run_block`:

* the step's load scatter equals the ``np.add.at`` reference
  :meth:`~repro.pdn.stamps.MNASystem.load_vector_block` bit for bit, on
  every seed design (each shares load nodes) and any block width;
* a hand-built system with a node-to-node inductor and two loads on one
  node integrates like a dense backward-Euler reference — no seed design
  has an inductor between two nodes, so only this test drives that term.
"""

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pdn import design_from_name
from repro.pdn.stamps import INDUCTOR_SHORT_RESISTANCE, REFERENCE_NODE, MNASystem
from repro.sim.transient import FullOrderStrategy, TransientOptions
from repro.sim.waveform import CurrentTrace

SEED_DESIGNS = ("small@8", "D1@0.5", "D1@0.2", "D2@0.2", "D3@0.2", "D4@0.2")


@lru_cache(maxsize=None)
def _strategy(name: str) -> FullOrderStrategy:
    return FullOrderStrategy(design_from_name(name).mna, 1e-11, TransientOptions())


class TestLoadScatter:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(SEED_DESIGNS),
        width=st.integers(1, 48),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_add_at_reference(self, name, width, seed):
        strategy = _strategy(name)
        mna = strategy.mna
        currents = np.random.default_rng(seed).standard_normal((mna.num_loads, width))
        rhs = np.zeros((mna.num_nodes, width), order="F")
        strategy.scatter_loads(rhs, currents)
        assert np.array_equal(rhs, mna.load_vector_block(currents.T))

    @pytest.mark.parametrize("name", SEED_DESIGNS)
    def test_seed_designs_share_load_nodes(self, name):
        # The pre-sum is exercised: loads share nodes on every seed design.
        load_nodes = _strategy(name).mna.load_nodes
        assert np.unique(load_nodes).size < load_nodes.size


#: Four nodes: 0 and 1 joined by a resistor, 1 and 2 by an inductor (the
#: node-to-node branch), 2 and 3 to the reference through resistor and
#: inductor.  Node 3 has no capacitor.
NODES = 4
RESISTORS = ((0, 1, 2.0), (2, REFERENCE_NODE, 0.5), (0, REFERENCE_NODE, 8.0))
INDUCTORS = ((1, 2, 0.7), (3, REFERENCE_NODE, 1.3), (2, 3, 0.9))
CAPS = np.array([1.0, 0.5, 2.0, 0.0])
#: Loads 0 and 2 share node 0.
LOAD_NODES = np.array([0, 1, 0])
DT = 0.05


def _incidence(branches) -> np.ndarray:
    """Dense signed incidence ``(N, branches)``: +1 at ``a``, -1 at ``b``."""
    matrix = np.zeros((NODES, len(branches)))
    for column, (a, b, _) in enumerate(branches):
        matrix[a, column] = 1.0
        if b != REFERENCE_NODE:
            matrix[b, column] = -1.0
    return matrix


def _system() -> MNASystem:
    resistive = _incidence(RESISTORS)
    conductance = resistive @ np.diag([1.0 / r for _, _, r in RESISTORS]) @ resistive.T
    empty = np.empty(0, dtype=int)
    return MNASystem(
        num_nodes=NODES,
        num_die_nodes=NODES,
        conductance=sp.csc_matrix(conductance),
        cap_diag=CAPS.copy(),
        ind_a=np.array([a for a, _, _ in INDUCTORS]),
        ind_b=np.array([b for _, b, _ in INDUCTORS]),
        ind_value=np.array([value for _, _, value in INDUCTORS]),
        load_nodes=LOAD_NODES,
        bump_die_nodes=empty,
        bump_pkg_nodes=empty,
    )


def _dense_backward_euler(currents: np.ndarray) -> dict:
    """Backward Euler from the DC start, one dense solve per stamp."""
    resistive = _incidence(RESISTORS)
    conductance = resistive @ np.diag([1.0 / r for _, _, r in RESISTORS]) @ resistive.T
    branches = _incidence(INDUCTORS)
    loads = np.zeros((NODES, len(LOAD_NODES)))
    loads[LOAD_NODES, np.arange(len(LOAD_NODES))] = 1.0
    inductance = np.array([value for _, _, value in INDUCTORS])

    static = conductance + branches @ branches.T / INDUCTOR_SHORT_RESISTANCE
    droop = np.linalg.solve(static, loads @ currents[0])
    branch_current = branches.T @ droop / INDUCTOR_SHORT_RESISTANCE
    companion = conductance + branches @ np.diag(DT / inductance) @ branches.T
    companion += np.diag(CAPS / DT)
    waveform = [droop]
    for stamp in currents[1:]:
        rhs = CAPS / DT * droop + loads @ stamp - branches @ branch_current
        droop = np.linalg.solve(companion, rhs)
        branch_current = branch_current + DT / inductance * (branches.T @ droop)
        waveform.append(droop)
    waveform = np.array(waveform)
    worst = waveform.max(axis=1)
    return {
        "max_droop_per_node": waveform.max(axis=0),
        "final_droop": waveform[-1],
        "worst_droop": worst.max(),
        "worst_time_index": int(worst.argmax()),
    }


class TestInternalInductor:
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_lockstep_block_matches_dense_reference(self, width):
        rng = np.random.default_rng(width)
        traces = [
            CurrentTrace(rng.uniform(0.0, 2.0, size=(60, len(LOAD_NODES))), DT)
            for _ in range(width)
        ]
        strategy = FullOrderStrategy(_system(), DT, TransientOptions())
        for trace, result in zip(traces, strategy.run_block(traces)):
            reference = _dense_backward_euler(trace.currents)
            for field in ("max_droop_per_node", "final_droop", "worst_droop"):
                np.testing.assert_allclose(
                    getattr(result, field), reference[field], rtol=1e-12, atol=1e-12
                )
            assert result.worst_time_index == reference["worst_time_index"]
