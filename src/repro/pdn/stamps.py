"""Modified nodal analysis (MNA) stamping for the PDN.

The PDN sign-off problem is a sparse linear system ``C x' + G x = B i(t)``
whose matrix is symmetric positive definite (Sec. 2 of the paper).  This
module flattens a :class:`~repro.pdn.grid.PowerGrid` plus a
:class:`~repro.pdn.package.PackageModel` into that algebraic form:

* ``G`` collects every resistive element (stripes, vias, bump resistance,
  decap ESR),
* ``C`` is the (diagonal) node-to-reference capacitance,
* inductors are kept as explicit branch lists so the integrator can apply a
  companion model with the time step of its choice,
* the load incidence simply maps load index to node index because loads are
  ideal current sources to the reference.

The reference node is the ideal supply behind the package; node variables are
voltage *droops* relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.pdn.grid import PowerGrid
from repro.pdn.package import PackageModel

#: Sentinel node index meaning "the reference (ideal supply) node".
REFERENCE_NODE = -1

#: Resistance (ohms) used when an inductor must be treated as a short
#: (static/DC analysis).
INDUCTOR_SHORT_RESISTANCE = 1e-6


def assemble_conductance(
    num_nodes: int,
    branch_a: np.ndarray,
    branch_b: np.ndarray,
    conductance: np.ndarray,
) -> sp.csc_matrix:
    """Assemble a nodal conductance matrix from two-terminal branches.

    ``branch_b`` entries equal to :data:`REFERENCE_NODE` denote branches to
    the reference; they contribute only to the diagonal.  The result is
    symmetric, and positive definite as long as every node has a resistive
    path to the reference.
    """
    branch_a = np.asarray(branch_a, dtype=int)
    branch_b = np.asarray(branch_b, dtype=int)
    conductance = np.asarray(conductance, dtype=float)
    if branch_a.shape != branch_b.shape or branch_a.shape != conductance.shape:
        raise ValueError("branch arrays must have identical shapes")
    if np.any(conductance < 0):
        raise ValueError("branch conductances must be non-negative")

    to_ref = branch_b == REFERENCE_NODE
    internal = ~to_ref

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []

    a_i = branch_a[internal]
    b_i = branch_b[internal]
    g_i = conductance[internal]
    if a_i.size:
        rows.extend([a_i, b_i, a_i, b_i])
        cols.extend([a_i, b_i, b_i, a_i])
        vals.extend([g_i, g_i, -g_i, -g_i])

    a_r = branch_a[to_ref]
    g_r = conductance[to_ref]
    if a_r.size:
        rows.append(a_r)
        cols.append(a_r)
        vals.append(g_r)

    if not rows:
        return sp.csc_matrix((num_nodes, num_nodes))
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    val = np.concatenate(vals)
    matrix = sp.coo_matrix((val, (row, col)), shape=(num_nodes, num_nodes))
    return matrix.tocsc()


@dataclass
class MNASystem:
    """The assembled PDN in matrix form.

    Attributes
    ----------
    num_nodes:
        Total unknown count (die nodes + package-internal nodes).
    num_die_nodes:
        Count of on-die nodes; these occupy indices ``0 .. num_die_nodes-1``
        and share their numbering with :class:`~repro.pdn.grid.PowerGrid`.
    conductance:
        Sparse symmetric conductance matrix ``G`` (resistive elements only).
    cap_diag:
        Per-node capacitance to the reference (diagonal of ``C``), farads.
    ind_a / ind_b / ind_value:
        Inductive branches; ``ind_b`` may be :data:`REFERENCE_NODE`.
    load_nodes:
        Node index of each current load (current source to reference).
    bump_die_nodes / bump_pkg_nodes:
        Top-metal die node and package-internal node of each bump branch.
    """

    num_nodes: int
    num_die_nodes: int
    conductance: sp.csc_matrix
    cap_diag: np.ndarray
    ind_a: np.ndarray
    ind_b: np.ndarray
    ind_value: np.ndarray
    load_nodes: np.ndarray
    bump_die_nodes: np.ndarray
    bump_pkg_nodes: np.ndarray

    @property
    def num_inductors(self) -> int:
        """Number of inductive branches."""
        return int(self.ind_value.shape[0])

    @property
    def num_loads(self) -> int:
        """Number of current-load ports."""
        return int(self.load_nodes.shape[0])

    def conductance_with_inductor_branches(self, branch_conductance: np.ndarray) -> sp.csc_matrix:
        """``G`` plus each inductive branch replaced by a given conductance.

        The transient engine passes the backward-Euler companion conductance
        ``dt / L``; the static solver passes a near-short.
        """
        branch_conductance = np.asarray(branch_conductance, dtype=float)
        if branch_conductance.shape != self.ind_value.shape:
            raise ValueError(
                "branch_conductance must have one entry per inductor, "
                f"expected shape {self.ind_value.shape}, got {branch_conductance.shape}"
            )
        extra = assemble_conductance(self.num_nodes, self.ind_a, self.ind_b, branch_conductance)
        return (self.conductance + extra).tocsc()

    def static_conductance(self) -> sp.csc_matrix:
        """``G`` with inductors shorted — the DC/static-analysis matrix."""
        shorts = np.full(self.ind_value.shape, 1.0 / INDUCTOR_SHORT_RESISTANCE)
        return self.conductance_with_inductor_branches(shorts)

    def load_incidence(self) -> sp.csc_matrix:
        """The load-port incidence ``B`` as a sparse matrix.

        Column ``k`` is the unit current-injection pattern of load ``k``:
        ``B @ i`` equals :meth:`load_vector` applied to the per-load currents
        ``i``.  Shape ``(num_nodes, num_loads)``.  This is the input map the
        reduced-order projection (:mod:`repro.sim.rom`) compresses.
        """
        values = np.ones(self.num_loads)
        columns = np.arange(self.num_loads)
        return sp.csc_matrix(
            (values, (self.load_nodes, columns)), shape=(self.num_nodes, self.num_loads)
        )

    def inductor_incidence(self) -> sp.csc_matrix:
        """Signed inductor-branch incidence ``E``.

        Column ``k`` carries ``+1`` at ``ind_a[k]`` and ``-1`` at ``ind_b[k]``
        (omitted when the branch returns to the reference), so branch
        voltages are ``E.T @ x`` and branch-current scatter into the nodal
        RHS is ``-E @ i_L``.  Shape ``(num_nodes, num_inductors)``.  Used by
        the reduced-order projection to keep inductor currents exact.
        """
        to_ref = self.ind_b == REFERENCE_NODE
        internal = ~to_ref
        rows = np.concatenate([self.ind_a, self.ind_b[internal]])
        cols = np.concatenate(
            [np.arange(self.num_inductors), np.arange(self.num_inductors)[internal]]
        )
        values = np.concatenate([np.ones(self.num_inductors), -np.ones(int(internal.sum()))])
        return sp.csc_matrix(
            (values, (rows, cols)), shape=(self.num_nodes, self.num_inductors)
        )

    def load_vector(self, load_currents: np.ndarray) -> np.ndarray:
        """Scatter per-load currents into a full right-hand-side vector.

        Parameters
        ----------
        load_currents:
            Array of shape ``(num_loads,)`` with instantaneous currents in A.
        """
        load_currents = np.asarray(load_currents, dtype=float)
        if load_currents.shape != (self.num_loads,):
            raise ValueError(
                f"load_currents must have shape ({self.num_loads},), got {load_currents.shape}"
            )
        rhs = np.zeros(self.num_nodes)
        np.add.at(rhs, self.load_nodes, load_currents)
        return rhs

    def load_vector_block(self, load_currents: np.ndarray) -> np.ndarray:
        """Scatter a block of per-load currents into stacked RHS columns.

        The block form of :meth:`load_vector`: one scatter call covers every
        column, and column ``k`` of the result is bit-identical to
        ``load_vector(load_currents[k])`` (loads sharing a node accumulate in
        the same order).  This is the right-hand-side builder of the lockstep
        transient path (:meth:`repro.sim.transient.TransientEngine.run_many`).

        Parameters
        ----------
        load_currents:
            Array of shape ``(k, num_loads)``: one row of instantaneous load
            currents (A) per right-hand side.

        Returns
        -------
        RHS block of shape ``(num_nodes, k)``.
        """
        load_currents = np.asarray(load_currents, dtype=float)
        if load_currents.ndim != 2 or load_currents.shape[1] != self.num_loads:
            raise ValueError(
                f"load_currents must have shape (k, {self.num_loads}), "
                f"got {load_currents.shape}"
            )
        rhs = np.zeros((self.num_nodes, load_currents.shape[0]))
        np.add.at(rhs, self.load_nodes, load_currents.T)
        return rhs


def build_mna(grid: PowerGrid, package: Optional[PackageModel] = None) -> MNASystem:
    """Stamp a power grid (plus optional package) into an :class:`MNASystem`.

    Without a package model every bump node is tied to the reference through
    a small resistance (an ideal-supply approximation, useful for quick static
    studies).  With a package model each bump gets a series R-L branch to the
    reference and a share of the bulk decap on the package-internal node.
    """
    num_die = grid.num_nodes
    res_a = [grid.res_a]
    res_b = [grid.res_b]
    res_v = [grid.res_value]

    cap_nodes = [grid.cap_node]
    cap_vals = [grid.cap_value]

    ind_a_list: list[int] = []
    ind_b_list: list[int] = []
    ind_v_list: list[float] = []

    next_node = num_die
    bump_pkg_nodes = np.empty(grid.num_bumps, dtype=int)

    if package is None:
        # Ideal supply: bump nodes tied to reference through the bump
        # resistance of a default package.
        bump_r = PackageModel().bump_resistance
        res_a.append(grid.bump_nodes)
        res_b.append(np.full(grid.num_bumps, REFERENCE_NODE))
        res_v.append(np.full(grid.num_bumps, bump_r))
        bump_pkg_nodes[:] = REFERENCE_NODE
    else:
        pkg_nodes = np.arange(next_node, next_node + grid.num_bumps)
        next_node += grid.num_bumps
        bump_pkg_nodes[:] = pkg_nodes

        # Die bump node --R_bump-- package node.
        res_a.append(grid.bump_nodes)
        res_b.append(pkg_nodes)
        res_v.append(np.full(grid.num_bumps, package.bump_resistance))

        # Package node --L_bump-- reference.
        ind_a_list.extend(pkg_nodes.tolist())
        ind_b_list.extend([REFERENCE_NODE] * grid.num_bumps)
        ind_v_list.extend([package.bump_inductance] * grid.num_bumps)

        if package.bulk_decap > 0:
            share = package.bulk_decap / grid.num_bumps
            if package.bulk_decap_esr > 0:
                esr_nodes = np.arange(next_node, next_node + grid.num_bumps)
                next_node += grid.num_bumps
                res_a.append(pkg_nodes)
                res_b.append(esr_nodes)
                res_v.append(np.full(grid.num_bumps, package.bulk_decap_esr))
                cap_nodes.append(esr_nodes)
                cap_vals.append(np.full(grid.num_bumps, share))
            else:
                cap_nodes.append(pkg_nodes)
                cap_vals.append(np.full(grid.num_bumps, share))

    num_nodes = next_node

    all_res_a = np.concatenate(res_a).astype(int)
    all_res_b = np.concatenate(res_b).astype(int)
    all_res_v = np.concatenate(res_v).astype(float)
    if np.any(all_res_v <= 0):
        raise ValueError("all resistances must be positive")
    conductance = assemble_conductance(num_nodes, all_res_a, all_res_b, 1.0 / all_res_v)

    cap_diag = np.zeros(num_nodes)
    np.add.at(cap_diag, np.concatenate(cap_nodes).astype(int), np.concatenate(cap_vals))

    return MNASystem(
        num_nodes=num_nodes,
        num_die_nodes=num_die,
        conductance=conductance,
        cap_diag=cap_diag,
        ind_a=np.asarray(ind_a_list, dtype=int),
        ind_b=np.asarray(ind_b_list, dtype=int),
        ind_value=np.asarray(ind_v_list, dtype=float),
        load_nodes=grid.load_nodes.copy(),
        bump_die_nodes=grid.bump_nodes.copy(),
        bump_pkg_nodes=bump_pkg_nodes,
    )
