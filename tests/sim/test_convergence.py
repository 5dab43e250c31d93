"""Temporal convergence order of the transient integrator.

An analytic reference pins the accuracy claim the engine's docstrings make:
backward Euler is first order.  The test
circuit is the smallest MNA system with dynamics — one node with a
conductance ``g`` and a capacitance ``c`` to the reference, driven by the
(non-negative) raised-cosine load current ``i(t) = a (1 - cos w t)`` — whose
droop solves

    c v'(t) + g v(t) = a (1 - cos w t),   v(0) = 0

in closed form.  The drive draws no current at ``i(0) = 0``, so the DC
start is *exact* initial data (``v(0) = 0`` and ``v'(0) = 0``), and the
observed error slope is the scheme's global order, uncontaminated by
start-up error.

The grid refinement halves ``dt`` at fixed final time and measures the
error of the final droop against the analytic droop at ``T_FINAL``; the
observed order ``log2(err(dt) / err(dt/2))`` must straddle 1.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.pdn.stamps import MNASystem
from repro.sim.transient import TransientEngine
from repro.sim.waveform import CurrentTrace

#: RC circuit and drive: time constant c/g = 1, forcing period comparable to
#: it, final time long enough to cover the decaying homogeneous term.
G = 1.0
C = 1.0
AMPLITUDE = 1.0
OMEGA = 2.0 * np.pi * 0.5
T_FINAL = 2.0

#: Coarsest step: 100 steps over T_FINAL resolves the forcing period well
#: (the asymptotic regime, where the order is clean).
DT0 = 0.02
REFINEMENTS = 3


def rc_system() -> MNASystem:
    """One node, conductance and capacitance to reference, one load port."""
    empty = np.empty(0, dtype=int)
    return MNASystem(
        num_nodes=1,
        num_die_nodes=1,
        conductance=sp.csc_matrix(np.array([[G]])),
        cap_diag=np.array([C]),
        ind_a=empty,
        ind_b=empty,
        ind_value=np.empty(0),
        load_nodes=np.array([0]),
        bump_die_nodes=empty,
        bump_pkg_nodes=empty,
    )


def drive(t: np.ndarray) -> np.ndarray:
    """Raised-cosine load current: non-negative, zero value/slope at t=0."""
    return AMPLITUDE * (1.0 - np.cos(OMEGA * t))


def analytic_droop(t: np.ndarray) -> np.ndarray:
    """Exact droop of the driven RC node, started from rest."""
    wc = OMEGA * C
    denominator = G**2 + wc**2
    steady = AMPLITUDE / G
    forced = -AMPLITUDE * (G * np.cos(OMEGA * t) + wc * np.sin(OMEGA * t)) / denominator
    homogeneous = (AMPLITUDE * G / denominator - steady) * np.exp(-G * t / C)
    return steady + forced + homogeneous


def final_error(dt: float) -> float:
    """Error of the droop at ``T_FINAL`` vs the analytic droop, at step ``dt``."""
    mna = rc_system()
    num_steps = round(T_FINAL / dt) + 1
    t = np.arange(num_steps) * dt
    currents = drive(t)[:, np.newaxis]
    result = TransientEngine(mna, dt).run(CurrentTrace(currents, dt))
    return float(abs(result.final_droop[0] - analytic_droop(t[-1])))


def observed_orders() -> list[float]:
    """Error-slope estimates across successive dt halvings."""
    errors = [final_error(DT0 / 2**k) for k in range(REFINEMENTS)]
    assert all(later < earlier for earlier, later in zip(errors, errors[1:])), (
        f"error must decrease under refinement, got {errors}"
    )
    return [float(np.log2(a / b)) for a, b in zip(errors, errors[1:])]


class TestConvergenceOrder:
    def test_backward_euler_is_first_order(self):
        for order in observed_orders():
            assert 0.8 < order < 1.2, f"backward Euler slope {order:.3f} is not ~1"
