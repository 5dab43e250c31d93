"""Tests for repro.sim.transient."""

import numpy as np
import pytest

from repro.sim.static_ir import StaticIRAnalysis
from repro.sim.transient import TransientEngine, TransientOptions
from repro.sim.waveform import CurrentTrace


def _constant_trace(design, level: float, steps: int, dt: float) -> CurrentTrace:
    currents = np.tile(level * design.loads.nominal_currents, (steps, 1))
    return CurrentTrace(currents, dt)


def _step_trace(design, steps: int, dt: float, step_at: int) -> CurrentTrace:
    currents = np.zeros((steps, design.num_loads))
    currents[step_at:] = design.loads.nominal_currents
    return CurrentTrace(currents, dt)


class TestTransientOptions:
    # Backward Euler from the DC operating point is the only integrator, so
    # the options have no knob that could name another one.
    def test_rejects_unknown_method(self):
        with pytest.raises(TypeError):
            TransientOptions(method="trapezoidal")

    def test_rejects_unknown_initial_state(self):
        with pytest.raises(TypeError):
            TransientOptions(initial_state="zero")


class TestTransientEngine:
    def test_constant_current_stays_at_dc(self, tiny_design):
        dt = 1e-11
        engine = TransientEngine(tiny_design.mna, dt)
        trace = _constant_trace(tiny_design, 1.0, 40, dt)
        result = engine.run(trace)
        static = StaticIRAnalysis(tiny_design.mna).solve(tiny_design.loads.nominal_currents)
        # With DC initial conditions and constant excitation nothing moves.
        np.testing.assert_allclose(result.final_droop, static, rtol=1e-3, atol=1e-5)
        assert result.worst_droop == pytest.approx(static.max(), rel=1e-3)

    def test_step_overshoots_dc_level(self, tiny_design):
        dt = 1e-11
        engine = TransientEngine(tiny_design.mna, dt)
        result = engine.run(_step_trace(tiny_design, 300, dt, step_at=30))
        static = StaticIRAnalysis(tiny_design.mna).solve(tiny_design.loads.nominal_currents)
        # Dynamic first droop exceeds the static level (package resonance).
        assert result.worst_droop > 1.2 * static.max()

    def test_max_droop_is_the_max_of_prefix_final_droops(self, tiny_design):
        # A prefix of a trace ends on the droop the full run passes through
        # at that stamp, so the per-node maximum, the worst droop and its
        # stamp are the maxima over every prefix's final droop.
        dt = 1e-11
        engine = TransientEngine(tiny_design.mna, dt)
        trace = _step_trace(tiny_design, 60, dt, step_at=20)
        result = engine.run(trace)
        prefixes = engine.run_many(
            [CurrentTrace(trace.currents[:length], dt) for length in range(1, 61)], batch_size=1
        )
        finals = np.stack([prefix.final_droop for prefix in prefixes])
        np.testing.assert_allclose(result.max_droop_per_node, finals.max(axis=0), rtol=1e-12)
        assert result.worst_droop == pytest.approx(finals.max(), rel=1e-12)
        assert result.worst_time_index == int(finals.max(axis=1).argmax())

    def test_backward_euler_converges_with_dt(self, tiny_design):
        # Halving dt should change the worst droop only moderately (first-order
        # convergence); a blow-up would indicate an unstable companion model.
        coarse_dt, fine_dt = 2e-11, 1e-11
        steps = 150
        coarse = TransientEngine(tiny_design.mna, coarse_dt).run(
            _step_trace(tiny_design, steps, coarse_dt, 20)
        )
        fine = TransientEngine(tiny_design.mna, fine_dt).run(
            _step_trace(tiny_design, 2 * steps, fine_dt, 40)
        )
        assert fine.worst_droop == pytest.approx(coarse.worst_droop, rel=0.25)

    def test_dt_mismatch_rejected(self, tiny_design):
        engine = TransientEngine(tiny_design.mna, 1e-11)
        with pytest.raises(ValueError):
            engine.run(_constant_trace(tiny_design, 1.0, 10, 2e-11))

    def test_load_count_mismatch_rejected(self, tiny_design):
        engine = TransientEngine(tiny_design.mna, 1e-11)
        with pytest.raises(ValueError):
            engine.run(CurrentTrace(np.ones((10, 3)), 1e-11))

    def test_trace_whose_first_stamp_draws_no_current_starts_at_rest(self, tiny_design):
        dt = 1e-11
        engine = TransientEngine(tiny_design.mna, dt)
        trace = _step_trace(tiny_design, 30, dt, step_at=10)
        # Cut before the step: the run only ever sees its quiet first stamps.
        result = engine.run(CurrentTrace(trace.currents[:10], dt))
        np.testing.assert_allclose(result.final_droop, 0.0, atol=1e-15)
        np.testing.assert_allclose(result.max_droop_per_node, 0.0, atol=1e-15)

    def test_worst_time_index_in_range(self, tiny_design):
        dt = 1e-11
        engine = TransientEngine(tiny_design.mna, dt)
        result = engine.run(_step_trace(tiny_design, 100, dt, step_at=50))
        assert 0 <= result.worst_time_index < 100
        # The worst droop happens after the current step is applied.
        assert result.worst_time_index >= 50


class TestRunMany:
    """Lockstep block integration (the dataset factory's hot path)."""

    def test_matches_per_trace_run(self, tiny_design, tiny_traces):
        engine = TransientEngine(tiny_design.mna, tiny_traces[0].dt)
        traces = tiny_traces[:5]
        batched = engine.run_many(traces)
        for trace, block in zip(traces, batched):
            single = engine.run(trace)
            np.testing.assert_allclose(
                block.max_droop_per_node, single.max_droop_per_node,
                rtol=1e-12, atol=1e-16,
            )
            np.testing.assert_allclose(
                block.final_droop, single.final_droop, rtol=1e-12, atol=1e-16
            )
            assert block.worst_droop == pytest.approx(single.worst_droop, rel=1e-12)
            assert block.num_steps == single.num_steps

    def test_deterministic_for_fixed_batch(self, tiny_design, tiny_traces):
        engine = TransientEngine(tiny_design.mna, tiny_traces[0].dt)
        first = engine.run_many(tiny_traces[:4])
        second = engine.run_many(tiny_traces[:4])
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.max_droop_per_node, b.max_droop_per_node)
            assert a.worst_droop == b.worst_droop
            assert a.worst_time_index == b.worst_time_index

    def test_batch_size_chunks_preserve_order(self, tiny_design, tiny_traces):
        engine = TransientEngine(tiny_design.mna, tiny_traces[0].dt)
        whole = engine.run_many(tiny_traces[:5])
        chunked = engine.run_many(tiny_traces[:5], batch_size=2)
        for a, b in zip(whole, chunked):
            np.testing.assert_allclose(
                a.max_droop_per_node, b.max_droop_per_node, rtol=1e-12, atol=1e-16
            )

    def test_mixed_lengths_grouped(self, tiny_design, tiny_traces):
        dt = tiny_traces[0].dt
        engine = TransientEngine(tiny_design.mna, dt)
        short = CurrentTrace(tiny_traces[0].currents[:30], dt)
        mixed = [tiny_traces[1], short, tiny_traces[2]]
        results = engine.run_many(mixed)
        assert [r.num_steps for r in results] == [t.num_steps for t in mixed]
        single = engine.run(short)
        np.testing.assert_allclose(
            results[1].max_droop_per_node, single.max_droop_per_node,
            rtol=1e-12, atol=1e-16,
        )

    def test_empty_batch(self, tiny_design):
        engine = TransientEngine(tiny_design.mna, 1e-11)
        assert engine.run_many([]) == []

    def test_rejects_bad_batch_size(self, tiny_design, tiny_traces):
        engine = TransientEngine(tiny_design.mna, tiny_traces[0].dt)
        with pytest.raises(ValueError):
            engine.run_many(tiny_traces[:2], batch_size=0)

    def test_validates_every_trace_up_front(self, tiny_design, tiny_traces):
        engine = TransientEngine(tiny_design.mna, tiny_traces[0].dt)
        bad = CurrentTrace(np.ones((10, 3)), tiny_traces[0].dt)
        with pytest.raises(ValueError):
            engine.run_many([tiny_traces[0], bad])


class TestSolverSeam:
    """Every factorisation goes through ``repro.sim.transient.make_solver``.

    The traced perfbench runs time factorisations by patching that module
    global, so a solver built any other way would go unmeasured.
    """

    @pytest.fixture
    def factor_calls(self, monkeypatch):
        import repro.sim.transient as transient

        calls = []
        real = transient.make_solver

        def counting(matrix):
            calls.append(matrix.shape)
            return real(matrix)

        monkeypatch.setattr(transient, "make_solver", counting)
        return calls

    def test_factorisations_per_run(self, tiny_design, factor_calls):
        dt = 1e-11
        engine = TransientEngine(tiny_design.mna, dt)
        engine.run(_constant_trace(tiny_design, 1.0, 10, dt))
        # The companion system, plus the static system of the DC start.
        assert len(factor_calls) == 2
