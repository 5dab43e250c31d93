"""Tests for repro.faults — the shared deterministic fault-injection layer."""

import pytest

from repro import faults, obs
from repro.faults import (
    NULL_FAULTS,
    FaultInjector,
    ScriptedFaults,
    WorkerKilled,
)


class TestDefaultInjector:
    def test_active_defaults_to_inert_injector(self):
        assert faults.active() is NULL_FAULTS

    def test_null_hooks_are_no_ops_returning_inputs(self):
        injector = FaultInjector()
        sentinel = object()
        assert injector.on_dequeue(0, sentinel) == (sentinel,)
        assert injector.on_shard_dataset("small", 0, sentinel) is sentinel
        # The pure side-effect seams simply do nothing.
        injector.before_shard("small", 0)
        injector.during_shard_write("small", 0, None)
        injector.before_solve("small", 4)
        injector.on_train_step(0, 0, None)
        injector.before_row("row")

    def test_install_returns_previous_and_none_restores_default(self):
        scripted = ScriptedFaults()
        previous = faults.install(scripted)
        assert previous is NULL_FAULTS
        assert faults.active() is scripted
        assert faults.install(None) is scripted
        assert faults.active() is NULL_FAULTS

    def test_injected_context_manager_restores_previous(self):
        scripted = ScriptedFaults()
        with faults.injected(scripted) as active:
            assert active is scripted
            assert faults.active() is scripted
        assert faults.active() is NULL_FAULTS

    def test_injected_restores_even_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.injected(ScriptedFaults()):
                raise RuntimeError("boom")
        assert faults.active() is NULL_FAULTS


class TestWorkerKilled:
    def test_is_base_exception_not_exception(self):
        # except Exception (the retry/quarantine net) must never catch a kill.
        assert issubclass(WorkerKilled, BaseException)
        assert not issubclass(WorkerKilled, Exception)

    def test_passes_through_an_except_exception_handler(self):
        def handler():
            try:
                raise WorkerKilled("preempted")
            except Exception:  # the pipeline's retry net
                return "swallowed"

        with pytest.raises(WorkerKilled):
            handler()


class TestScriptedFaults:
    def test_fires_at_exact_ordinal_only(self):
        scripted = ScriptedFaults().fail_at("sim.solve", 2, RuntimeError("third"))
        scripted.before_solve("d", 1)
        scripted.before_solve("d", 1)
        with pytest.raises(RuntimeError, match="third"):
            scripted.before_solve("d", 1)
        scripted.before_solve("d", 1)  # later calls are clean again
        assert scripted.calls["sim.solve"] == 4
        assert scripted.fired == [("sim.solve", 2)]

    def test_seams_count_independently(self):
        scripted = ScriptedFaults().fail_at("eval.row", 0, ValueError("row"))
        scripted.before_shard("small", 0)  # datagen.shard ordinal 0: clean
        with pytest.raises(ValueError):
            scripted.before_row("key")
        assert scripted.calls == {"datagen.shard": 1, "eval.row": 1}

    def test_error_factory_builds_fresh_errors(self):
        scripted = ScriptedFaults().fail_at(
            "datagen.shard", 0, lambda: WorkerKilled("fresh")
        )
        with pytest.raises(WorkerKilled):
            scripted.before_shard("small", 0)

    def test_fired_faults_tick_injected_counter(self):
        scripted = ScriptedFaults().fail_at("training.step", 0, RuntimeError("x"))
        with pytest.raises(RuntimeError):
            scripted.on_train_step(0, 0, None)
        assert obs.metrics().counter("faults.injected").value == 1

    def test_dataset_seam_passes_value_through(self):
        scripted = ScriptedFaults()
        sentinel = object()
        assert scripted.on_shard_dataset("small", 0, sentinel) is sentinel

    def test_fail_at_is_chainable(self):
        scripted = (
            ScriptedFaults()
            .fail_at("datagen.shard", 0, RuntimeError("a"))
            .fail_at("datagen.shard", 1, RuntimeError("b"))
        )
        with pytest.raises(RuntimeError, match="a"):
            scripted.before_shard("small", 0)
        with pytest.raises(RuntimeError, match="b"):
            scripted.before_shard("small", 1)
