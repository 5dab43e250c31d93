"""Eval campaigns under fault injection: per-row retry, quarantine, health.

The sweep/evaluator execution logic is exercised with stubbed row workers
(the real rows train models and run sign-off simulations — far too heavy to
fail three times per scenario), while the seam placement itself is verified
against the real row functions, which raise at ``eval.row`` before touching
any expensive state.
"""

import dataclasses
import json

import pytest

from repro import faults
from repro.core.metrics import AccuracyReport
from repro.eval import CrossDesignEvaluator, ScenarioSweep, budget
from repro.eval.protocol import CrossDesignReport, HeldoutEvaluation
from repro.eval.sweep import SWEEP_NAME
from repro.faults import ScriptedFaults, WorkerKilled
from repro.resilience import RetryPolicy

#: Retry without wall-clock waits.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


def small_grid(**overrides):
    """The tiny budget shrunk to a 2x2 sweep grid with two held-out designs."""
    config = dataclasses.replace(
        budget("tiny"),
        heldout=("D2", "D3"),
        scenarios=("power_virus",),
        scenario_steps=(32,),
        scenario_seeds=(0,),
    )
    return dataclasses.replace(config, **overrides) if overrides else config


def fake_heldout_row(heldout: str) -> HeldoutEvaluation:
    return HeldoutEvaluation(
        heldout=heldout,
        trained_on=("D1",),
        num_train_samples=4,
        num_vectors=6,
        accuracy=AccuracyReport(
            mean_ae=0.001, mean_re=0.01, p99_ae=0.002, p99_re=0.02,
            max_ae=0.003, max_re=0.03, hotspot_missing_rate=0.0, auc=0.9,
            num_vectors=6, num_tiles=64,
        ),
        hotspot_precision=1.0,
        hotspot_recall=1.0,
    )


class FlakyRows:
    """Stub row worker raising scripted per-key failures before recovering."""

    def __init__(self, failures_by_key, build=lambda key: {"ok": True, "key": key}):
        self.remaining = dict(failures_by_key)
        self.build = build
        self.calls = []

    def __call__(self, key: str):
        self.calls.append(key)
        if self.remaining.get(key, 0) > 0:
            self.remaining[key] -= 1
            raise RuntimeError(f"flaky row {key}")
        return self.build(key)


class TestSweepResilience:
    def _make_sweep(self, monkeypatch, workdir, flaky, config=None):
        import repro.eval.sweep as sweep_module

        monkeypatch.setattr(
            sweep_module, "_run_sweep_job", lambda job: flaky(job.key)
        )
        return ScenarioSweep(config or small_grid(), workdir, retry=FAST_RETRY)

    def test_transient_row_failure_is_retried(
        self, monkeypatch, tmp_path, counter_value
    ):
        sweep = self._make_sweep(monkeypatch, tmp_path, FlakyRows({}))
        keys = [job.key for job in sweep.jobs()]
        flaky = FlakyRows({keys[0]: 1})
        sweep = self._make_sweep(monkeypatch, tmp_path, flaky)
        records = sweep.run(num_workers=0)
        assert len(records) == len(keys) == 2
        assert sweep.load_quarantined() == {}
        assert counter_value("faults.errors") == 1
        assert counter_value("faults.retries") == 1

    def test_exhausted_row_is_quarantined_with_health_section(
        self, monkeypatch, tmp_path, counter_value
    ):
        config = small_grid()
        keys = [job.key for job in ScenarioSweep(config, tmp_path).jobs()]
        flaky = FlakyRows({keys[0]: 99})
        sweep = self._make_sweep(monkeypatch, tmp_path, flaky, config)
        records = sweep.run(num_workers=0)
        # The healthy row completed; the poisoned one is quarantined.
        assert [record.label for record in records] == [keys[1]]
        quarantined = sweep.load_quarantined()
        assert set(quarantined) == {keys[0]}
        assert quarantined[keys[0]]["attempts"] == FAST_RETRY.max_attempts
        assert "flaky row" in quarantined[keys[0]]["error"]
        payload = json.loads((tmp_path / SWEEP_NAME).read_text())
        assert payload["health"] == {"rows_completed": 1, "rows_quarantined": 1}
        assert counter_value("faults.quarantined_rows") == 1
        assert counter_value("faults.exhausted") == 1

    def test_manifest_without_quarantine_is_refused(self, monkeypatch, tmp_path):
        sweep = self._make_sweep(monkeypatch, tmp_path, FlakyRows({}))
        sweep.run(num_workers=0)
        payload = json.loads((tmp_path / SWEEP_NAME).read_text())
        del payload["quarantined"]
        (tmp_path / SWEEP_NAME).write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="has no 'quarantined' entry"):
            sweep.load_quarantined()

    def test_resumed_sweep_reattempts_quarantined_rows(self, monkeypatch, tmp_path):
        config = small_grid()
        keys = [job.key for job in ScenarioSweep(config, tmp_path).jobs()]
        sweep = self._make_sweep(monkeypatch, tmp_path, FlakyRows({keys[0]: 99}), config)
        sweep.run(num_workers=0)
        assert set(sweep.load_quarantined()) == {keys[0]}
        # The flake clears (new deploy, transient infra fixed): a resumed run
        # re-attempts the quarantined row and the quarantine empties.
        healthy = self._make_sweep(monkeypatch, tmp_path, FlakyRows({}), config)
        records = healthy.run(num_workers=0)
        assert sorted(record.label for record in records) == sorted(keys)
        assert healthy.load_quarantined() == {}

    def test_worker_killed_unwinds_the_sweep(self, monkeypatch, tmp_path):
        def killed(key):
            raise WorkerKilled("preempted")

        sweep = self._make_sweep(monkeypatch, tmp_path, killed)
        with pytest.raises(WorkerKilled):
            sweep.run(num_workers=0)

    def test_real_row_worker_fires_the_seam_first(self, tmp_path):
        import repro.eval.sweep as sweep_module

        # Initialise worker state against an empty registry: the scripted
        # fault must fire before the job touches designs or checkpoints.
        sweep_module._worker_init(str(tmp_path), {}, 1e-11)
        job = sweep_module.SweepJob(
            heldout="nonexistent", scenario="power_virus", num_steps=8, seed=0
        )
        scripted = ScriptedFaults().fail_at("eval.row", 0, RuntimeError("row fault"))
        with faults.injected(scripted):
            with pytest.raises(RuntimeError, match="row fault"):
                sweep_module._run_sweep_job(job)
        assert scripted.fired == [("eval.row", 0)]


class TestEvaluatorResilience:
    def _make_evaluator(self, workdir, flaky, config=None):
        evaluator = CrossDesignEvaluator(
            config or small_grid(), workdir, retry=FAST_RETRY
        )
        evaluator.ensure_corpus = lambda num_workers=None: None
        evaluator.evaluate_heldout = flaky
        return evaluator

    def test_transient_heldout_failure_is_retried(self, tmp_path, counter_value):
        flaky = FlakyRows({"D2": 1}, build=fake_heldout_row)
        evaluator = self._make_evaluator(tmp_path, flaky)
        report = evaluator.run(num_workers=0)
        assert set(report.rows) == {"D2", "D3"}
        assert report.quarantined == {}
        assert flaky.calls == ["D2", "D2", "D3"]
        assert counter_value("faults.retries") == 1

    def test_exhausted_heldout_is_quarantined_and_campaign_continues(
        self, tmp_path, counter_value
    ):
        flaky = FlakyRows({"D2": 99}, build=fake_heldout_row)
        evaluator = self._make_evaluator(tmp_path, flaky)
        report = evaluator.run(num_workers=0)
        assert set(report.rows) == {"D3"}
        assert set(report.quarantined) == {"D2"}
        assert report.quarantined["D2"]["attempts"] == FAST_RETRY.max_attempts
        assert "flaky row" in report.quarantined["D2"]["error"]
        assert report.health()["rows_completed"] == 1
        assert report.health()["rows_quarantined"] == 1
        assert counter_value("faults.quarantined_rows") == 1
        # The artefact on disk carries the health section.
        payload = json.loads(evaluator.report_path.read_text())
        assert payload["health"]["rows_quarantined"] == 1
        assert set(payload["quarantined"]) == {"D2"}

    def test_resumed_campaign_clears_the_quarantine(self, tmp_path):
        evaluator = self._make_evaluator(
            tmp_path, FlakyRows({"D2": 99}, build=fake_heldout_row)
        )
        evaluator.run(num_workers=0)
        healthy = self._make_evaluator(tmp_path, FlakyRows({}, build=fake_heldout_row))
        report = healthy.run(num_workers=0)
        assert set(report.rows) == {"D2", "D3"}
        assert report.quarantined == {}
        reloaded = CrossDesignReport.load(healthy.report_path)
        assert reloaded.quarantined == {}

    def test_report_round_trips_quarantine(self, tmp_path):
        report = CrossDesignReport(config_hash="abc")
        report.quarantined["D9"] = {"error": "RuntimeError('x')", "attempts": 3}
        report.save(tmp_path / "report.json")
        reloaded = CrossDesignReport.load(tmp_path / "report.json")
        assert reloaded.quarantined == report.quarantined
        assert reloaded.health()["rows_quarantined"] == 1

    def test_report_without_quarantine_is_refused(self, tmp_path):
        report = CrossDesignReport(config_hash="abc")
        payload = report.to_dict()
        del payload["quarantined"]
        del payload["health"]
        (tmp_path / "report.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="has no 'quarantined' entry"):
            CrossDesignReport.load(tmp_path / "report.json")

    def test_worker_killed_unwinds_the_campaign(self, tmp_path):
        def killed(heldout):
            raise WorkerKilled("preempted")

        evaluator = self._make_evaluator(tmp_path, killed)
        with pytest.raises(WorkerKilled):
            evaluator.run(num_workers=0)

    def test_real_evaluate_heldout_fires_the_seam_first(self, tmp_path):
        # No corpus exists in the workdir: the scripted fault must fire
        # before the row tries to load datasets or train anything.
        evaluator = CrossDesignEvaluator(small_grid(), tmp_path)
        scripted = ScriptedFaults().fail_at("eval.row", 0, RuntimeError("row fault"))
        with faults.injected(scripted):
            with pytest.raises(RuntimeError, match="row fault"):
                evaluator.evaluate_heldout("D3")
        assert scripted.fired == [("eval.row", 0)]
