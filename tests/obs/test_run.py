"""Process-global context and end-to-end telemetry runs.

The acceptance path of the observability PR: a pool-run corpus generation
plus a screening-service pass, both inside one ``obs.start_run`` /
``obs.finish_run`` window, must merge every process's telemetry into one
config-hash-stamped ``run_report.json`` carrying the serving queue-depth,
batch-size and per-path latency metrics.
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.datagen import CorpusDesignSpec, CorpusSpec, generate_corpus
from repro.gateway import ScreeningGateway
from repro.serving import PredictorRegistry


def small_spec() -> CorpusSpec:
    """A two-shard-per-worker corpus spec sized for fast pool tests."""
    return CorpusSpec(
        designs=(
            CorpusDesignSpec(
                label="small", design="small@6", num_vectors=4, num_steps=30,
                shard_size=1, seed=3,
            ),
        ),
        sim_batch_size=4,
    )


class TestGlobalContext:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.metrics() is obs.NULL_REGISTRY
        assert not obs.get_tracer().enabled
        assert obs.active_run() is None

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.configure(None)  # rebuild the context under the env setting
        assert obs.enabled()
        registry = obs.metrics()
        assert registry.enabled
        registry.counter("x").inc()
        assert registry.counter("x").value == 1

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        obs.configure(False)
        assert not obs.enabled()
        assert obs.metrics() is obs.NULL_REGISTRY

    def test_flush_without_active_run_is_noop(self):
        obs.configure(True)
        assert obs.flush_shard() is None

    def test_finish_without_run_raises(self):
        with pytest.raises(RuntimeError, match="no active run"):
            obs.finish_run()

    def test_worker_label_is_main_only_for_the_run_owner(self, tmp_path):
        assert obs.worker_label() == f"w{os.getpid()}"
        obs.start_run(tmp_path / "run")
        assert obs.worker_label() == "main"


class TestRunLifecycle:
    def test_start_run_exports_environment_for_pool_workers(self, tmp_path):
        run_dir = obs.start_run(tmp_path / "run", config={"seed": 1})
        assert os.environ["REPRO_OBS"] == "1"
        assert os.environ["REPRO_OBS_DIR"] == str(run_dir)
        assert obs.enabled()
        assert obs.active_run() == run_dir

    def test_finish_run_writes_stamped_report_and_resets(self, tmp_path):
        config = {"budget": "test", "seed": 3}
        obs.start_run(tmp_path / "run", config=config)
        obs.metrics().counter("serving.requests").inc(7)
        with obs.get_tracer().span("eval.training", heldout="D1"):
            pass
        path = obs.finish_run()
        report = obs.load_run_report(path)
        assert report["config_hash"] == obs.config_hash(config)
        assert report["metrics"]["serving.requests"]["value"] == 7
        assert report["spans"]["main"][0]["name"] == "eval.training"
        # The run is over: context disabled, environment toggles removed.
        assert not obs.enabled()
        assert "REPRO_OBS" not in os.environ
        assert obs.active_run() is None


class TestEndToEndPoolRun:
    def test_pool_and_inline_corpus_runs_report_identical_work_metrics(self, tmp_path):
        """Worker-owned counters merge to the same totals pool-vs-inline."""
        reports = {}
        for mode, num_workers in (("inline", 0), ("pooled", 2)):
            obs.start_run(tmp_path / mode / "obs", config={"mode": "corpus"})
            generate_corpus(small_spec(), tmp_path / mode / "corpus", num_workers=num_workers)
            reports[mode] = obs.load_run_report(obs.finish_run())
        for name in ("datagen.shards_generated", "datagen.vectors_generated"):
            assert (
                reports["inline"]["metrics"][name]["value"]
                == reports["pooled"]["metrics"][name]["value"]
            ), name
        assert reports["inline"]["metrics"]["datagen.shards_generated"]["value"] == 4
        # The pooled run merged shards from actual worker processes.
        assert reports["pooled"]["shards"][0] == "main"
        assert any(label.startswith("w") for label in reports["pooled"]["shards"])
        # Both runs recorded per-shard simulate spans and durations.
        histogram = reports["pooled"]["metrics"]["datagen.shard_seconds"]
        assert histogram["count"] == 4
        span_names = {
            record["name"]
            for records in reports["pooled"]["spans"].values()
            for record in records
        }
        assert {"datagen.generate_corpus", "datagen.shard", "datagen.simulate"} <= span_names

    def test_corpus_plus_screening_session_produces_merged_report(
        self, tmp_path, tiny_design, tiny_traces, tiny_predictor
    ):
        """The acceptance criterion: datagen pool + serving in one report."""
        obs.start_run(tmp_path / "obs", config={"campaign": "acceptance", "seed": 3})
        generate_corpus(small_spec(), tmp_path / "corpus", num_workers=2)

        checkpoint_dir = tmp_path / "checkpoints"
        PredictorRegistry(checkpoint_dir).register(tiny_design.name, tiny_predictor)
        with ScreeningGateway(checkpoint_dir, num_shards=1, max_batch=4, max_wait=1e-3) as gateway:
            gateway.screen([(trace, tiny_design) for trace in tiny_traces])

        report = obs.load_run_report(obs.finish_run())
        assert report["config_hash"] == obs.config_hash(
            {"campaign": "acceptance", "seed": 3}
        )
        metrics = report["metrics"]
        # Serving telemetry: every request counted, queue depth and batch
        # size sampled, latency histogrammed for every answer.
        assert metrics["gateway.requests"]["value"] == len(tiny_traces)
        assert metrics["gateway.queue_depth"]["count"] == len(tiny_traces)
        assert metrics["gateway.batch_size"]["count"] >= 1
        assert 1 <= metrics["gateway.batch_size"]["max"] <= 4
        latency = metrics["gateway.request_latency.ok"]
        assert latency["count"] == len(tiny_traces)
        assert latency["summary"]["p95"] >= latency["summary"]["p50"] > 0
        # Datagen telemetry from the pool merged into the same report.
        assert metrics["datagen.shards_generated"]["value"] == 4
        assert any(label.startswith("w") for label in report["shards"])
