"""Tests for repro.eval.protocol — the leave-one-design-out campaign."""

import dataclasses
import json

import numpy as np
import pytest

from repro.eval import CrossDesignEvaluator, CrossDesignReport, HeldoutEvaluation
from repro.eval.protocol import REPORT_NAME


class TestCampaignRun:
    def test_report_covers_every_heldout_design(self, tiny_campaign):
        config, _, _, report = tiny_campaign
        assert set(report.rows) == set(config.heldout)
        assert report.config_hash == config.config_hash()

    def test_heldout_row_is_sane(self, tiny_campaign):
        config, _, _, report = tiny_campaign
        row = report.rows[config.heldout[0]]
        assert row.trained_on == config.training_labels(row.heldout)
        assert row.heldout not in row.trained_on
        assert row.num_vectors == config.num_vectors
        assert np.isfinite(row.accuracy.mean_ae)
        assert 0.0 <= row.hotspot_precision <= 1.0
        assert 0.0 <= row.hotspot_recall <= 1.0
        assert row.training_epochs > 0
        assert row.serving_seconds > 0
        assert row.latency["vectors_per_sec"] > 0
        # Every held-out vector went through one fused forward pass: no
        # cache replay, no coalescing, one batch of all the vectors.
        assert row.service == {
            "cache_hits": 0,
            "coalesced": 0,
            "model_batches": 1,
            "mean_batch_size": float(config.num_vectors),
            "max_batch_observed": config.num_vectors,
        }

    def test_artifact_written_and_resumable(self, tiny_campaign):
        config, workdir, evaluator, report = tiny_campaign
        artifact = workdir / REPORT_NAME
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["config_hash"] == config.config_hash()
        # A resumed run re-evaluates nothing and returns identical rows.
        resumed = evaluator.run(num_workers=0)
        assert resumed.rows.keys() == report.rows.keys()
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            report.to_dict(), sort_keys=True
        )

    def test_heldout_checkpoint_registered_for_serving(self, tiny_campaign):
        config, workdir, evaluator, _ = tiny_campaign
        for heldout in config.heldout:
            assert (workdir / "checkpoints" / f"{heldout}.npz").exists()
            assert heldout in evaluator.registry.available()

    def test_mismatched_config_rejects_artifact(self, tiny_campaign):
        config, workdir, _, _ = tiny_campaign
        changed = dataclasses.replace(config, num_vectors=config.num_vectors + 1)
        stranger = CrossDesignEvaluator(changed, workdir)
        with pytest.raises(ValueError, match="different campaign"):
            stranger.load_report()

    def test_gated_metrics_shape(self, tiny_campaign):
        config, _, _, report = tiny_campaign
        metrics = report.gated_metrics()
        assert set(metrics) == set(config.heldout)
        for values in metrics.values():
            assert {"mean_ae_mv", "max_ae_mv", "hotspot_precision", "auc"} <= set(values)
            assert all(isinstance(v, float) for v in values.values())

    def test_table_and_records(self, tiny_campaign):
        _, _, _, report = tiny_campaign
        table = report.table()
        for label in report.rows:
            assert label in table
        records = report.records()
        assert [r.label for r in records] == list(report.rows)
        assert all(r.experiment == "cross_design" for r in records)


class TestReportSerialization:
    def test_round_trip(self, tiny_campaign, tmp_path):
        _, _, _, report = tiny_campaign
        path = tmp_path / "copy.json"
        report.save(path)
        loaded = CrossDesignReport.load(path)
        assert loaded.config_hash == report.config_hash
        assert loaded.rows.keys() == report.rows.keys()
        for label, row in report.rows.items():
            restored = loaded.rows[label]
            assert isinstance(restored, HeldoutEvaluation)
            assert restored.accuracy == row.accuracy
            assert restored.trained_on == row.trained_on
            assert restored.latency == row.latency

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"version": 99, "config_hash": "x", "rows": {}}))
        with pytest.raises(ValueError, match="version"):
            CrossDesignReport.load(path)

    def test_speedup_property(self):
        row_kwargs = dict(
            heldout="X",
            trained_on=("A",),
            num_train_samples=1,
            num_vectors=1,
            accuracy=None,
            hotspot_precision=1.0,
            hotspot_recall=1.0,
        )
        fast = HeldoutEvaluation(
            **row_kwargs, serving_seconds=0.5, simulator_seconds=2.0
        )
        assert fast.speedup == pytest.approx(4.0)
        degenerate = HeldoutEvaluation(
            **row_kwargs, serving_seconds=0.0, simulator_seconds=2.0
        )
        assert degenerate.speedup == float("inf")
