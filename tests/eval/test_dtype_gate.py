"""Precision-aware evaluation gating.

float32 serving is gated against the *same* golden float64 baseline numbers,
via per-dtype tolerance bands stored next to the default ones.  These tests
pin the storage round trip, the band selection in ``compare``, the
preserve-on-refresh behaviour, and the report artefact's serving-dtype stamp
(mixed-precision resume is rejected).
"""

from __future__ import annotations

import json

import pytest

from repro.eval import BaselineStore, CrossDesignEvaluator, budget
from repro.eval.protocol import CrossDesignReport

METRICS = {"D1": {"mean_ae_mv": 10.0, "auc": 0.9}}
FLOAT32_BANDS = {"float32": {"mean_ae_mv": {"rtol": 0.5, "atol": 0.0}}}


def test_dtype_tolerances_round_trip(tmp_path):
    store = BaselineStore(tmp_path)
    store.save("unit", METRICS, "hash", dtype_tolerances=FLOAT32_BANDS)
    baseline = store.load("unit")
    assert baseline.dtype_tolerances == FLOAT32_BANDS


def test_compare_uses_dtype_bands(tmp_path):
    store = BaselineStore(tmp_path)
    store.save("unit", METRICS, "hash", dtype_tolerances=FLOAT32_BANDS)
    # 14.0 vs 10.0 busts the default 10% band but sits inside the float32
    # band (50% relative).
    drifted = {"D1": {"mean_ae_mv": 14.0, "auc": 0.9}}
    assert not store.compare("unit", drifted, "hash").passed
    assert store.compare("unit", drifted, "hash", dtype="float32").passed
    # Metrics without a float32 override keep the default band.
    bad_auc = {"D1": {"mean_ae_mv": 10.0, "auc": 0.5}}
    assert not store.compare("unit", bad_auc, "hash", dtype="float32").passed


def test_refresh_preserves_dtype_bands(tmp_path):
    # A float64 --update-baseline (which never passes dtype_tolerances) must
    # not drop the stored float32 gate bands.
    store = BaselineStore(tmp_path)
    store.save("unit", METRICS, "hash", dtype_tolerances=FLOAT32_BANDS)
    store.save("unit", {"D1": {"mean_ae_mv": 11.0, "auc": 0.9}}, "hash")
    baseline = store.load("unit")
    assert baseline.dtype_tolerances == FLOAT32_BANDS
    assert baseline.metrics["D1"]["mean_ae_mv"] == 11.0


def test_unknown_dtype_falls_back_to_default_bands(tmp_path):
    store = BaselineStore(tmp_path)
    store.save("unit", METRICS, "hash", dtype_tolerances=FLOAT32_BANDS)
    drifted = {"D1": {"mean_ae_mv": 14.0, "auc": 0.9}}
    assert not store.compare("unit", drifted, "hash", dtype="float16").passed


def test_report_stamps_serving_dtype(tmp_path):
    report = CrossDesignReport(config_hash="abc", serving_dtype="float32")
    path = tmp_path / "report.json"
    report.save(path)
    assert CrossDesignReport.load(path).serving_dtype == "float32"
    # A report without the stamp is refused.
    payload = json.loads(path.read_text())
    del payload["serving_dtype"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="has no 'serving_dtype' entry"):
        CrossDesignReport.load(path)


def test_mixed_precision_resume_rejected(tmp_path, tiny_eval_config):
    workdir = tmp_path / "campaign"
    evaluator = CrossDesignEvaluator(tiny_eval_config, workdir, serving_dtype="float32")
    CrossDesignReport(
        config_hash=tiny_eval_config.config_hash(), serving_dtype="float64"
    ).save(evaluator.report_path)
    with pytest.raises(ValueError, match="serving dtype"):
        evaluator.load_report()


def test_evaluator_rejects_unsupported_dtype(tmp_path, tiny_eval_config):
    with pytest.raises(TypeError):
        CrossDesignEvaluator(tiny_eval_config, tmp_path, serving_dtype="bfloat16")
