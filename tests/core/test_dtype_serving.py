"""Serving-precision tests: ``NoisePredictor(dtype=...)`` end to end.

The kernel-dispatch layer makes float32 a first-class *serving* precision
(training stays float64-only).  These tests pin the seams that make that
safe: checkpoints always store float64 master weights, the serving dtype is
round-tripped through checkpoint metadata, the version fingerprint separates
precisions (so result caches can never mix them), and the trainer refuses a
low-precision model outright.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.inference import NoisePredictor
from repro.core.model import WorstCaseNoiseNet
from repro.core.training import NoiseModelTrainer
from repro.features.extraction import (
    FeatureNormalizer,
    distance_feature,
    extract_vector_features,
)


def _make_predictor(design, dtype="float64", seed=0):
    model = WorstCaseNoiseNet(
        num_bumps=design.grid.num_bumps,
        config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=seed
        ),
    )
    normalizer = FeatureNormalizer(
        current_scale=0.05, distance_scale=1000.0, noise_scale=0.15
    )
    return NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance_feature(design),
        compression_rate=0.3,
        dtype=dtype,
    )


@pytest.fixture(scope="module")
def tiny_features(tiny_design, tiny_traces):
    return [
        extract_vector_features(trace, tiny_design, compression_rate=0.3)
        for trace in tiny_traces[:4]
    ]


def test_predictor_rejects_unsupported_dtype(tiny_design):
    with pytest.raises(TypeError):
        _make_predictor(tiny_design, dtype="float16")


def test_float32_predictor_predicts_in_float32(tiny_design, tiny_features):
    predictor = _make_predictor(tiny_design, dtype="float32")
    assert predictor.serving_dtype == "float32"
    for _, parameter in predictor.model.named_parameters():
        assert parameter.data.dtype == np.float32
    result = predictor.predict_features(tiny_features[0])
    assert result.noise_map.dtype == np.float32


def test_float32_predictions_match_float64(tiny_design, tiny_features):
    results64 = _make_predictor(tiny_design, dtype="float64").predict_batch(
        tiny_features
    )
    results32 = _make_predictor(tiny_design, dtype="float32").predict_batch(
        tiny_features
    )
    for r64, r32 in zip(results64, results32):
        np.testing.assert_allclose(
            r32.noise_map, r64.noise_map, rtol=1e-3, atol=1e-4
        )


def test_fingerprint_separates_serving_dtypes(tiny_design):
    fp64 = _make_predictor(tiny_design, dtype="float64").fingerprint
    fp32 = _make_predictor(tiny_design, dtype="float32").fingerprint
    # Same weights, same design — only the serving precision differs, and the
    # fingerprint must still differ (result caches key on it).
    assert fp64 != fp32


def test_save_load_round_trips_serving_dtype(tiny_design, tmp_path):
    predictor = _make_predictor(tiny_design, dtype="float32")
    path = tmp_path / "predictor.npz"
    predictor.save(path)

    # Master weights on disk are always float64, whatever the serving dtype.
    with np.load(path, allow_pickle=False) as data:
        metadata = json.loads(str(data["__metadata_json__"]))
        for name in data.files:
            if not name.startswith("__") and name != "distance":
                assert data[name].dtype == np.float64
    assert metadata["serving_dtype"] == "float32"

    loaded = NoisePredictor.load(path)
    assert loaded.serving_dtype == "float32"
    for _, parameter in loaded.model.named_parameters():
        assert parameter.data.dtype == np.float32


def test_load_dtype_override(tiny_design, tmp_path):
    path = tmp_path / "predictor.npz"
    _make_predictor(tiny_design, dtype="float32").save(path)
    loaded = NoisePredictor.load(path, dtype="float64")
    assert loaded.serving_dtype == "float64"
    for _, parameter in loaded.model.named_parameters():
        assert parameter.data.dtype == np.float64


def test_checkpoint_without_serving_dtype_is_refused(tiny_design, tmp_path):
    # Every checkpoint records its serving dtype; one without the key is
    # refused, even when the caller names a dtype.
    path = tmp_path / "old.npz"
    _make_predictor(tiny_design, dtype="float64").save(path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    metadata = json.loads(str(arrays["__metadata_json__"]))
    del metadata["serving_dtype"]
    arrays["__metadata_json__"] = np.array(json.dumps(metadata))
    np.savez(path, **arrays)

    for dtype in (None, "float32"):
        with pytest.raises(ValueError, match="old.npz has no 'serving_dtype' entry"):
            NoisePredictor.load(path, dtype=dtype)


def test_training_rejects_float32_model(tiny_design, tiny_dataset, tiny_split):
    trainer = NoiseModelTrainer(
        tiny_dataset,
        design=tiny_design,
        split=tiny_split,
        model_config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=0
        ),
        training_config=TrainingConfig(
            epochs=1, batch_size=4, early_stopping_patience=None, seed=0
        ),
    )
    trainer.model.astype("float32")
    with pytest.raises(TypeError, match="float64"):
        trainer.train()
