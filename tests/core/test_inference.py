"""Tests for repro.core.inference."""

import numpy as np
import pytest

from repro.core.inference import NoisePredictor


@pytest.fixture(scope="module")
def predictor(tiny_predictor):
    """The shared untrained predictor (see tests/conftest.py)."""
    return tiny_predictor


class TestNoisePredictor:
    def test_predict_trace_shape_and_runtime(self, predictor, tiny_design, tiny_traces):
        result = predictor.predict_trace(tiny_traces[0], tiny_design)
        assert result.noise_map.shape == tiny_design.tile_grid.shape
        assert result.runtime_seconds > 0
        assert result.name == tiny_traces[0].name
        assert np.all(np.isfinite(result.noise_map))

    def test_predict_features_matches_trace_path(self, predictor, tiny_design, tiny_traces):
        from repro.features.extraction import extract_vector_features

        features = extract_vector_features(tiny_traces[0], tiny_design, compression_rate=0.4)
        from_features = predictor.predict_features(features)
        from_trace = predictor.predict_trace(tiny_traces[0], tiny_design)
        np.testing.assert_allclose(from_features.noise_map, from_trace.noise_map, rtol=1e-9)

    def test_only_predict_batch_reuses_the_reduced_distance(
        self, predictor, tiny_dataset, monkeypatch
    ):
        from repro.core.model import WorstCaseNoiseNet

        calls = []
        original = WorstCaseNoiseNet.reduce_distance

        def counting(self, distance):
            calls.append(1)
            return original(self, distance)

        monkeypatch.setattr(WorstCaseNoiseNet, "reduce_distance", counting)
        features = [sample.features for sample in tiny_dataset.samples[:2]]
        for item in features:
            predictor.predict_features(item)
        assert len(calls) == 2
        predictor.predict_batch(features)
        predictor.predict_batch(features)
        assert len(calls) <= 3

    def test_predict_dataset(self, predictor, tiny_dataset):
        maps, runtimes = predictor.predict_dataset(tiny_dataset, indices=[0, 1, 2])
        assert maps.shape == (3,) + tiny_dataset.tile_shape
        assert runtimes.shape == (3,)

    def test_prediction_result_helpers(self, predictor, tiny_design, tiny_traces):
        result = predictor.predict_trace(tiny_traces[0], tiny_design)
        assert result.worst_noise == pytest.approx(result.noise_map.max())
        hotspots = result.hotspot_map(0.1)
        assert hotspots.dtype == bool

    def test_hotspot_map_accepts_zero_threshold(self, predictor, tiny_design, tiny_traces):
        result = predictor.predict_trace(tiny_traces[0], tiny_design)
        hotspots = result.hotspot_map(0.0)
        assert hotspots.dtype == bool
        np.testing.assert_array_equal(hotspots, result.noise_map > 0.0)

    def test_hotspot_map_rejects_negative_threshold(self, predictor, tiny_design, tiny_traces):
        result = predictor.predict_trace(tiny_traces[0], tiny_design)
        with pytest.raises(ValueError):
            result.hotspot_map(-0.05)

    def test_distance_shape_validation(self, predictor, rng):
        with pytest.raises(ValueError):
            NoisePredictor(
                model=predictor.model,
                normalizer=predictor.normalizer,
                distance=rng.random((3, 4)),
            )

    def test_bump_count_mismatch_rejected(self, predictor, rng):
        with pytest.raises(ValueError):
            NoisePredictor(
                model=predictor.model,
                normalizer=predictor.normalizer,
                distance=rng.random((2, 8, 8)),
            )

    def test_save_and_load_roundtrip(self, predictor, tiny_design, tiny_traces, tmp_path):
        path = tmp_path / "predictor.npz"
        predictor.save(path)
        restored = NoisePredictor.load(path)
        original = predictor.predict_trace(tiny_traces[0], tiny_design)
        reloaded = restored.predict_trace(tiny_traces[0], tiny_design)
        np.testing.assert_allclose(original.noise_map, reloaded.noise_map, rtol=1e-9)
        assert restored.compression_rate == predictor.compression_rate

    def test_save_is_single_self_contained_file(self, predictor, tmp_path):
        path = tmp_path / "predictor.npz"
        predictor.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["predictor.npz"]
        np.testing.assert_array_equal(NoisePredictor.load(path).distance, predictor.distance)

    def test_save_and_load_accept_str_paths(self, predictor, tmp_path):
        path = str(tmp_path / "predictor.npz")
        predictor.save(path)
        restored = NoisePredictor.load(path)
        np.testing.assert_array_equal(restored.distance, predictor.distance)

    def test_load_without_any_distance_source_fails(self, predictor, tmp_path):
        from dataclasses import asdict

        from repro.nn import save_checkpoint

        # Full predictor metadata, but no embedded distance tensor.
        path = tmp_path / "incomplete.npz"
        metadata = {
            "normalizer": predictor.normalizer.to_dict(),
            "compression_rate": predictor.compression_rate,
            "rate_step": 0.05,
            "num_bumps": predictor.model.num_bumps,
            "model_config": asdict(predictor.model.config),
        }
        save_checkpoint(predictor.model, path, metadata=metadata)
        with pytest.raises(ValueError, match="incomplete.npz stores no distance tensor"):
            NoisePredictor.load(path)

    def test_load_rejects_distance_tensor_of_another_tile_grid(self, predictor, tmp_path):
        # Same bump count, one tile row short: only the recorded
        # ``distance_shape`` can tell the archive was doctored.
        path = tmp_path / "doctored.npz"
        predictor.save(path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        arrays["__extra__distance"] = arrays["__extra__distance"][:, :-1, :]
        np.savez(path, **arrays)
        bumps, rows, cols = predictor.distance.shape
        with pytest.raises(ValueError) as error:
            NoisePredictor.load(path)
        message = str(error.value)
        assert f"({bumps}, {rows - 1}, {cols})" in message
        assert f"({bumps}, {rows}, {cols})" in message

    def test_load_opens_the_archive_once(self, predictor, tmp_path, monkeypatch):
        path = tmp_path / "predictor.npz"
        predictor.save(path)
        opened = []
        real_load = np.load

        def counting_load(*args, **kwargs):
            opened.append(args[0])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        restored = NoisePredictor.load(path)
        assert opened == [path]
        np.testing.assert_array_equal(restored.distance, predictor.distance)

    def test_load_rejects_checkpoint_without_metadata(self, predictor, tmp_path):
        from repro.nn import save_checkpoint

        path = tmp_path / "bare.npz"
        save_checkpoint(predictor.model, path)
        with pytest.raises(ValueError):
            NoisePredictor.load(path)
