"""The batched training engine against pinned golden curves (repro.core.training).

``data/golden_training.npz`` was captured from the batched engine on the tiny
fixture before the per-sample engine was retired (the per-sample engine then
matched it to within 2.2e-16 relative).  It holds two runs, each with its
train/validation loss curves, ``best_epoch`` and final weights:

* ``dense/*`` — 5 epochs at batch size 3, every sample with its full stamp count;
* ``ragged/*`` — 2 epochs with every third sample's stamps halved, so the
  engine takes its per-sample (ragged) partition path.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.workloads.dataset import NoiseDataset, NoiseSample

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_training.npz"

MODEL_CONFIG = ModelConfig(distance_kernels=4, fusion_kernels=4, prediction_kernels=6, seed=0)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return dict(data)


def _train(dataset, design, split, epochs: int = 5, seed: int = 0):
    trainer = NoiseModelTrainer(
        dataset,
        design=design,
        split=split,
        model_config=MODEL_CONFIG,
        training_config=TrainingConfig(
            epochs=epochs,
            batch_size=3,
            learning_rate=2e-3,
            early_stopping_patience=None,
            seed=seed,
        ),
    )
    return trainer.train()


def _ragged(dataset):
    """``dataset`` with every third sample's current maps truncated."""
    samples = []
    for index, sample in enumerate(dataset.samples):
        maps = sample.features.current_maps
        if index % 3 == 1:
            maps = maps[: max(1, maps.shape[0] // 2)]
        features = type(sample.features)(current_maps=maps, name=sample.name)
        samples.append(
            NoiseSample(
                features=features,
                target=sample.target,
                hotspot_map=sample.hotspot_map,
                sim_runtime=sample.sim_runtime,
                name=sample.name,
            )
        )
    return NoiseDataset(
        design_name=dataset.design_name,
        tile_shape=dataset.tile_shape,
        distance=dataset.distance,
        samples=samples,
        dt=dataset.dt,
        vdd=dataset.vdd,
        hotspot_threshold=dataset.hotspot_threshold,
    )


def _assert_curves_match_golden(result, golden, key):
    history = result.history
    np.testing.assert_allclose(
        history.train_loss, golden[f"{key}/train_loss"], rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        history.validation_loss, golden[f"{key}/validation_loss"], rtol=1e-12, atol=1e-12
    )
    assert history.best_epoch == int(golden[f"{key}/best_epoch"])


def _assert_weights_match_golden(result, golden, key):
    state = result.model.state_dict()
    prefix = f"{key}/weights/"
    assert sorted(state) == sorted(
        name[len(prefix):] for name in golden if name.startswith(prefix)
    )
    for name, value in state.items():
        np.testing.assert_allclose(value, golden[prefix + name], rtol=1e-9, atol=1e-12)


@pytest.fixture(scope="module")
def dense_result(tiny_design, tiny_dataset, tiny_split):
    return _train(tiny_dataset, tiny_design, tiny_split)


class TestBatchedEngine:
    def test_dense_loss_curves_match_golden(self, dense_result, golden):
        _assert_curves_match_golden(dense_result, golden, "dense")

    def test_dense_final_weights_match_golden(self, dense_result, golden):
        _assert_weights_match_golden(dense_result, golden, "dense")

    def test_ragged_run_matches_golden(
        self, tiny_design, tiny_dataset, tiny_split, golden
    ):
        result = _train(_ragged(tiny_dataset), tiny_design, tiny_split, epochs=2)
        _assert_curves_match_golden(result, golden, "ragged")
        _assert_weights_match_golden(result, golden, "ragged")

    def test_seeded_runs_are_deterministic(self, tiny_design, tiny_dataset, tiny_split):
        first = _train(tiny_dataset, tiny_design, tiny_split, epochs=3)
        second = _train(tiny_dataset, tiny_design, tiny_split, epochs=3)
        assert first.history.train_loss == second.history.train_loss
        assert first.history.validation_loss == second.history.validation_loss
        for name, value in first.model.state_dict().items():
            np.testing.assert_array_equal(value, second.model.state_dict()[name])

    def test_different_shuffle_seeds_differ(self, tiny_design, tiny_dataset, tiny_split):
        first = _train(tiny_dataset, tiny_design, tiny_split, epochs=3)
        other = _train(tiny_dataset, tiny_design, tiny_split, epochs=3, seed=7)
        assert first.history.train_loss != other.history.train_loss
