"""Tests for repro.core.training."""

import weakref

import numpy as np
import pytest

from repro import faults
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.core.training import NoiseModelTrainer
from repro.faults import FaultInjector
from repro.nn.tensor import grad_enabled


@pytest.fixture(scope="module")
def quick_training(tiny_design, tiny_dataset, tiny_split):
    """A very short training run shared by several assertions."""
    trainer = NoiseModelTrainer(
        tiny_dataset,
        design=tiny_design,
        split=tiny_split,
        model_config=ModelConfig(distance_kernels=4, fusion_kernels=4, prediction_kernels=6, seed=0),
        training_config=TrainingConfig(
            epochs=6, learning_rate=2e-3, batch_size=3, early_stopping_patience=None, seed=0
        ),
    )
    return trainer, trainer.train()


class TestNoiseModelTrainer:
    def test_history_lengths(self, quick_training):
        _, result = quick_training
        assert result.history.num_epochs == 6
        assert len(result.history.validation_loss) == 6
        assert result.history.wall_clock_seconds > 0

    def test_training_loss_decreases(self, quick_training):
        _, result = quick_training
        losses = result.history.train_loss
        assert losses[-1] < losses[0]

    def test_best_epoch_recorded(self, quick_training):
        _, result = quick_training
        history = result.history
        assert 0 <= history.best_epoch < history.num_epochs
        assert history.best_validation_loss == pytest.approx(
            min(history.validation_loss), rel=1e-9
        )

    def test_normalizer_fitted_from_training_partition(self, quick_training, tiny_dataset):
        trainer, result = quick_training
        assert result.normalizer.current_scale > 0
        assert result.normalizer.noise_scale > 0
        # Noise scale should be in the ballpark of the target magnitudes.
        assert result.normalizer.noise_scale < 2 * tiny_dataset.targets().max()

    def test_model_predicts_reasonable_range_after_training(self, quick_training, tiny_dataset):
        _, result = quick_training
        sample = tiny_dataset.samples[0]
        normalized = result.normalizer.normalize_currents(sample.features.current_maps)
        distance = result.normalizer.normalize_distance(tiny_dataset.distance)
        prediction = result.normalizer.denormalize_noise(
            result.model(normalized, distance).numpy()
        )
        # Not asserting accuracy here (too few epochs) — only sane magnitudes.
        assert prediction.shape == tiny_dataset.tile_shape
        assert np.all(np.isfinite(prediction))
        assert prediction.max() < 1.0  # below Vdd

    def test_requires_at_least_three_samples(self, tiny_dataset, tiny_design):
        with pytest.raises(ValueError):
            NoiseModelTrainer(tiny_dataset.subset([0, 1]), design=tiny_design)

    def test_split_computed_when_missing(self, tiny_dataset, tiny_design):
        trainer = NoiseModelTrainer(
            tiny_dataset,
            design=tiny_design,
            training_config=TrainingConfig(epochs=1, batch_size=4),
        )
        assert len(trainer.split.train) > 0
        assert len(trainer.split.test) > 0

    def test_early_stopping_stops_before_max_epochs(self, tiny_design, tiny_dataset, tiny_split):
        trainer = NoiseModelTrainer(
            tiny_dataset,
            design=tiny_design,
            split=tiny_split,
            model_config=ModelConfig(distance_kernels=2, fusion_kernels=2, prediction_kernels=2),
            training_config=TrainingConfig(
                epochs=50, learning_rate=1e-10, batch_size=4, early_stopping_patience=2, seed=0
            ),
        )
        result = trainer.train()
        # With a vanishing learning rate improvements stay below min_delta,
        # so patience kicks in almost immediately.
        assert result.history.num_epochs <= 10

    def test_works_without_design_context(self, tiny_dataset, tiny_split):
        trainer = NoiseModelTrainer(
            tiny_dataset,
            design=None,
            split=tiny_split,
            model_config=ModelConfig(distance_kernels=2, fusion_kernels=2, prediction_kernels=2),
            training_config=TrainingConfig(epochs=1, batch_size=4),
        )
        result = trainer.train()
        assert result.normalizer.distance_scale > 0

    def test_divergence_still_finishes(self, tiny_dataset, tiny_design):
        # A numeric blow-up mid-run: the NaN losses are recorded and the run
        # finishes without raising.
        class PoisonWeightsAtEpochOne(FaultInjector):
            def on_train_step(self, epoch, step, model):
                if (epoch, step) == (1, 0):
                    parameter = next(iter(model.parameters()))
                    parameter.data = np.full_like(parameter.data, np.nan)

        trainer = NoiseModelTrainer(
            tiny_dataset,
            design=tiny_design,
            model_config=ModelConfig(distance_kernels=3, fusion_kernels=3, prediction_kernels=3),
            training_config=TrainingConfig(
                epochs=3, batch_size=4, early_stopping_patience=None, seed=5
            ),
        )
        with faults.injected(PoisonWeightsAtEpochOne()):
            result = trainer.train()
        assert result.history.num_epochs == 3
        assert any(not np.isfinite(loss) for loss in result.history.train_loss)


def test_each_step_graph_is_freed_before_the_next_forward(
    tiny_design, tiny_dataset, tiny_split, monkeypatch
):
    # The autograd graph holds every activation of a step; keeping the last
    # step's graph alive through the next forward pass doubles peak memory.
    # Tensors take no weak references, so watch each output's data array.
    previous: list[weakref.ref] = []
    alive_at_next_forward: list[bool] = []
    forward_batch = WorstCaseNoiseNet.forward_batch

    def watched(model, *args, **kwargs):
        if not grad_enabled():  # validation
            return forward_batch(model, *args, **kwargs)
        if previous:
            alive_at_next_forward.append(previous[-1]() is not None)
        output = forward_batch(model, *args, **kwargs)
        previous.append(weakref.ref(output.data))
        return output

    monkeypatch.setattr(WorstCaseNoiseNet, "forward_batch", watched)
    NoiseModelTrainer(
        tiny_dataset,
        design=tiny_design,
        split=tiny_split,
        model_config=ModelConfig(distance_kernels=2, fusion_kernels=2, prediction_kernels=2),
        training_config=TrainingConfig(epochs=2, batch_size=2, early_stopping_patience=None),
    ).train()
    assert len(alive_at_next_forward) >= 3
    assert not any(alive_at_next_forward)
