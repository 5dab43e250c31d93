"""Tests for repro.core.config."""

import pytest

from repro.core.config import ModelConfig, PipelineConfig, TrainingConfig


class TestModelConfig:
    def test_paper_defaults(self):
        config = ModelConfig()
        # C1 = C2 = 8 and C3 = 16, as in Sec. 4.1 of the paper.
        assert config.distance_kernels == 8
        assert config.fusion_kernels == 8
        assert config.prediction_kernels == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"distance_kernels": 0},
            {"kernel_size": 4},
            {"distance_depth": 0},
            {"prediction_depth": -1},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestTrainingConfig:
    def test_defaults_valid(self):
        config = TrainingConfig()
        assert config.learning_rate > 0 and config.epochs > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"batch_size": 0},
            {"early_stopping_patience": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert 0 < config.compression_rate <= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_vectors": 0},
            {"num_steps": 0},
            {"dt": 0.0},
            {"compression_rate": 0.0},
            {"compression_rate": 1.5},
            {"train_fraction": 1.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)
