"""Tests for repro.resilience.checkpoint and the optimiser state contract."""

import numpy as np
import pytest

from repro.nn import Adam, Parameter
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    CheckpointPolicy,
    TrainingCheckpoint,
    divergence_detail,
)


def make_checkpoint(epoch: int, seed: int = 0) -> TrainingCheckpoint:
    rng = np.random.default_rng(seed)
    generator = np.random.default_rng(seed + 100)
    return TrainingCheckpoint(
        epoch=epoch,
        model_state={"conv.weight": rng.normal(size=(3, 3)), "conv.bias": rng.normal(size=3)},
        best_state={"conv.weight": rng.normal(size=(3, 3)), "conv.bias": rng.normal(size=3)},
        optimizer_state={
            "kind": "adam",
            "step_count": 7,
            "first_moment": rng.normal(size=12),
            "second_moment": rng.normal(size=12) ** 2,
        },
        rng_state=generator.bit_generator.state,
        train_loss=[0.5, 0.4][: epoch + 1],
        validation_loss=[0.6, 0.45][: epoch + 1],
        best_epoch=epoch,
        best_validation_loss=0.45,
        epochs_without_improvement=0,
    )


class TestCheckpointManager:
    def test_save_load_round_trip_is_exact(self, tmp_path):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path))
        saved = make_checkpoint(epoch=1)
        path = manager.save(saved)
        loaded = manager.load(path)
        assert loaded.epoch == saved.epoch
        assert loaded.train_loss == saved.train_loss
        assert loaded.validation_loss == saved.validation_loss
        assert loaded.best_epoch == saved.best_epoch
        assert loaded.best_validation_loss == saved.best_validation_loss
        assert loaded.epochs_without_improvement == saved.epochs_without_improvement
        # The RNG bit-generator state round-trips exactly through JSON —
        # including PCG64's arbitrary-precision integers.
        assert loaded.rng_state == saved.rng_state
        for name, value in saved.model_state.items():
            np.testing.assert_array_equal(loaded.model_state[name], value)
        for name, value in saved.best_state.items():
            np.testing.assert_array_equal(loaded.best_state[name], value)
        assert loaded.optimizer_state["kind"] == "adam"
        assert loaded.optimizer_state["step_count"] == 7
        np.testing.assert_array_equal(
            loaded.optimizer_state["first_moment"],
            saved.optimizer_state["first_moment"],
        )

    def test_checkpoints_counter_ticks_per_save(self, tmp_path, counter_value):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path))
        manager.save(make_checkpoint(epoch=0))
        manager.save(make_checkpoint(epoch=1))
        assert counter_value("faults.checkpoints") == 2

    def test_latest_returns_newest_epoch(self, tmp_path):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path, keep=5))
        for epoch in (0, 1, 2):
            manager.save(make_checkpoint(epoch=epoch, seed=epoch))
        assert manager.latest().epoch == 2

    def test_latest_skips_corrupt_newest_with_counter(self, tmp_path, counter_value):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path, keep=5))
        manager.save(make_checkpoint(epoch=0))
        manager.save(make_checkpoint(epoch=1))
        # Bit-rot the newest file: latest() must fall back to epoch 0.
        manager.path_for(1).write_bytes(b"not an npz archive")
        restored = manager.latest()
        assert restored.epoch == 0
        assert counter_value("faults.corrupt_checkpoints") == 1

    def test_latest_on_empty_directory_is_none(self, tmp_path):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path / "none"))
        assert manager.latest() is None

    def test_prune_keeps_newest_files(self, tmp_path):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path, keep=2))
        for epoch in range(4):
            manager.save(make_checkpoint(epoch=epoch, seed=epoch))
        assert [epoch for epoch, _ in manager.available()] == [2, 3]

    def test_load_unreadable_file_raises_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path))
        bad = tmp_path / "ckpt-000009.npz"
        bad.write_bytes(b"\x00" * 32)
        with pytest.raises(CheckpointError, match="unreadable"):
            manager.load(bad)

    def test_load_truncated_file_raises_checkpoint_error(self, tmp_path):
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path))
        path = manager.save(make_checkpoint(epoch=0))
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointError):
            manager.load(path)

    def test_version_mismatch_raises_checkpoint_error(self, tmp_path, monkeypatch):
        import repro.resilience.checkpoint as checkpoint_module

        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path))
        path = manager.save(make_checkpoint(epoch=0))
        monkeypatch.setattr(checkpoint_module, "CHECKPOINT_VERSION", 99)
        with pytest.raises(CheckpointError, match="version"):
            manager.load(path)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"every_epochs": 0},
            {"keep": 0},
            {"max_rollbacks": -1},
        ],
    )
    def test_invalid_policies_are_rejected(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            CheckpointPolicy(directory=tmp_path, **kwargs)


class TestOptimizerStateDict:
    def _parameters(self, seed=0):
        rng = np.random.default_rng(seed)
        return [Parameter(rng.normal(size=(4, 3))), Parameter(rng.normal(size=3))]

    def _step(self, optimizer, parameters, seed):
        rng = np.random.default_rng(seed)
        for parameter in parameters:
            parameter.grad = rng.normal(size=parameter.data.shape)
        optimizer.step()

    def test_restored_optimizer_takes_bit_identical_steps(self):
        def make(parameters):
            return Adam(parameters, learning_rate=0.01)

        # Reference: 3 uninterrupted steps.
        reference = self._parameters()
        optimizer = make(reference)
        for seed in (1, 2, 3):
            self._step(optimizer, reference, seed)

        # Candidate: 2 steps, state round-trip into a fresh optimizer, 1 step.
        candidate = self._parameters()
        first = make(candidate)
        for seed in (1, 2):
            self._step(first, candidate, seed)
        second = make(candidate)
        second.load_state_dict(first.state_dict())
        self._step(second, candidate, 3)

        for expected, actual in zip(reference, candidate):
            np.testing.assert_array_equal(expected.data, actual.data)

    def test_kind_mismatch_is_rejected(self):
        adam = Adam(self._parameters(), learning_rate=0.1)
        foreign = dict(adam.state_dict(), kind="sgd")
        with pytest.raises(ValueError, match="'sgd', not 'adam'"):
            adam.load_state_dict(foreign)

    def test_size_mismatch_is_rejected(self):
        small = Adam(self._parameters(), learning_rate=0.1)
        rng = np.random.default_rng(0)
        big = Adam([Parameter(rng.normal(size=(9, 9)))], learning_rate=0.1)
        with pytest.raises(ValueError):
            small.load_state_dict(big.state_dict())


class TestDivergenceDetail:
    def test_healthy_epoch_is_none(self):
        assert divergence_detail(0.5, 0.4, True) is None

    def test_nan_train_loss_is_reported(self):
        detail = divergence_detail(float("nan"), 0.4, True)
        assert "train loss" in detail and "non-finite" in detail

    def test_nan_validation_only_counts_with_validation_set(self):
        # Empty validation partitions report NaN by convention — not a
        # divergence.
        assert divergence_detail(0.5, float("nan"), False) is None
        assert divergence_detail(0.5, float("nan"), True) is not None

    def test_infinite_train_loss_is_reported(self):
        assert divergence_detail(float("inf"), 0.4, False) is not None
