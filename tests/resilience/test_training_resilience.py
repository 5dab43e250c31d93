"""Preemption-safe training: checkpoints, bit-identical resume, rollback."""

import numpy as np
import pytest

from repro import faults
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.faults import FaultInjector, ScriptedFaults, WorkerKilled
from repro.resilience import CheckpointManager, CheckpointPolicy, DivergenceError

MODEL_CONFIG = ModelConfig(
    distance_kernels=3, fusion_kernels=3, prediction_kernels=3, seed=0
)


def training_config(epochs: int) -> TrainingConfig:
    return TrainingConfig(
        epochs=epochs, batch_size=4, early_stopping_patience=None, seed=5
    )


def make_trainer(dataset, design, epochs, checkpoint_dir=None, **policy):
    checkpointing = None
    if checkpoint_dir is not None:
        checkpointing = CheckpointPolicy(directory=checkpoint_dir, **policy)
    return NoiseModelTrainer(
        dataset,
        design=design,
        model_config=MODEL_CONFIG,
        training_config=training_config(epochs),
        checkpointing=checkpointing,
    )


class PoisonWeightsOnce(FaultInjector):
    """Overwrites the model's first parameter with NaN at one (epoch, step).

    Models a numeric blow-up mid-training: the epoch's loss goes non-finite
    and the divergence guard must roll back.  Fires once, so the re-run after
    rollback is clean.
    """

    def __init__(self, epoch: int, step: int):
        self.epoch = epoch
        self.step = step
        self.fired = False

    def on_train_step(self, epoch, step, model):
        if not self.fired and (epoch, step) == (self.epoch, self.step):
            self.fired = True
            parameter = next(iter(model.parameters()))
            parameter.data = np.full_like(parameter.data, np.nan)


class TestCheckpointCadence:
    def test_checkpoints_written_at_policy_cadence(
        self, tmp_path, tiny_dataset, tiny_design, counter_value
    ):
        trainer = make_trainer(
            tiny_dataset, tiny_design, epochs=4, checkpoint_dir=tmp_path,
            every_epochs=2, keep=4,
        )
        trainer.train()
        manager = CheckpointManager(trainer.checkpointing)
        assert [epoch for epoch, _ in manager.available()] == [1, 3]
        assert counter_value("faults.checkpoints") == 2

    def test_no_checkpointing_without_a_policy(self, tiny_dataset, tiny_design, counter_value):
        make_trainer(tiny_dataset, tiny_design, epochs=2).train()
        assert counter_value("faults.checkpoints") == 0

    def test_keep_prunes_old_checkpoints(self, tmp_path, tiny_dataset, tiny_design):
        trainer = make_trainer(
            tiny_dataset, tiny_design, epochs=5, checkpoint_dir=tmp_path, keep=2
        )
        trainer.train()
        manager = CheckpointManager(trainer.checkpointing)
        assert [epoch for epoch, _ in manager.available()] == [3, 4]


class TestResume:
    def test_interrupt_resume_is_bit_identical(
        self, tmp_path, tiny_dataset, tiny_design, counter_value
    ):
        uninterrupted = make_trainer(tiny_dataset, tiny_design, epochs=6).train()

        # Kill the run mid-epoch-3 (ordinal 6 = epoch 3, step 0: two
        # minibatch steps per epoch with 7 train samples at batch size 4).
        scripted = ScriptedFaults().fail_at(
            "training.step", 6, WorkerKilled("preempted")
        )
        checkpoint_dir = tmp_path / "ckpts"
        with faults.injected(scripted):
            with pytest.raises(WorkerKilled):
                make_trainer(
                    tiny_dataset, tiny_design, epochs=6, checkpoint_dir=checkpoint_dir
                ).train()

        resumed = make_trainer(
            tiny_dataset, tiny_design, epochs=6, checkpoint_dir=checkpoint_dir
        ).train()

        # == on float lists: bit-identical, not merely close.
        assert resumed.history.train_loss == uninterrupted.history.train_loss
        assert resumed.history.validation_loss == uninterrupted.history.validation_loss
        assert resumed.history.best_epoch == uninterrupted.history.best_epoch
        for name, value in uninterrupted.model.state_dict().items():
            np.testing.assert_array_equal(value, resumed.model.state_dict()[name])
        assert counter_value("faults.resumes") == 1

    def test_resume_of_a_finished_run_changes_nothing(
        self, tmp_path, tiny_dataset, tiny_design
    ):
        first = make_trainer(
            tiny_dataset, tiny_design, epochs=3, checkpoint_dir=tmp_path
        ).train()
        again = make_trainer(
            tiny_dataset, tiny_design, epochs=3, checkpoint_dir=tmp_path
        ).train()
        assert again.history.train_loss == first.history.train_loss
        for name, value in first.model.state_dict().items():
            np.testing.assert_array_equal(value, again.model.state_dict()[name])

    def test_resume_extends_a_shorter_run(self, tmp_path, tiny_dataset, tiny_design):
        # Train 3 epochs, then ask for 6 from the same checkpoint directory:
        # the result must be bit-identical to training 6 epochs in one go.
        uninterrupted = make_trainer(tiny_dataset, tiny_design, epochs=6).train()
        make_trainer(
            tiny_dataset, tiny_design, epochs=3, checkpoint_dir=tmp_path
        ).train()
        extended = make_trainer(
            tiny_dataset, tiny_design, epochs=6, checkpoint_dir=tmp_path
        ).train()
        assert extended.history.train_loss == uninterrupted.history.train_loss
        assert (
            extended.history.validation_loss == uninterrupted.history.validation_loss
        )
        for name, value in uninterrupted.model.state_dict().items():
            np.testing.assert_array_equal(value, extended.model.state_dict()[name])

    def test_resume_survives_a_corrupt_latest_checkpoint(
        self, tmp_path, tiny_dataset, tiny_design, counter_value
    ):
        scripted = ScriptedFaults().fail_at(
            "training.step", 8, WorkerKilled("preempted")
        )
        with faults.injected(scripted):
            with pytest.raises(WorkerKilled):
                make_trainer(
                    tiny_dataset, tiny_design, epochs=6,
                    checkpoint_dir=tmp_path, keep=3,
                ).train()
        # Bit-rot the newest checkpoint; resume must fall back to the next.
        manager = CheckpointManager(CheckpointPolicy(directory=tmp_path))
        newest = manager.available()[-1][1]
        newest.write_bytes(b"rotten")
        resumed = make_trainer(
            tiny_dataset, tiny_design, epochs=6, checkpoint_dir=tmp_path, keep=3
        ).train()
        uninterrupted = make_trainer(tiny_dataset, tiny_design, epochs=6).train()
        assert resumed.history.train_loss == uninterrupted.history.train_loss
        assert counter_value("faults.corrupt_checkpoints") == 1


class TestDivergenceGuard:
    def test_nan_epoch_rolls_back_and_recovers(
        self, tmp_path, tiny_dataset, tiny_design, counter_value
    ):
        uninterrupted = make_trainer(tiny_dataset, tiny_design, epochs=4).train()
        injector = PoisonWeightsOnce(epoch=2, step=0)
        with faults.injected(injector):
            recovered = make_trainer(
                tiny_dataset, tiny_design, epochs=4, checkpoint_dir=tmp_path
            ).train()
        assert injector.fired
        assert counter_value("faults.rollbacks") == 1
        # The rollback restored model + optimiser + RNG from the epoch-1
        # checkpoint, so the re-run is bit-identical to never diverging.
        assert recovered.history.train_loss == uninterrupted.history.train_loss
        assert all(np.isfinite(recovered.history.train_loss))
        for name, value in uninterrupted.model.state_dict().items():
            np.testing.assert_array_equal(value, recovered.model.state_dict()[name])

    def test_rollback_budget_exhaustion_raises_typed_error(
        self, tmp_path, tiny_dataset, tiny_design
    ):
        injector = PoisonWeightsOnce(epoch=1, step=0)
        with faults.injected(injector):
            with pytest.raises(DivergenceError) as excinfo:
                make_trainer(
                    tiny_dataset, tiny_design, epochs=4,
                    checkpoint_dir=tmp_path, max_rollbacks=0,
                ).train()
        assert excinfo.value.epoch == 1
        assert "non-finite" in excinfo.value.detail

    def test_divergence_without_guard_still_finishes(self, tiny_dataset, tiny_design):
        # Without a checkpoint policy there is no guard: the run keeps the
        # historical behaviour (NaN losses recorded, no exception).
        injector = PoisonWeightsOnce(epoch=1, step=0)
        with faults.injected(injector):
            result = make_trainer(tiny_dataset, tiny_design, epochs=3).train()
        assert any(not np.isfinite(loss) for loss in result.history.train_loss)


class TestPooledTrainingSeam:
    def test_pooled_trainer_calls_the_step_seam(self, tiny_dataset):
        from repro.eval.training import MultiDesignTrainer

        scripted = ScriptedFaults()
        trainer = MultiDesignTrainer(
            {"a": tiny_dataset, "b": tiny_dataset},
            model_config=MODEL_CONFIG,
            training_config=training_config(epochs=1),
        )
        with faults.injected(scripted):
            trainer.train()
        assert scripted.calls.get("training.step", 0) > 0
