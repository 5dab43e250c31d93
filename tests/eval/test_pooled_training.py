"""The pooled trainer against pinned golden numbers, and a pool of one.

``data/golden_pooled_training.npz`` was captured from
:class:`~repro.eval.MultiDesignTrainer` while it still ran its own copy of
the epoch loop, before the loop was shared with
:class:`~repro.core.training.NoiseModelTrainer`.  It holds one 3-epoch,
shuffled run over two unit-test designs that share one bump count but
differ in tile grid (8x8 and 6x6): the train/validation loss curves,
``best_epoch`` and the final weights.  It was written by running this file
as a script (``PYTHONPATH=src python tests/eval/test_pooled_training.py``)
on that code; rewriting it from later code defeats its purpose.

The pool-of-one test pins the rule that only a pool of more than one design
interleaves its minibatches: a one-design :class:`MultiDesignTrainer` trains
exactly like the design-less single-design trainer.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.eval import MultiDesignTrainer
from repro.faults import ScriptedFaults
from repro.pdn import small_test_design
from repro.workloads import build_dataset, expansion_split, generate_test_vectors
from repro.workloads.vectors import VectorConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_pooled_training.npz"

MODEL_CONFIG = ModelConfig(distance_kernels=4, fusion_kernels=4, prediction_kernels=6, seed=0)
TRAINING_CONFIG = TrainingConfig(
    epochs=3,
    batch_size=3,
    learning_rate=2e-3,
    early_stopping_patience=None,
    seed=0,
)


def _dataset(tile: int, num_loads: int, num_vectors: int, num_steps: int, seed: int):
    design = small_test_design(tile_rows=tile, tile_cols=tile, num_loads=num_loads, seed=0)
    traces = generate_test_vectors(
        design, num_vectors, VectorConfig(num_steps=num_steps, dt=1e-11), seed=seed
    )
    return build_dataset(design, traces, compression_rate=0.4)


def golden_pool():
    """Two cheap unit-test corpora: 8x8 and 6x6 tile grids, 9 bumps each."""
    return {
        "eight": _dataset(8, 48, 10, 80, seed=3),
        "six": _dataset(6, 24, 8, 60, seed=1),
    }


def train_golden_pool(datasets):
    splits = {label: expansion_split(dataset, seed=0) for label, dataset in datasets.items()}
    return MultiDesignTrainer(
        datasets, splits=splits, model_config=MODEL_CONFIG, training_config=TRAINING_CONFIG
    ).train()


def golden_arrays(result) -> dict:
    history = result.history
    arrays = {
        "train_loss": np.asarray(history.train_loss),
        "validation_loss": np.asarray(history.validation_loss),
        "best_epoch": np.asarray(history.best_epoch),
    }
    for name, value in result.model.state_dict().items():
        arrays[f"weights/{name}"] = value
    return arrays


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return dict(data)


@pytest.fixture(scope="module")
def pooled_result():
    return train_golden_pool(golden_pool())


class TestPooledGolden:
    def test_pool_has_two_tile_grids_and_one_bump_count(self):
        pool = golden_pool()
        assert len({dataset.tile_shape for dataset in pool.values()}) == 2
        assert len({dataset.num_bumps for dataset in pool.values()}) == 1

    def test_loss_curves_match_golden(self, pooled_result, golden):
        history = pooled_result.history
        assert history.num_epochs == 3
        np.testing.assert_allclose(
            history.train_loss, golden["train_loss"], rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            history.validation_loss, golden["validation_loss"], rtol=1e-12, atol=1e-12
        )
        assert history.best_epoch == int(golden["best_epoch"])

    def test_final_weights_match_golden(self, pooled_result, golden):
        state = pooled_result.model.state_dict()
        assert sorted(f"weights/{name}" for name in state) == sorted(
            name for name in golden if name.startswith("weights/")
        )
        for name, value in state.items():
            np.testing.assert_allclose(
                value, golden[f"weights/{name}"], rtol=1e-9, atol=1e-12
            )


class TestPoolOfOne:
    def test_pool_of_one_is_the_single_design_trainer(self, tiny_dataset, tiny_split):
        pooled = MultiDesignTrainer(
            {"x": tiny_dataset},
            splits={"x": tiny_split},
            model_config=MODEL_CONFIG,
            training_config=TRAINING_CONFIG,
        ).train()
        single = NoiseModelTrainer(
            tiny_dataset,
            design=None,
            split=tiny_split,
            model_config=MODEL_CONFIG,
            training_config=TRAINING_CONFIG,
        ).train()
        assert pooled.history.train_loss == single.history.train_loss
        assert pooled.history.validation_loss == single.history.validation_loss
        assert pooled.history.best_epoch == single.history.best_epoch
        single_state = single.model.state_dict()
        for name, value in pooled.model.state_dict().items():
            np.testing.assert_array_equal(value, single_state[name])


def test_pooled_trainer_calls_the_step_seam(tiny_dataset):
    scripted = ScriptedFaults()
    trainer = MultiDesignTrainer(
        {"a": tiny_dataset, "b": tiny_dataset},
        model_config=MODEL_CONFIG,
        training_config=TrainingConfig(epochs=1, batch_size=4),
    )
    with faults.injected(scripted):
        trainer.train()
    assert scripted.calls.get("training.step", 0) > 0


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    np.savez(GOLDEN_PATH, **golden_arrays(train_golden_pool(golden_pool())))
    print(f"wrote {GOLDEN_PATH}")

