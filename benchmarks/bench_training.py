"""Training-engine wall clock: the batched minibatch-autograd trainer.

Sec. 3.4.4 training is the stage the paper's Table 2 runtime comparison
amortises over.  The engine normalises partitions once into stacked tensors,
builds one autograd graph per minibatch (tape-recorded backward, pooled
im2col workspaces) and takes a fused flat-buffer Adam step.  This benchmark
times a full training run at the quick-preset and paper-style minibatch sizes
(best of ``ROUNDS``) and appends the absolute ``batched_s`` per batch size to
the repo-root ``BENCH_training.json`` trajectory; records also land in
``benchmarks/results/training.{json,csv}``.  The engine's loss curves are
pinned by ``tests/core/data/golden_training.npz`` in the tier-1 suite.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from common import append_trajectory, save_records
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.datagen import git_revision
from repro.io import ExperimentRecord
from repro.pdn import small_test_design
from repro.utils import Timer
from repro.workloads import build_dataset, expansion_split, generate_test_vectors
from repro.workloads.vectors import VectorConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The quick-preset default and a paper-style minibatch size.
BATCH_SIZES = (4, 8)

EPOCHS = 8
ROUNDS = 3
LEARNING_RATE = 2e-3

_MODEL_CONFIG = ModelConfig(seed=0)


def _workload():
    """The benchmark dataset: a scaled-down design, quick-preset style.

    Scaled until a full training run takes fractions of a second (same
    philosophy as ``bench_datagen.py``'s ``scale=0.08`` corpus).
    """
    design = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    traces = generate_test_vectors(
        design, 48, VectorConfig(num_steps=20, dt=1e-11), seed=3
    )
    dataset = build_dataset(design, traces, compression_rate=0.3, sim_batch_size=16)
    split = expansion_split(dataset, seed=0)
    return design, dataset, split


def _train(design, dataset, split, batch_size: int):
    trainer = NoiseModelTrainer(
        dataset,
        design=design,
        split=split,
        model_config=_MODEL_CONFIG,
        training_config=TrainingConfig(
            epochs=EPOCHS,
            batch_size=batch_size,
            learning_rate=LEARNING_RATE,
            early_stopping_patience=None,
            seed=0,
        ),
    )
    return trainer.train()


def _best_of(runs, body):
    """Best-of-N wall time (standard noise suppression for benchmarks)."""
    times, result = [], None
    for _ in range(runs):
        timer = Timer()
        with timer.measure():
            result = body()
        times.append(timer.last)
    return min(times), result


#: Header seeding the repo-root ``BENCH_training.json`` trajectory file.
_TRAJECTORY_HEADER = {"metric": "batched training engine wall clock per run"}


def test_training_wall_clock(benchmark):
    """Best-of-N wall time of a full batched training run per batch size."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    design, dataset, split = _workload()

    records = []
    results = {}
    for batch_size in BATCH_SIZES:
        seconds, result = _best_of(
            ROUNDS, lambda: _train(design, dataset, split, batch_size)
        )
        assert np.all(np.isfinite(result.history.train_loss))
        results[str(batch_size)] = {"batched_s": seconds}
        records.append(
            ExperimentRecord(
                "training",
                f"batched_bs{batch_size}",
                {"total_s": seconds, "epochs": EPOCHS},
            )
        )

    save_records(records, "training", "Batched training engine wall clock")
    append_trajectory(
        "training",
        {
            "timestamp": time.time(),
            "git_rev": git_revision(REPO_ROOT),
            "epochs": EPOCHS,
            # Training always runs at float64 (the engine enforces it); the
            # column exists so the trajectory stays comparable if that ever
            # changes.
            "dtype": "float64",
            "results": results,
        },
        header=_TRAJECTORY_HEADER,
    )
