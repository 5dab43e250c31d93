"""Training-engine wall clock: the batched minibatch-autograd trainer.

Sec. 3.4.4 training is the stage the paper's Table 2 runtime comparison
amortises over.  The engine normalises partitions once into stacked tensors,
builds one autograd graph per minibatch (a depth-first backward walk, pooled
im2col workspaces) and takes a fused flat-buffer Adam step.  This benchmark
times a full training run at the quick-preset and paper-style minibatch sizes
(best of ``ROUNDS``) on 8 x 8 tiles, and the seconds per optimizer step on
D1@0.5 (25 x 25 tiles, 8 vectors x ~60 stamps a minibatch — the row whose
fusion subnet runs several stamp blocks per step), plus the tracemalloc peak
of one such step.  It appends the absolute ``batched_s`` per batch size and
the D1@0.5 ``s_per_step`` and ``step_peak_mb`` to the repo-root
``BENCH_training.json`` trajectory; records also land in
``benchmarks/results/training.{json,csv}``.  The engine's loss curves are
pinned by ``tests/core/data/golden_training.npz`` in the tier-1 suite.
"""

from __future__ import annotations

import time
import tracemalloc
from pathlib import Path

import numpy as np

from common import append_trajectory, best_of, save_records
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.datagen import git_revision
from repro.io import ExperimentRecord
from repro.pdn import design_from_name, small_test_design
from repro.workloads import DatasetSplit, build_dataset, expansion_split, generate_test_vectors
from repro.workloads.vectors import VectorConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The quick-preset default and a paper-style minibatch size.
BATCH_SIZES = (4, 8)

EPOCHS = 8
ROUNDS = 3
LEARNING_RATE = 2e-3

_MODEL_CONFIG = ModelConfig(seed=0)

#: The screening-scale row: 32 training vectors of 200 steps, compressed to
#: ~60 stamps each, in minibatches of 8 — four optimizer steps an epoch.
D1_DESIGN = "D1@0.5"
D1_TRAIN_VECTORS = 32
D1_BATCH = 8


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


def _d1_workload():
    """D1@0.5 vectors and a fixed split: 32 train, 4 validation, 4 test."""
    design = design_from_name(D1_DESIGN)
    total = D1_TRAIN_VECTORS + 8
    traces = generate_test_vectors(design, total, VectorConfig(num_steps=200), seed=1)
    dataset = build_dataset(design, traces, sim_batch_size=total)
    order = np.arange(total)
    split = DatasetSplit(
        train=order[:D1_TRAIN_VECTORS],
        validation=order[D1_TRAIN_VECTORS:-4],
        test=order[-4:],
    )
    return design, dataset, split


def _step_peak_mb(design, dataset, split) -> float:
    """The largest tracemalloc peak of one optimizer step of a 1-epoch run, in MB.

    Each peak is counted above what was live when its step began, so it is
    the step's own working set: whatever the forward keeps for backward,
    plus the backward's and the optimizer's transients.
    """
    peaks = []

    class PeakTracingTrainer(NoiseModelTrainer):
        def _train_step(self, *args):
            tracemalloc.reset_peak()
            live, _ = tracemalloc.get_traced_memory()
            loss = super()._train_step(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - live)
            return loss

    tracemalloc.start()
    try:
        _train(design, dataset, split, D1_BATCH, epochs=1, trainer=PeakTracingTrainer)
    finally:
        tracemalloc.stop()
    return max(peaks) / 2**20


def _train(
    design, dataset, split, batch_size: int, epochs: int = EPOCHS, trainer=NoiseModelTrainer
):
    trainer = trainer(
        dataset,
        design=design,
        split=split,
        model_config=_MODEL_CONFIG,
        training_config=TrainingConfig(
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=LEARNING_RATE,
            early_stopping_patience=None,
            seed=0,
        ),
    )
    return trainer.train()


#: Header seeding the repo-root ``BENCH_training.json`` trajectory file.
_TRAJECTORY_HEADER = {
    "metric": "batched training engine wall clock",
    "rows": {
        "4, 8": "batched_s: best-of-3 seconds per 8-epoch run at that batch size, 8 x 8 tiles",
        "D1@0.5_bs8": "s_per_step: best-of-3 seconds per optimizer step of a 1-epoch run "
        "(its validation pass included), 25 x 25 tiles, 8 vectors x ~60 stamps a minibatch; "
        "step_peak_mb: the largest tracemalloc peak of one of its optimizer steps, above "
        "what was live when the step began",
    },
}


def test_training_wall_clock(benchmark):
    """Best-of-N wall time of a full batched training run per batch size."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    design, dataset, split = _workload()

    records = []
    results = {}
    for batch_size in BATCH_SIZES:
        seconds, result = best_of(
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

    design, dataset, split = _d1_workload()
    steps = -(-D1_TRAIN_VECTORS // D1_BATCH)
    seconds, result = best_of(ROUNDS, lambda: _train(design, dataset, split, D1_BATCH, epochs=1))
    assert np.all(np.isfinite(result.history.train_loss))
    stamps = float(np.mean([dataset.samples[int(i)].features.num_steps for i in split.train]))
    step_peak_mb = _step_peak_mb(design, dataset, split)
    results["D1@0.5_bs8"] = {
        "s_per_step": seconds / steps,
        "step_peak_mb": step_peak_mb,
        "steps": steps,
        "mean_stamps": stamps,
    }
    records.append(
        ExperimentRecord(
            "training",
            "d1_bs8",
            {"s_per_step": seconds / steps, "step_peak_mb": step_peak_mb, "steps": steps},
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
