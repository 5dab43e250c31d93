"""Pooled multi-design training for the cross-design protocol.

The paper's headline claim is about *unseen* designs: a model trained on a
pool of PDN designs predicts worst-case noise on a design it never saw.  The
single-design :class:`~repro.core.training.NoiseModelTrainer` cannot express
that regime — it normalises one dataset against one distance tensor — so
:class:`MultiDesignTrainer` runs its engine over a *pool* of per-design
corpora, reusing its partition normaliser, batched loss evaluation and
early-stopping bookkeeping from :mod:`repro.core.training`:

* the feature normaliser is fitted once on the pooled training partitions
  (current/noise percentiles over every design, distance scale from the
  largest die in the pool), so one scale set serves every design;
* every minibatch is homogeneous in design — the CNN is fully convolutional,
  so designs of different tile shapes share one model, but each forward pass
  uses its design's own distance tensor;
* the per-epoch schedule interleaves the designs' minibatches in seeded
  shuffled order (the one part that is this trainer's own);
* the validation loss is the sample-weighted mean over every design's
  validation partition.

Training is deterministic under a fixed seed, exactly like the single-design
trainer (the determinism suite asserts it).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro import faults, obs
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.core.training import (
    LOSS_FUNCTIONS,
    TrainingHistory,
    _observe_epoch,
    evaluate_partition,
    normalized_partition,
    note_epoch,
    partition_rows,
)
from repro.features.extraction import FeatureNormalizer
from repro.nn import Adam
from repro.nn.tensor import record_graph
from repro.utils import Timer, get_logger
from repro.utils.random import ensure_rng
from repro.workloads.dataset import DatasetSplit, NoiseDataset, expansion_split

__all__ = ["MultiDesignTrainer", "PooledTrainingResult", "fit_pooled_normalizer"]

_LOG = get_logger("eval.training")


def fit_pooled_normalizer(
    datasets: Mapping[str, NoiseDataset],
    splits: Mapping[str, DatasetSplit],
    percentile: float = 99.0,
) -> FeatureNormalizer:
    """Fit one :class:`FeatureNormalizer` over a pool of design corpora.

    Scales are derived from the *training* partitions only (no leakage from
    validation/test vectors): the current and noise scales are pooled
    percentiles across every design, the distance scale is the largest
    distance value of any design in the pool — so the biggest die still
    normalises into the network's input range.

    Parameters
    ----------
    datasets:
        Per-design corpora (label -> dataset).
    splits:
        Per-design partitions; only ``train`` indices contribute.
    percentile:
        Percentile used for the current/noise scales.
    """
    currents: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    distance_scale = 0.0
    for label, dataset in datasets.items():
        distance_scale = max(distance_scale, float(np.max(dataset.distance)))
        for index in splits[label].train:
            sample = dataset.samples[int(index)]
            currents.append(sample.features.current_maps.ravel())
            targets.append(sample.target.ravel())
    pooled_currents = np.concatenate(currents) if currents else np.zeros(0)
    positive = pooled_currents[pooled_currents > 0]
    current_scale = float(np.percentile(positive, percentile)) if positive.size else 1.0
    pooled_noise = np.concatenate(targets) if targets else np.zeros(0)
    noise_scale = float(np.percentile(pooled_noise, percentile)) if pooled_noise.size else 1.0
    return FeatureNormalizer(
        current_scale=current_scale if current_scale > 0 else 1.0,
        distance_scale=distance_scale if distance_scale > 0 else 1.0,
        noise_scale=noise_scale if noise_scale > 0 else 1.0,
    )


@dataclass
class PooledTrainingResult:
    """Everything a cross-design evaluation needs after pooled training."""

    model: WorstCaseNoiseNet
    normalizer: FeatureNormalizer
    history: TrainingHistory
    splits: dict[str, DatasetSplit]

    @property
    def num_train_samples(self) -> int:
        """Total training-partition size across the design pool."""
        return sum(len(split.train) for split in self.splits.values())


class MultiDesignTrainer:
    """Trains one :class:`WorstCaseNoiseNet` on a pool of design corpora.

    Parameters
    ----------
    datasets:
        Per-design labelled corpora (label -> :class:`NoiseDataset`), all
        sharing one bump count (the distance tensor's channel dimension is
        baked into the model).  Tile shapes may differ — the network is
        fully convolutional, and minibatches never mix designs.
    splits:
        Optional per-design partitions; computed with the expansion
        strategy (per design, from ``training_config.seed``) when omitted.
    model_config / training_config:
        Hyper-parameters.
    train_fraction / validation_ratio:
        Expansion-split shares used when ``splits`` is omitted.
    """

    def __init__(
        self,
        datasets: Mapping[str, NoiseDataset],
        splits: Optional[Mapping[str, DatasetSplit]] = None,
        model_config: ModelConfig = ModelConfig(),
        training_config: TrainingConfig = TrainingConfig(),
        train_fraction: float = 0.7,
        validation_ratio: float = 0.3,
    ):
        if not datasets:
            raise ValueError("pooled training needs at least one design corpus")
        self.datasets = dict(datasets)
        bump_counts = {label: ds.num_bumps for label, ds in self.datasets.items()}
        if len(set(bump_counts.values())) != 1:
            raise ValueError(
                "all designs of a pool must share one bump count "
                f"(the model's distance channels); got {bump_counts}"
            )
        for label, dataset in self.datasets.items():
            if len(dataset) < 3:
                raise ValueError(
                    f"design {label!r} has {len(dataset)} samples; "
                    "the expansion split needs at least 3"
                )
        self.model_config = model_config
        self.training_config = training_config
        if splits is None:
            splits = {
                label: expansion_split(
                    dataset,
                    train_fraction=train_fraction,
                    validation_ratio=validation_ratio,
                    seed=training_config.seed,
                )
                for label, dataset in self.datasets.items()
            }
        self.splits = dict(splits)
        self.normalizer = fit_pooled_normalizer(self.datasets, self.splits)
        self.model = WorstCaseNoiseNet(
            num_bumps=next(iter(bump_counts.values())), config=model_config
        )

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def train(self) -> PooledTrainingResult:
        """Run the pooled training loop and return the best model.

        Mirrors the single-design batched engine: one autograd graph and one
        fused optimiser step per minibatch, seeded shuffle, validation under
        ``no_grad``, early stopping via the shared
        :func:`~repro.core.training.note_epoch` bookkeeping.
        """
        config = self.training_config
        rng = ensure_rng(config.seed)
        optimizer = Adam(
            self.model.parameters(),
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        loss_function = LOSS_FUNCTIONS[config.loss]

        labels = list(self.datasets)
        distances = {
            label: self.normalizer.normalize_distance(self.datasets[label].distance)
            for label in labels
        }
        train_parts = {
            label: normalized_partition(
                self.datasets[label], self.normalizer, self.splits[label].train
            )
            for label in labels
        }
        validation_parts = {
            label: normalized_partition(
                self.datasets[label], self.normalizer, self.splits[label].validation
            )
            for label in labels
        }
        num_train = sum(len(targets) for _, targets in train_parts.values())
        if num_train == 0:
            raise ValueError("the pooled training partition is empty")

        history = TrainingHistory()
        best_state = self.model.state_dict()
        epochs_without_improvement = 0
        timer = Timer()
        metrics = obs.metrics()

        with timer.measure():
            for epoch in range(config.epochs):
                epoch_started = time.perf_counter()
                # Per-design shuffled minibatches, then a shuffled interleave
                # across designs; both draws come from the one seeded stream,
                # so the schedule is a pure function of the seed.
                schedule: list[tuple[str, np.ndarray]] = []
                for label in labels:
                    count = len(train_parts[label][1])
                    order = np.arange(count)
                    if config.shuffle:
                        rng.shuffle(order)
                    for start in range(0, count, config.batch_size):
                        schedule.append((label, order[start:start + config.batch_size]))
                if config.shuffle:
                    rng.shuffle(schedule)

                epoch_loss = 0.0
                for step, (label, rows) in enumerate(schedule):
                    inputs, targets = train_parts[label]
                    optimizer.zero_grad()
                    with record_graph():
                        prediction = self.model.forward_batch(
                            partition_rows(inputs, rows), distances[label]
                        )
                        loss = loss_function(prediction, targets[rows])
                        loss.backward()
                    optimizer.step()
                    faults.active().on_train_step(epoch, step, self.model)
                    epoch_loss += loss.item() * len(rows)
                epoch_loss /= num_train
                _observe_epoch(
                    metrics, optimizer, num_train, time.perf_counter() - epoch_started
                )

                # Sample-weighted mean over the pool's validation partitions.
                validation_count = sum(len(t) for _, t in validation_parts.values())
                validation_loss = float("nan")
                if validation_count:
                    validation_loss = sum(
                        evaluate_partition(
                            self.model, loss_function, inputs, targets,
                            distances[label], config.batch_size,
                        )
                        for label, (inputs, targets) in validation_parts.items()
                        if len(targets)
                    ) / validation_count
                stop, best_state, epochs_without_improvement = note_epoch(
                    self.model,
                    config,
                    history,
                    epoch,
                    epoch_loss,
                    validation_loss,
                    best_state,
                    epochs_without_improvement,
                )
                if stop:
                    break

        self.model.load_state_dict(best_state)
        history.wall_clock_seconds = timer.total
        _LOG.info(
            "pooled training over %s: %d epochs, best val %.5f",
            labels,
            history.num_epochs,
            history.best_validation_loss,
        )
        return PooledTrainingResult(
            model=self.model,
            normalizer=self.normalizer,
            history=history,
            splits=self.splits,
        )
