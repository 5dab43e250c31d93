"""Pooled multi-design training for the cross-design protocol.

The paper's headline claim is about *unseen* designs: a model trained on a
pool of PDN designs predicts worst-case noise on a design it never saw.
:class:`MultiDesignTrainer` is the single-design
:class:`~repro.core.training.NoiseModelTrainer` with a pool of many corpora
instead of one — it only builds the pool, and the one epoch loop of
:mod:`repro.core.training` trains on it:

* the feature normaliser is fitted once on the pooled training partitions
  (:func:`~repro.core.training.fit_pooled_normalizer`: current/noise
  percentiles over every design, distance scale from the largest die in the
  pool), so one scale set serves every design;
* every minibatch is homogeneous in design — the CNN is fully convolutional,
  so designs of different tile shapes share one model, but each forward pass
  uses its design's own distance tensor;
* with more than one design, the per-epoch schedule interleaves the designs'
  minibatches in seeded shuffled order; a pool of one trains exactly like
  the single-design trainer;
* the validation loss is the sample-weighted mean over every design's
  validation partition.

Training is deterministic under a fixed seed (the determinism suite asserts
it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.core.training import NoiseModelTrainer, TrainingHistory, fit_pooled_normalizer
from repro.features.extraction import FeatureNormalizer
from repro.utils import get_logger
from repro.workloads.dataset import DatasetSplit, NoiseDataset, expansion_split

__all__ = ["MultiDesignTrainer", "PooledTrainingResult", "fit_pooled_normalizer"]

_LOG = get_logger("eval.training")


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


class MultiDesignTrainer(NoiseModelTrainer):
    """Trains one :class:`WorstCaseNoiseNet` on a pool of design corpora.

    Parameters
    ----------
    datasets:
        Per-design labelled corpora (label -> :class:`NoiseDataset`), all
        sharing one bump count (the model's distance channels); tile shapes
        may differ.
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

    def train(self) -> PooledTrainingResult:
        """Run the shared epoch loop over the pool and return the best model."""
        history = self._run_epochs()
        _LOG.info(
            "pooled training over %s: %d epochs, best val %.5f",
            list(self.datasets),
            history.num_epochs,
            history.best_validation_loss,
        )
        return PooledTrainingResult(
            model=self.model,
            normalizer=self.normalizer,
            history=history,
            splits=self.splits,
        )
