"""Training engine for the worst-case noise prediction model (Sec. 3.4.4).

There is one epoch loop in the repository,
:meth:`NoiseModelTrainer._run_epochs`.  It trains on a *pool* of design
corpora, ``{label: (train part, validation part, normalised distance)}``:
:class:`NoiseModelTrainer` holds a pool of one design, and its cross-design
subclass :class:`~repro.eval.training.MultiDesignTrainer` a pool of many.
The constructor fits the feature normaliser on the training partitions;
the loop optimises the model with Adam on the L1 loss of the normalised
noise maps.  Early stopping tracks the validation loss and the best-epoch
weights are restored at the end.

The train and validation partitions are normalised *once* into stacked
``(N, T, m, n)`` current tensors and ``(N, m, n)`` target stacks (per-sample
arrays when stamp counts are ragged), and every minibatch runs through
:meth:`WorstCaseNoiseNet.forward_batch` as a single autograd graph per step:
one batched-GEMM convolution pass, one backward, one fused optimiser step.
Minibatches never mix designs, so each forward pass uses its own design's
distance tensor.  Each epoch shuffles every design's rows and cuts them into
minibatches; only a pool of more than one design then interleaves those
minibatches in seeded shuffled order, so a pool of one makes exactly the
single-design draws.  Each step's graph is dropped before the next
forward pass starts (:meth:`NoiseModelTrainer._train_step` returns only the
loss value), and validation runs through the same batched path under
``no_grad``.
``tests/core/data/golden_training.npz`` pins the loop's curves and final
weights on one design, ``tests/eval/data/golden_pooled_training.npz`` on two.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Union

import numpy as np

from repro import faults, obs
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.features.extraction import FeatureNormalizer, fit_normalizer
from repro.nn import Adam, l1_loss, no_grad
from repro.pdn.designs import Design
from repro.utils import get_logger
from repro.utils.random import ensure_rng
from repro.workloads.dataset import DatasetSplit, NoiseDataset, expansion_split

__all__ = ["TrainingHistory", "TrainingResult", "NoiseModelTrainer", "fit_pooled_normalizer"]

_LOG = get_logger("core.training")

#: Smallest drop of the monitored loss that early stopping counts as an
#: improvement.
EARLY_STOPPING_MIN_DELTA = 1e-5

#: Epochs between two progress log lines.
_LOG_EVERY = 10

#: A normalised partition's current maps: one dense ``(N, T, m, n)`` stack
#: when every sample retains the same number of stamps, else one ``(T_i, m,
#: n)`` array per sample (ragged Algorithm-1 compression).
_PartitionInputs = Union[np.ndarray, List[np.ndarray]]

#: One normalised partition: ``(inputs, targets)``.
_Part = tuple[_PartitionInputs, np.ndarray]

#: What the epoch loop trains on: ``{label: (train part, validation part,
#: normalised distance)}``, one entry per design.
_Pool = Mapping[str, tuple[_Part, _Part, np.ndarray]]


def _gradient_norm(parameters) -> float:
    """Global L2 norm over every parameter gradient."""
    total = 0.0
    for parameter in parameters:
        flat = parameter.grad.reshape(-1)
        total += float(np.dot(flat, flat))
    return float(np.sqrt(total))


def _observe_epoch(metrics, optimizer, num_examples: int, step_seconds: float) -> None:
    """Record one epoch's telemetry: step time, throughput, gradient norm.

    The gradient norm is read from the optimiser's parameters as left by the
    epoch's final backward pass — a cheap per-epoch health signal; it is only
    computed when the registry is live.
    """
    metrics.histogram("training.step_seconds").observe(max(step_seconds, 0.0))
    if step_seconds > 0.0:
        metrics.gauge("training.examples_per_sec").set(num_examples / step_seconds)
    if metrics.enabled:
        metrics.gauge("training.grad_norm").set(_gradient_norm(optimizer.parameters))


def normalized_partition(
    dataset: NoiseDataset, normalizer: FeatureNormalizer, indices: np.ndarray
) -> _Part:
    """Normalise one partition of ``dataset`` once, up front.

    Returns the stacked normalised current maps (dense ``(N, T, m, n)`` when
    stamp counts are uniform, else a per-sample list) and the ``(N, m, n)``
    normalised target stack.  Training pays this cost once per run instead of
    once per sample per epoch.
    """
    samples = [dataset.samples[int(index)] for index in indices]
    if not samples:
        empty = np.zeros((0,) + dataset.tile_shape)
        return empty, empty
    currents = [
        normalizer.normalize_currents(sample.features.current_maps) for sample in samples
    ]
    targets = np.stack([normalizer.normalize_noise(sample.target) for sample in samples])
    if len({maps.shape[0] for maps in currents}) == 1:
        return np.stack(currents), targets
    return currents, targets


def partition_rows(inputs: _PartitionInputs, rows: np.ndarray) -> _PartitionInputs:
    """Select minibatch rows from a dense or ragged partition."""
    if isinstance(inputs, np.ndarray):
        return inputs[rows]
    return [inputs[int(row)] for row in rows]


def _epoch_schedule(pool: _Pool, config: TrainingConfig, rng) -> list[tuple[str, np.ndarray]]:
    """One epoch's minibatches as ``(label, rows)`` pairs, each within one design.

    Every design's rows are shuffled and cut into minibatches.  A pool of
    more than one design then interleaves those minibatches in shuffled
    order; a pool of one makes no interleave draw, so its schedule is the
    single-design one.  Every draw comes from the one seeded stream, so the
    schedule is a pure function of the seed.
    """
    schedule: list[tuple[str, np.ndarray]] = []
    for label, ((_, targets), _, _) in pool.items():
        order = np.arange(len(targets))
        rng.shuffle(order)
        for start in range(0, len(order), config.batch_size):
            schedule.append((label, order[start:start + config.batch_size]))
    if len(pool) > 1:
        rng.shuffle(schedule)
    return schedule


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


def evaluate_partition(
    model: WorstCaseNoiseNet,
    inputs: _PartitionInputs,
    targets: np.ndarray,
    normalized_distance: np.ndarray,
    batch_size: int,
) -> float:
    """Summed per-sample L1 loss over a pre-normalised partition, under ``no_grad``.

    The trainer sums this over the pool's designs, then divides by the
    sample count.  Inference holds no autograd buffers, so evaluation runs
    minibatches of at least 32 regardless of the training ``batch_size``.
    """
    count = len(targets)
    batch_size = max(batch_size, 32)
    total = 0.0
    with no_grad():
        # Weights are fixed during evaluation, so the distance subnet runs
        # once for all minibatches.
        reduced_distance = model.reduce_distance(normalized_distance)
        for start in range(0, count, batch_size):
            stop = min(start + batch_size, count)
            prediction = model.forward_batch(
                inputs[start:stop],
                normalized_distance,
                reduced_distance=reduced_distance,
            )
            total += l1_loss(prediction, targets[start:stop]).item() * (stop - start)
    return total


@dataclass
class TrainingHistory:
    """Per-epoch loss curves and the early-stopping bookmark."""

    train_loss: list[float] = field(default_factory=list)
    validation_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    best_validation_loss: float = float("inf")
    wall_clock_seconds: float = 0.0

    @property
    def num_epochs(self) -> int:
        """Number of completed epochs."""
        return len(self.train_loss)


@dataclass
class TrainingResult:
    """Everything the inference side needs after training."""

    model: WorstCaseNoiseNet
    normalizer: FeatureNormalizer
    history: TrainingHistory
    split: DatasetSplit


class NoiseModelTrainer:
    """Trains a :class:`WorstCaseNoiseNet` on a labelled dataset.

    Parameters
    ----------
    dataset:
        Labelled dataset (current maps, distance tensor, ground-truth maps).
    design:
        The design the dataset was built from (provides Vdd and die size for
        normalisation).  Optional — when omitted, normalisation scales are
        derived from the dataset alone.
    split:
        Train/validation/test indices; computed with the expansion strategy
        when omitted.
    model_config / training_config:
        Hyper-parameters.
    """

    def __init__(
        self,
        dataset: NoiseDataset,
        design: Optional[Design] = None,
        split: Optional[DatasetSplit] = None,
        model_config: ModelConfig = ModelConfig(),
        training_config: TrainingConfig = TrainingConfig(),
    ):
        if len(dataset) < 3:
            raise ValueError("training requires at least 3 samples")
        self.dataset = dataset
        self.design = design
        self.model_config = model_config
        self.training_config = training_config
        self.split = split if split is not None else expansion_split(
            dataset, seed=training_config.seed
        )
        # The epoch loop trains on a pool; a single design is a pool of one.
        self.datasets = {dataset.design_name: dataset}
        self.splits = {dataset.design_name: self.split}
        self.normalizer = self._fit_normalizer()
        self.model = WorstCaseNoiseNet(num_bumps=dataset.num_bumps, config=model_config)

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    def _fit_normalizer(self) -> FeatureNormalizer:
        """Fit feature scales on the training partition only (no leakage)."""
        # Without a design, the scales are the pooled ones of a pool of one.
        if self.design is None:
            return fit_pooled_normalizer(self.datasets, self.splits)
        train_samples = [self.dataset.samples[i] for i in self.split.train]
        current_stack = np.concatenate(
            [sample.features.current_maps for sample in train_samples], axis=0
        )
        noise_stack = np.stack([sample.target for sample in train_samples])
        return fit_normalizer(self.design, current_stack, noise_stack)

    # ------------------------------------------------------------------ #
    # loss evaluation
    # ------------------------------------------------------------------ #

    def _evaluate_batched(self, pool: _Pool) -> float:
        """Sample-weighted mean validation loss over the pool (``nan`` when empty).

        For one design this is the partition's mean loss.
        """
        count = sum(len(targets) for _, (_, targets), _ in pool.values())
        if count == 0:
            return float("nan")
        total = sum(
            evaluate_partition(
                self.model, inputs, targets, distance,
                self.training_config.batch_size,
            )
            for _, (inputs, targets), distance in pool.values()
            if len(targets)
        )
        return total / count

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def train(self) -> TrainingResult:
        """Run the full training loop and return the best model."""
        history = self._run_epochs()
        return TrainingResult(
            model=self.model,
            normalizer=self.normalizer,
            history=history,
            split=self.split,
        )

    def _train_step(
        self, optimizer: Adam, inputs: _PartitionInputs, targets: np.ndarray, distance: np.ndarray
    ) -> float:
        """One Adam step on one minibatch; returns the minibatch's mean L1 loss.

        Only the loss value leaves this method, so the step's autograd graph
        (every activation of the forward pass) is freed before the next
        step's forward pass allocates its own.
        """
        optimizer.zero_grad()
        loss = l1_loss(self.model.forward_batch(inputs, distance), targets)
        loss.backward()
        optimizer.step()
        return loss.item()

    def _run_epochs(self) -> TrainingHistory:
        """The epoch loop over :attr:`datasets`; leaves the best weights loaded.

        Training runs in float64 only — gradcheck coverage, optimizer state
        and convergence baselines all assume full precision; float32 is an
        inference-only precision (cast after training via
        ``model.astype("float32")`` or serve with
        ``NoisePredictor(dtype="float32")``).
        """
        for name, parameter in self.model.named_parameters():
            if parameter.data.dtype != np.float64:
                raise TypeError(
                    f"training requires float64 parameters, but {name!r} is "
                    f"{parameter.data.dtype.name}; cast the model back with "
                    "model.astype('float64') — float32 is an inference-only dtype"
                )
        config = self.training_config
        rng = ensure_rng(config.seed)
        optimizer = Adam(self.model.parameters(), learning_rate=config.learning_rate)
        pool = {
            label: (
                normalized_partition(dataset, self.normalizer, self.splits[label].train),
                normalized_partition(dataset, self.normalizer, self.splits[label].validation),
                self.normalizer.normalize_distance(dataset.distance),
            )
            for label, dataset in self.datasets.items()
        }
        num_train = sum(len(targets) for (_, targets), _, _ in pool.values())
        if num_train == 0:
            raise ValueError("the training partition is empty")

        history = TrainingHistory()
        best_state = self.model.state_dict()
        epochs_without_improvement = 0

        metrics = obs.metrics()
        started = time.perf_counter()
        for epoch in range(config.epochs):
            schedule = _epoch_schedule(pool, config, rng)
            epoch_loss = 0.0
            epoch_started = time.perf_counter()
            for step, (label, rows) in enumerate(schedule):
                (inputs, targets), _, distance = pool[label]
                loss = self._train_step(
                    optimizer, partition_rows(inputs, rows), targets[rows], distance
                )
                faults.active().on_train_step(epoch, step, self.model)
                epoch_loss += loss * len(rows)
            epoch_loss /= num_train
            _observe_epoch(
                metrics, optimizer, num_train, time.perf_counter() - epoch_started
            )

            validation_loss = self._evaluate_batched(pool)
            history.train_loss.append(epoch_loss)
            history.validation_loss.append(validation_loss)
            # Early stopping monitors the validation loss; the training loss
            # stands in when that is not finite (no validation partition).
            monitored = validation_loss if np.isfinite(validation_loss) else epoch_loss
            if monitored < history.best_validation_loss - EARLY_STOPPING_MIN_DELTA:
                history.best_validation_loss = monitored
                history.best_epoch = epoch
                best_state = self.model.state_dict()
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
            if epoch % _LOG_EVERY == 0:
                _LOG.info(
                    "epoch %d: train %.5f, val %.5f", epoch, epoch_loss, validation_loss
                )
            if (
                config.early_stopping_patience is not None
                and epochs_without_improvement >= config.early_stopping_patience
            ):
                _LOG.info("early stopping at epoch %d", epoch)
                break

        self.model.load_state_dict(best_state)
        history.wall_clock_seconds = time.perf_counter() - started
        return history

