"""Training engine for the worst-case noise prediction model (Sec. 3.4.4).

The trainer consumes a labelled :class:`~repro.workloads.dataset.NoiseDataset`
plus a train/validation/test split (usually produced by the training-set
expansion strategy), fits the feature normaliser on the training partition,
and optimises the model with Adam on the L1 loss of the normalised noise
maps.  Early stopping tracks the validation loss and the best-epoch weights
are restored at the end.

The train and validation partitions are normalised *once* into stacked
``(N, T, m, n)`` current tensors and ``(N, m, n)`` target stacks (per-sample
arrays when stamp counts are ragged), and every minibatch runs through
:meth:`WorstCaseNoiseNet.forward_batch` as a single autograd graph per step:
one batched-GEMM convolution pass, one backward, one fused optimiser step.
Graphs are built inside :class:`~repro.nn.tensor.record_graph` so
backpropagation replays the creation-order tape instead of re-deriving the
traversal order each step, and validation runs through the same batched path
under ``no_grad``.  The pooled cross-design trainer of
:mod:`repro.eval.training` reuses :func:`normalized_partition`,
:func:`evaluate_partition` and :func:`note_epoch`, so there is one training
engine in the repository.  ``tests/core/data/golden_training.npz`` pins its
loss curves and final weights on the tiny test fixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro import faults, obs
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.model import WorstCaseNoiseNet
from repro.features.extraction import FeatureNormalizer, fit_normalizer
from repro.nn import Adam, huber_loss, l1_loss, mse_loss, no_grad
from repro.nn.tensor import record_graph
from repro.pdn.designs import Design
from repro.resilience.checkpoint import (
    CheckpointPolicy,
    TrainingGuard,
    divergence_detail,
)
from repro.utils import Timer, get_logger
from repro.utils.random import ensure_rng
from repro.workloads.dataset import DatasetSplit, NoiseDataset, expansion_split

__all__ = ["TrainingHistory", "TrainingResult", "NoiseModelTrainer"]

_LOG = get_logger("core.training")

#: Loss name -> callable table shared by every training engine (including the
#: pooled cross-design trainer in :mod:`repro.eval`).
LOSS_FUNCTIONS = {"l1": l1_loss, "mse": mse_loss, "huber": huber_loss}

#: A normalised partition's current maps: one dense ``(N, T, m, n)`` stack
#: when every sample retains the same number of stamps, else one ``(T_i, m,
#: n)`` array per sample (ragged Algorithm-1 compression).
_PartitionInputs = Union[np.ndarray, List[np.ndarray]]


def _gradient_norm(parameters) -> float:
    """Global L2 norm over every parameter gradient (missing grads skipped)."""
    total = 0.0
    for parameter in parameters:
        if parameter.grad is not None:
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
) -> tuple[_PartitionInputs, np.ndarray]:
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


def evaluate_partition(
    model: WorstCaseNoiseNet,
    loss_function,
    inputs: _PartitionInputs,
    targets: np.ndarray,
    normalized_distance: np.ndarray,
    batch_size: int,
) -> float:
    """Summed per-sample loss over a pre-normalised partition, under ``no_grad``.

    Callers divide by the sample count (the pooled trainer sums over designs
    first).  Inference holds no autograd buffers, so evaluation runs
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
            total += loss_function(prediction, targets[start:stop]).item() * (stop - start)
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
    checkpointing:
        Optional :class:`~repro.resilience.checkpoint.CheckpointPolicy`
        enabling preemption-safe training: periodic atomic checkpoints
        (model + optimiser + RNG + history), bit-identical resume from the
        latest one, and divergence rollback.  Deliberately *not* a
        ``TrainingConfig`` field — it changes how a run survives, never
        what it computes, so config hashes stay stable.
    """

    def __init__(
        self,
        dataset: NoiseDataset,
        design: Optional[Design] = None,
        split: Optional[DatasetSplit] = None,
        model_config: ModelConfig = ModelConfig(),
        training_config: TrainingConfig = TrainingConfig(),
        checkpointing: Optional[CheckpointPolicy] = None,
    ):
        if len(dataset) < 3:
            raise ValueError("training requires at least 3 samples")
        self.dataset = dataset
        self.design = design
        self.model_config = model_config
        self.training_config = training_config
        self.checkpointing = checkpointing
        self.split = split if split is not None else expansion_split(
            dataset, seed=training_config.seed
        )
        self.normalizer = self._fit_normalizer()
        self.model = WorstCaseNoiseNet(num_bumps=dataset.num_bumps, config=model_config)

    # ------------------------------------------------------------------ #
    # setup helpers
    # ------------------------------------------------------------------ #

    def _fit_normalizer(self) -> FeatureNormalizer:
        """Fit feature scales on the training partition only (no leakage)."""
        train_samples = [self.dataset.samples[i] for i in self.split.train]
        current_stack = np.concatenate(
            [sample.features.current_maps for sample in train_samples], axis=0
        )
        noise_stack = np.stack([sample.target for sample in train_samples])
        if self.design is not None:
            return fit_normalizer(self.design, current_stack, noise_stack)
        diagonal = float(np.max(self.dataset.distance)) or 1.0
        positive = current_stack[current_stack > 0]
        return FeatureNormalizer(
            current_scale=float(np.percentile(positive, 99.0)) if positive.size else 1.0,
            distance_scale=diagonal,
            noise_scale=float(np.percentile(noise_stack, 99.0)) or 1.0,
        )

    # ------------------------------------------------------------------ #
    # loss evaluation
    # ------------------------------------------------------------------ #

    def _evaluate_batched(
        self,
        inputs: _PartitionInputs,
        targets: np.ndarray,
        normalized_distance: np.ndarray,
    ) -> float:
        """Mean loss over a pre-normalised partition via the batched path."""
        if len(targets) == 0:
            return float("nan")
        total = evaluate_partition(
            self.model,
            LOSS_FUNCTIONS[self.training_config.loss],
            inputs,
            targets,
            normalized_distance,
            self.training_config.batch_size,
        )
        return total / len(targets)

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #

    def train(self) -> TrainingResult:
        """Run the full training loop and return the best model.

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
        optimizer = Adam(
            self.model.parameters(),
            learning_rate=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        loss_function = LOSS_FUNCTIONS[config.loss]
        normalized_distance = self.normalizer.normalize_distance(self.dataset.distance)
        train_inputs, train_targets = normalized_partition(
            self.dataset, self.normalizer, self.split.train
        )
        validation_inputs, validation_targets = normalized_partition(
            self.dataset, self.normalizer, self.split.validation
        )
        num_train = len(train_targets)

        history = TrainingHistory()
        best_state = self.model.state_dict()
        epochs_without_improvement = 0
        guard = None
        if self.checkpointing is not None:
            guard = TrainingGuard(self.checkpointing, self.model, optimizer, rng)
        epoch = 0
        if guard is not None:
            epoch, best_state, epochs_without_improvement = guard.restore(
                history, best_state, epochs_without_improvement
            )
        timer = Timer()

        metrics = obs.metrics()
        with timer.measure():
            while epoch < config.epochs:
                order = np.arange(num_train)
                if config.shuffle:
                    rng.shuffle(order)

                epoch_loss = 0.0
                epoch_started = time.perf_counter()
                for step, start in enumerate(range(0, num_train, config.batch_size)):
                    rows = order[start:start + config.batch_size]
                    optimizer.zero_grad()
                    with record_graph():
                        prediction = self.model.forward_batch(
                            partition_rows(train_inputs, rows), normalized_distance
                        )
                        loss = loss_function(prediction, train_targets[rows])
                        loss.backward()
                    optimizer.step()
                    faults.active().on_train_step(epoch, step, self.model)
                    epoch_loss += loss.item() * len(rows)
                epoch_loss /= num_train
                _observe_epoch(
                    metrics, optimizer, num_train, time.perf_counter() - epoch_started
                )

                validation_loss = self._evaluate_batched(
                    validation_inputs, validation_targets, normalized_distance
                )
                if guard is not None:
                    detail = divergence_detail(
                        epoch_loss, validation_loss, len(self.split.validation) > 0
                    )
                    if detail is not None:
                        epoch, best_state, epochs_without_improvement = (
                            guard.handle_divergence(epoch, detail, history)
                        )
                        continue
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
                if guard is not None:
                    guard.after_epoch(
                        epoch, history, best_state, epochs_without_improvement
                    )
                if stop:
                    break
                epoch += 1

        self.model.load_state_dict(best_state)
        history.wall_clock_seconds = timer.total
        return TrainingResult(
            model=self.model,
            normalizer=self.normalizer,
            history=history,
            split=self.split,
        )


def note_epoch(
    model: WorstCaseNoiseNet,
    config: TrainingConfig,
    history: TrainingHistory,
    epoch: int,
    epoch_loss: float,
    validation_loss: float,
    best_state: dict,
    epochs_without_improvement: int,
) -> tuple[bool, dict, int]:
    """One epoch of loss-curve recording and early-stopping bookkeeping.

    Shared by the single-design trainer and the pooled cross-design trainer
    of :mod:`repro.eval.training`: appends the losses to ``history``, bookmarks
    the best validation epoch (snapshotting ``model.state_dict()``), and
    applies the patience rule.

    Returns
    -------
    ``(stop, best_state, epochs_without_improvement)`` — ``stop`` is ``True``
    when the patience budget is exhausted.
    """
    history.train_loss.append(epoch_loss)
    history.validation_loss.append(validation_loss)

    monitored = validation_loss if np.isfinite(validation_loss) else epoch_loss
    if monitored < history.best_validation_loss - config.early_stopping_min_delta:
        history.best_validation_loss = monitored
        history.best_epoch = epoch
        best_state = model.state_dict()
        epochs_without_improvement = 0
    else:
        epochs_without_improvement += 1

    if epoch % config.log_every == 0:
        _LOG.info(
            "epoch %d: train %.5f, val %.5f", epoch, epoch_loss, validation_loss
        )
    stop = (
        config.early_stopping_patience is not None
        and epochs_without_improvement >= config.early_stopping_patience
    )
    if stop:
        _LOG.info("early stopping at epoch %d", epoch)
    return stop, best_state, epochs_without_improvement
