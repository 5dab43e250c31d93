"""Preemption-safe training: atomic checkpoints, bit-identical resume, rollback.

A training run protected by a :class:`CheckpointPolicy` periodically writes an
atomic checkpoint capturing *everything* the next epoch depends on — model
weights, the best-so-far weights, optimiser state (Adam moments + step count),
the shuffle RNG's bit-generator state, the loss history and the early-stopping
counters.  Because the capture is complete, a run killed at any epoch boundary
and resumed from its last checkpoint produces the **bit-identical** loss curve
of an uninterrupted run — the contract ``tests/resilience/`` asserts.

The same machinery powers the divergence guard: when an epoch's loss goes
non-finite (solver blow-up, poisoned labels, numeric overflow), the
:class:`TrainingGuard` rolls the trainer back to the last good checkpoint and
re-runs, up to ``max_rollbacks`` times, before failing with a typed
:class:`~repro.resilience.errors.DivergenceError`.

Checkpoints are ``.npz`` files written through
:func:`repro.io.atomic.atomic_replace`, so a kill mid-save leaves the previous
checkpoint intact; :meth:`CheckpointManager.latest` skips unreadable files
(counting ``faults.corrupt_checkpoints``) and falls back to the newest one
that loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import obs
from repro.io.atomic import atomic_replace
from repro.resilience.errors import CheckpointError, DivergenceError
from repro.utils import get_logger

__all__ = [
    "CheckpointPolicy",
    "TrainingCheckpoint",
    "CheckpointManager",
    "TrainingGuard",
    "divergence_detail",
]

_LOG = get_logger("resilience.checkpoint")

#: On-disk checkpoint format version.
CHECKPOINT_VERSION = 1

#: Reserved npz key holding the JSON metadata blob.
_META_KEY = "__meta__"


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where a training run checkpoints.

    Attributes
    ----------
    directory:
        Where checkpoint files live (created on first save).
    every_epochs:
        Checkpoint cadence — a snapshot is written after every
        ``every_epochs``-th completed epoch.
    keep:
        How many most-recent checkpoints to retain (older ones are pruned
        after each save; at least one survives for rollback).
    max_rollbacks:
        Divergence budget — how many times a run may roll back to its last
        checkpoint before failing with
        :class:`~repro.resilience.errors.DivergenceError`.
    """

    directory: Union[str, Path]
    every_epochs: int = 1
    keep: int = 2
    max_rollbacks: int = 1

    def __post_init__(self):
        if self.every_epochs < 1:
            raise ValueError(f"every_epochs must be >= 1, got {self.every_epochs}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")
        if self.max_rollbacks < 0:
            raise ValueError(f"max_rollbacks must be >= 0, got {self.max_rollbacks}")


@dataclass
class TrainingCheckpoint:
    """Complete training state after one epoch (everything resume needs).

    Attributes
    ----------
    epoch:
        The last *completed* epoch (0-based); resume starts at ``epoch + 1``.
    model_state / best_state:
        Current weights and the early-stopping best-so-far snapshot.
    optimizer_state:
        The optimiser's :meth:`~repro.nn.optim.Adam.state_dict`.
    rng_state:
        The shuffle generator's ``bit_generator.state`` mapping.
    train_loss / validation_loss:
        The loss curves up to and including ``epoch``.
    best_epoch / best_validation_loss / epochs_without_improvement:
        Early-stopping bookkeeping as of ``epoch``.
    """

    epoch: int
    model_state: dict
    best_state: dict
    optimizer_state: dict
    rng_state: dict
    train_loss: list = field(default_factory=list)
    validation_loss: list = field(default_factory=list)
    best_epoch: int = 0
    best_validation_loss: float = float("inf")
    epochs_without_improvement: int = 0


class CheckpointManager:
    """Saves, lists, loads and prunes atomic ``.npz`` training checkpoints.

    Files are named ``ckpt-<epoch:06d>.npz``; each holds the model / best /
    optimiser arrays plus one JSON metadata entry.  Saves go through
    :func:`~repro.io.atomic.atomic_replace`, so readers never observe a
    half-written checkpoint.
    """

    def __init__(self, policy: CheckpointPolicy):
        self.policy = policy
        self.directory = Path(policy.directory)

    # -- paths ----------------------------------------------------------- #

    def path_for(self, epoch: int) -> Path:
        """The checkpoint path for one completed epoch."""
        return self.directory / f"ckpt-{epoch:06d}.npz"

    def available(self) -> list[tuple[int, Path]]:
        """``(epoch, path)`` of every checkpoint on disk, oldest first."""
        found = []
        for path in sorted(self.directory.glob("ckpt-*.npz")):
            try:
                epoch = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            found.append((epoch, path))
        return found

    # -- save / load ------------------------------------------------------ #

    def save(self, checkpoint: TrainingCheckpoint) -> Path:
        """Atomically persist one checkpoint; prune old ones; return its path."""
        arrays: dict[str, np.ndarray] = {}
        for name, value in checkpoint.model_state.items():
            arrays[f"model/{name}"] = np.asarray(value)
        for name, value in checkpoint.best_state.items():
            arrays[f"best/{name}"] = np.asarray(value)
        optim_meta: dict[str, object] = {}
        for name, value in checkpoint.optimizer_state.items():
            if isinstance(value, np.ndarray):
                arrays[f"optim/{name}"] = value
            else:
                optim_meta[name] = value
        meta = {
            "version": CHECKPOINT_VERSION,
            "epoch": checkpoint.epoch,
            "train_loss": list(checkpoint.train_loss),
            "validation_loss": list(checkpoint.validation_loss),
            "best_epoch": checkpoint.best_epoch,
            "best_validation_loss": checkpoint.best_validation_loss,
            "epochs_without_improvement": checkpoint.epochs_without_improvement,
            "rng_state": checkpoint.rng_state,
            "optim_meta": optim_meta,
        }
        arrays[_META_KEY] = np.array(json.dumps(meta))

        path = self.path_for(checkpoint.epoch)
        with atomic_replace(path, suffix=".npz") as temporary:
            with open(temporary, "wb") as handle:
                np.savez(handle, **arrays)
        obs.metrics().counter("faults.checkpoints").inc()
        self._prune()
        return path

    def load(self, path: Union[str, Path]) -> TrainingCheckpoint:
        """Load one checkpoint file; raise :class:`CheckpointError` if unreadable."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data[_META_KEY][()]))
                if meta.get("version") != CHECKPOINT_VERSION:
                    raise CheckpointError(
                        f"{path}: unsupported checkpoint version {meta.get('version')!r}"
                    )
                model_state, best_state, optimizer_state = {}, {}, dict(
                    meta.get("optim_meta", {})
                )
                for key in data.files:
                    if key.startswith("model/"):
                        model_state[key[len("model/"):]] = data[key]
                    elif key.startswith("best/"):
                        best_state[key[len("best/"):]] = data[key]
                    elif key.startswith("optim/"):
                        optimizer_state[key[len("optim/"):]] = data[key]
        except CheckpointError:
            raise
        except Exception as error:
            raise CheckpointError(f"{path}: unreadable checkpoint ({error!r})") from error
        return TrainingCheckpoint(
            epoch=int(meta["epoch"]),
            model_state=model_state,
            best_state=best_state,
            optimizer_state=optimizer_state,
            rng_state=meta["rng_state"],
            train_loss=list(meta["train_loss"]),
            validation_loss=list(meta["validation_loss"]),
            best_epoch=int(meta["best_epoch"]),
            best_validation_loss=float(meta["best_validation_loss"]),
            epochs_without_improvement=int(meta["epochs_without_improvement"]),
        )

    def latest(self) -> Optional[TrainingCheckpoint]:
        """The newest checkpoint that loads, or ``None``.

        Unreadable files (killed mid-write before the rename existed, or
        bit-rotted on disk) are skipped with a ``faults.corrupt_checkpoints``
        tick, falling back to the next-newest.
        """
        for _, path in reversed(self.available()):
            try:
                return self.load(path)
            except CheckpointError as error:
                obs.metrics().counter("faults.corrupt_checkpoints").inc()
                _LOG.warning("skipping corrupt checkpoint: %s", error)
        return None

    def _prune(self) -> None:
        """Drop all but the ``policy.keep`` newest checkpoints."""
        stale = self.available()[: -self.policy.keep]
        for _, path in stale:
            path.unlink(missing_ok=True)


class TrainingGuard:
    """Wires a training loop to checkpoints, resume, and divergence rollback.

    The trainer constructs one guard per run (when a
    :class:`CheckpointPolicy` is supplied), hands it the live model /
    optimiser / RNG, and calls three hooks:

    * :meth:`restore` once before the epoch loop — applies the latest
      checkpoint (if any) and returns the epoch to resume from;
    * :meth:`after_epoch` after each healthy epoch — snapshots state at the
      policy cadence;
    * :meth:`handle_divergence` when an epoch's loss goes non-finite — rolls
      back to the last checkpoint (within ``max_rollbacks``) or raises
      :class:`~repro.resilience.errors.DivergenceError`.

    All three keep the loss history and early-stopping counters consistent
    with the restored epoch, which is what makes a resumed loss curve
    bit-identical to an uninterrupted one.
    """

    def __init__(self, policy: CheckpointPolicy, model, optimizer, rng):
        self.policy = policy
        self.manager = CheckpointManager(policy)
        self._model = model
        self._optimizer = optimizer
        self._rng = rng
        self._rollbacks_used = 0

    # -- hooks ------------------------------------------------------------ #

    def restore(
        self, history, best_state: dict, epochs_without_improvement: int
    ) -> tuple[int, dict, int]:
        """Apply the latest checkpoint, if any.

        Returns ``(start_epoch, best_state, epochs_without_improvement)`` —
        unchanged inputs with ``start_epoch=0`` when there is nothing to
        resume from.
        """
        checkpoint = self.manager.latest()
        if checkpoint is None:
            return 0, best_state, epochs_without_improvement
        best = self._apply(checkpoint, history)
        obs.metrics().counter("faults.resumes").inc()
        _LOG.info(
            "resumed training from checkpoint at epoch %d", checkpoint.epoch
        )
        return checkpoint.epoch + 1, best, checkpoint.epochs_without_improvement

    def after_epoch(
        self,
        epoch: int,
        history,
        best_state: dict,
        epochs_without_improvement: int,
    ) -> None:
        """Checkpoint after a healthy epoch when the cadence comes up."""
        if (epoch + 1) % self.policy.every_epochs != 0:
            return
        self.manager.save(
            TrainingCheckpoint(
                epoch=epoch,
                model_state=self._model.state_dict(),
                best_state={k: np.asarray(v).copy() for k, v in best_state.items()},
                optimizer_state=self._optimizer.state_dict(),
                rng_state=self._rng.bit_generator.state,
                train_loss=list(history.train_loss),
                validation_loss=list(history.validation_loss),
                best_epoch=history.best_epoch,
                best_validation_loss=history.best_validation_loss,
                epochs_without_improvement=epochs_without_improvement,
            )
        )

    def handle_divergence(
        self, epoch: int, detail: str, history
    ) -> tuple[int, dict, int]:
        """Roll back to the last checkpoint after a non-finite epoch.

        Returns the ``(next_epoch, best_state, epochs_without_improvement)``
        to continue from.  Raises
        :class:`~repro.resilience.errors.DivergenceError` when the rollback
        budget is spent or no checkpoint survives to roll back to.
        """
        self._rollbacks_used += 1
        if self._rollbacks_used > self.policy.max_rollbacks:
            raise DivergenceError(
                epoch, f"{detail} (rollback budget of {self.policy.max_rollbacks} spent)"
            )
        checkpoint = self.manager.latest()
        if checkpoint is None:
            raise DivergenceError(epoch, f"{detail} (no checkpoint to roll back to)")
        best = self._apply(checkpoint, history)
        obs.metrics().counter("faults.rollbacks").inc()
        _LOG.warning(
            "training diverged at epoch %d (%s); rolled back to epoch %d",
            epoch,
            detail,
            checkpoint.epoch,
        )
        return checkpoint.epoch + 1, best, checkpoint.epochs_without_improvement

    # -- plumbing ---------------------------------------------------------- #

    def _apply(self, checkpoint: TrainingCheckpoint, history) -> dict:
        """Load a checkpoint into the live model/optimiser/RNG/history."""
        self._model.load_state_dict(checkpoint.model_state)
        self._optimizer.load_state_dict(checkpoint.optimizer_state)
        self._rng.bit_generator.state = checkpoint.rng_state
        history.train_loss[:] = checkpoint.train_loss
        history.validation_loss[:] = checkpoint.validation_loss
        history.best_epoch = checkpoint.best_epoch
        history.best_validation_loss = checkpoint.best_validation_loss
        return {k: np.asarray(v).copy() for k, v in checkpoint.best_state.items()}


def divergence_detail(
    epoch_loss: float, validation_loss: float, has_validation: bool
) -> Optional[str]:
    """What (if anything) went non-finite this epoch.

    Returns ``None`` for a healthy epoch; a NaN validation loss only counts
    when a validation partition exists (empty partitions report NaN by
    convention).
    """
    problems = []
    if not np.isfinite(epoch_loss):
        problems.append(f"train loss {epoch_loss}")
    if has_validation and not np.isfinite(validation_loss):
        problems.append(f"validation loss {validation_loss}")
    if not problems:
        return None
    return " and ".join(problems) + " non-finite"
