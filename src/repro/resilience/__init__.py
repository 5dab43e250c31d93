"""Crash-safety layer: retries, quarantine, checkpoints, typed failures.

``repro.resilience`` is what lets the offline pipeline treat worker death,
solver blow-ups and bit-rot as *expected inputs* instead of run-enders:

* :mod:`~repro.resilience.errors` — every way the pipeline gives up is a
  typed exception carrying evidence (shard hashes, exhausted shards, the
  diverged epoch).
* :mod:`~repro.resilience.retry` — the shared :class:`RetryPolicy` and
  the one retry loop, :func:`retry_in_waves` (injectable sleep): it
  retries the batches that :func:`fan_out` (the one pool-or-inline loop)
  runs for datagen shards and sweep rows, and held-out eval rows as waves
  of one.
* :mod:`~repro.resilience.quarantine` — poisoned vectors and rows become
  :class:`QuarantineRecord` entries in the artefact instead of crashes.
* :mod:`~repro.resilience.checkpoint` — preemption-safe training:
  :class:`CheckpointPolicy` / :class:`TrainingGuard` give bit-identical
  resume and divergence rollback via atomic ``.npz`` snapshots.

The failure *injection* side lives in :mod:`repro.faults`; this package is
the *recovery* side.  See ``docs/resilience.md`` for the failure model and
the chaos-test contract.
"""

from repro.resilience.checkpoint import (
    CheckpointManager,
    CheckpointPolicy,
    TrainingCheckpoint,
    TrainingGuard,
    divergence_detail,
)
from repro.resilience.errors import (
    CheckpointError,
    CorruptShardError,
    DivergenceError,
    ResilienceError,
    ShardFailedError,
)
from repro.resilience.fanout import fan_out
from repro.resilience.quarantine import QuarantineRecord, poisoned_sample_indices
from repro.resilience.retry import RetryPolicy, retry_in_waves

__all__ = [
    "ResilienceError",
    "CorruptShardError",
    "ShardFailedError",
    "DivergenceError",
    "CheckpointError",
    "RetryPolicy",
    "retry_in_waves",
    "fan_out",
    "QuarantineRecord",
    "poisoned_sample_indices",
    "CheckpointPolicy",
    "TrainingCheckpoint",
    "CheckpointManager",
    "TrainingGuard",
    "divergence_detail",
]
