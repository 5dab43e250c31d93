"""Crash-safety layer: retries, quarantine, typed failures.

``repro.resilience`` is what lets the offline pipeline treat worker death,
solver blow-ups and bit-rot as *expected inputs* instead of run-enders:

* :mod:`~repro.resilience.errors` — every way the pipeline gives up is a
  typed exception carrying evidence (shard hashes, exhausted shards).
* :mod:`~repro.resilience.retry` — the shared :class:`RetryPolicy` and
  the one retry loop, :func:`retry_in_waves` (injectable sleep): it
  retries the batches that :func:`fan_out` (the one pool-or-inline loop)
  runs for datagen shards and sweep rows, and held-out eval rows as waves
  of one.
* :mod:`~repro.resilience.quarantine` — poisoned vectors and rows become
  :class:`QuarantineRecord` entries in the artefact instead of crashes.

The failure *injection* side lives in :mod:`repro.faults`; this package is
the *recovery* side.  See ``docs/resilience.md`` for the failure model and
the chaos-test contract.
"""

from repro.resilience.errors import (
    CorruptShardError,
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
    "RetryPolicy",
    "retry_in_waves",
    "fan_out",
    "QuarantineRecord",
    "poisoned_sample_indices",
]
