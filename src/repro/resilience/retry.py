"""Bounded retry with exponential backoff, instrumented through ``repro.obs``.

:class:`RetryPolicy` is the one retry vocabulary every pipeline stage
shares — datagen shard attempts, eval rows, held-out campaign rows — so
"how many attempts, backing off how" is a frozen, hashable value instead of
scattered constants.  :func:`retry_in_waves` is the one retry loop, shared
by the datagen engine, the eval sweep and the held-out campaign rows: a
whole wave of units runs, the failures run again as the next wave, and the
backoff grows per wave.  Its sleep is *injectable*, which is what keeps the
fault-injection tests free of timing waits: they pass a recording stub and
assert the exact backoff schedule instead of sleeping through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro import obs

__all__ = ["RetryPolicy", "retry_in_waves"]

_U = TypeVar("_U")


@dataclass(frozen=True)
class RetryPolicy:
    """How often to retry a failed unit of work, and how to back off.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (``1`` disables retries).
    backoff_s:
        Delay before the first retry, in seconds.  ``0`` retries
        immediately — what the deterministic tests use.
    backoff_factor:
        Multiplier applied per subsequent retry (exponential backoff).
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay(self, failures: int) -> float:
        """Backoff before the retry following the ``failures``-th failure (1-based)."""
        if failures < 1:
            return 0.0
        return self.backoff_s * self.backoff_factor ** (failures - 1)


def retry_in_waves(
    units: Sequence[_U],
    run_wave: Callable[[list[_U]], Iterable[tuple[_U, dict]]],
    policy: RetryPolicy,
    *,
    on_success: Callable[[_U, dict], None],
    on_exhausted: Callable[[_U, dict, int], None],
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Run ``units`` in waves until each succeeds or exhausts ``policy``.

    ``run_wave(pending)`` yields one wave's ``(unit, outcome)`` pairs, each
    unit one of the objects in ``pending`` (as
    :func:`~repro.resilience.fan_out` does).  Outcomes without a truthy
    ``"failed"`` go to ``on_success(unit, outcome)``; failed units rerun next
    wave, after ``sleep(policy.delay(wave))``, until ``policy.max_attempts``
    sends them to ``on_exhausted(unit, outcome, attempts)``.

    Publishes ``faults.errors`` per failed attempt, ``faults.retries`` per
    retry scheduled and ``faults.exhausted`` per unit out of budget.  An
    exception ``run_wave`` raises (e.g. an injected
    :class:`~repro.faults.WorkerKilled`) propagates uncounted.
    """
    metrics = obs.metrics()
    attempts: dict[int, int] = {}  # by id(unit): the same objects rerun
    pending = list(units)
    wave = 0
    while pending:
        retry_next: list[_U] = []
        for unit, outcome in run_wave(pending):
            if not outcome.get("failed"):
                on_success(unit, outcome)
                continue
            count = attempts[id(unit)] = attempts.get(id(unit), 0) + 1
            metrics.counter("faults.errors").inc()
            if count >= policy.max_attempts:
                metrics.counter("faults.exhausted").inc()
                on_exhausted(unit, outcome, count)
            else:
                metrics.counter("faults.retries").inc()
                retry_next.append(unit)
        pending = retry_next
        if pending:
            wave += 1
            delay = policy.delay(wave)
            if delay > 0:
                sleep(delay)
