"""Bounded retry with exponential backoff, instrumented through ``repro.obs``.

:class:`RetryPolicy` is the one retry vocabulary every pipeline stage
shares — datagen shard attempts, eval rows, held-out campaign rows — so
"how many attempts, backing off how" is a frozen, hashable value instead of
scattered constants.  :func:`run_with_retry` executes a callable under a
policy with an *injectable sleep*, which is what keeps the fault-injection
tests free of timing waits: they pass a recording stub and assert the exact
backoff schedule instead of sleeping through it.  :func:`retry_in_waves` is
the batch form the datagen engine and the eval sweep share: a whole wave of
units runs, the failures run again as the next wave, and the backoff grows
per wave.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Tuple, Type, TypeVar

from repro import obs

__all__ = ["RetryPolicy", "retry_in_waves", "run_with_retry"]

_T = TypeVar("_T")
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


def run_with_retry(
    operation: Callable[[], _T],
    policy: RetryPolicy = RetryPolicy(),
    *,
    describe: str = "operation",
    sleep: Callable[[float], None] = time.sleep,
    retry_on: Tuple[Type[BaseException], ...] = (Exception,),
) -> _T:
    """Run ``operation`` under a retry policy; return its first success.

    Publishes ``faults.errors`` per failed attempt, ``faults.retries`` per
    retry actually scheduled, and ``faults.exhausted`` when the budget runs
    out (the last error is then re-raised unchanged).
    :class:`~repro.faults.WorkerKilled` is a :class:`BaseException` and is
    therefore *never* retried by the default ``retry_on`` — an injected kill
    unwinds like a real one.

    Parameters
    ----------
    operation:
        Zero-argument callable to run.
    policy:
        The retry budget and backoff schedule.
    describe:
        Name used in log/metric context.
    sleep:
        Backoff sleeper; tests inject a recorder for zero-wait determinism.
    retry_on:
        Exception types that count as retryable failures.
    """
    metrics = obs.metrics()
    last_error: BaseException = RuntimeError(f"{describe}: no attempts ran")
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return operation()
        except retry_on as error:  # noqa: PERF203 - retry loop by design
            last_error = error
            metrics.counter("faults.errors").inc()
            if attempt >= policy.max_attempts:
                break
            metrics.counter("faults.retries").inc()
            delay = policy.delay(attempt)
            if delay > 0:
                sleep(delay)
    metrics.counter("faults.exhausted").inc()
    raise last_error


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

    ``run_wave(pending)`` runs one wave and yields ``(unit, outcome)`` pairs
    in any order, each unit being one of the objects in ``pending``; an
    outcome dict with a truthy ``"failed"`` entry is a failed attempt, any
    other goes to ``on_success(unit, outcome)``.  A unit whose attempts reach
    ``policy.max_attempts`` goes to ``on_exhausted(unit, outcome, attempts)``;
    the rest run again in the next wave after ``sleep(policy.delay(wave))``.
    Counters match :func:`run_with_retry`: ``faults.errors`` per failed
    attempt, ``faults.retries`` per scheduled retry, ``faults.exhausted``
    per unit that ran out.
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
