"""Request/control messages and typed errors of the screening gateway.

Everything that flows through a shard inbox is defined here: admitted
:class:`GatewayRequest` objects, the :class:`SwapCommand` control message
that quiesces one shard for a hot checkpoint swap, and the :data:`STOP`
sentinel that ends a worker (or the supervisor loop).  The gateway's
caller-facing error taxonomy also lives here so both the in-process API and
the wire protocol can map failures to typed responses.

Exactly-once answering is enforced structurally: every request owns one
:class:`concurrent.futures.Future`, and :meth:`GatewayRequest.resolve` /
:meth:`GatewayRequest.fail` go through its atomic set-once state machine.
Whichever path answers first — a worker, a retry after a crash, or the
shutdown sweep — wins; every later attempt (duplicated delivery,
crashed-then-requeued request that had in fact completed) is a recorded
no-op.  The ``answers`` counter increments only on the winning
transition, which is what the fault-injection suite asserts equals one.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.inference import PredictionResult
from repro.pdn.designs import Design
from repro.serving.cache import ScreeningPayload
from repro.workloads.specs import ScenarioLike

#: Inbox sentinel telling a shard worker (or the supervisor) to exit after
#: its in-hand batch.
STOP = object()


class GatewayError(RuntimeError):
    """Base class of every error the gateway raises or sets on futures."""


class GatewayOverloaded(GatewayError):
    """Admission rejected: the queue is full.

    Carries ``retry_after_s``, the gateway's estimate of when capacity will
    free up (current backlog divided by recent service rate), so callers —
    and the wire protocol — can implement honest retry backoff.
    """

    def __init__(self, retry_after_s: float, message: Optional[str] = None):
        super().__init__(
            message
            or f"gateway admission queue is full; retry after {retry_after_s:.3f}s"
        )
        #: Suggested client back-off in seconds.
        self.retry_after_s = float(retry_after_s)


class GatewayClosed(GatewayError):
    """The gateway shut down before (or while) the request could be answered."""


class WorkerCrashed(GatewayError):
    """The owning worker crashed and retries were exhausted.

    ``__cause__`` carries the underlying worker error.
    """


@dataclass
class SwapCommand:
    """Hot checkpoint swap for one design, applied at a shard's quiesce point.

    The command travels through the owning shard's FIFO inbox, so batches
    already in flight (and requests queued ahead of it) finish against the
    old checkpoint while everything behind it sees the new fingerprint —
    only this shard pauses, and only between batches.  ``predictor`` is the
    new predictor to register (persisted when ``persist`` is set); ``None``
    evicts the resident entry instead so the next request reloads whatever
    checkpoint is on disk.  ``done`` resolves to the serving fingerprint
    once applied, or to the error when the swap failed.
    """

    design_name: str
    predictor: Optional[object] = None
    persist: bool = True
    done: "Future[str]" = field(default_factory=Future)


@dataclass
class GatewayRequest:
    """One admitted unit of screening work.

    ``payload`` is either a concrete vector payload (a
    :class:`~repro.sim.waveform.CurrentTrace` or pre-extracted
    :class:`~repro.features.extraction.VectorFeatures`) or a scenario
    reference (family name or :class:`~repro.workloads.specs.ScenarioSpec`)
    that the owning worker materialises with ``num_steps``/``dt``/``seed``.
    ``design`` may be the full :class:`Design` or just its name — workers
    rebuild designs from names through the gateway's design factory.
    """

    payload: Union[ScreeningPayload, ScenarioLike]
    design: Union[Design, str]
    num_steps: int = 200
    dt: float = 1e-11
    seed: int = 0
    future: "Future[PredictionResult]" = field(default_factory=Future)
    submitted_at: float = field(default_factory=time.perf_counter)
    #: Delivery attempts consumed (incremented when a crash requeues it).
    attempts: int = 0
    #: Number of times a resolution attempt actually won (asserted == 1).
    answers: int = 0

    @property
    def design_name(self) -> str:
        """The design's routing key."""
        return self.design if isinstance(self.design, str) else self.design.name

    @property
    def done(self) -> bool:
        """Whether the request has been answered (result, error, or cancel)."""
        return self.future.done()

    def resolve(self, result: PredictionResult) -> bool:
        """Answer with a result; returns ``True`` iff this call won the race."""
        try:
            self.future.set_result(result)
        except InvalidStateError:
            return False
        self.answers += 1
        return True

    def fail(self, error: BaseException) -> bool:
        """Answer with an error; returns ``True`` iff this call won the race."""
        try:
            self.future.set_exception(error)
        except InvalidStateError:
            return False
        self.answers += 1
        return True
