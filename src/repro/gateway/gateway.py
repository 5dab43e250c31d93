"""The asyncio screening gateway: admission, sharding, supervision.

:class:`ScreeningGateway` is the persistent front door of the serving stack.
Where :class:`~repro.serving.service.ScreeningService` is a library object a
caller constructs and drives in-process, the gateway is built to run as a
long-lived service under sustained mixed-design traffic:

* **Admission control** — a bounded queue with an explicit overload policy:
  ``reject`` answers excess submissions with
  :class:`~repro.gateway.messages.GatewayOverloaded` (carrying an honest
  ``retry_after_s`` estimate), ``shed-oldest`` drops the oldest waiting
  request instead so fresh traffic keeps flowing.
* **Sharded workers** — a consistent-hash ring maps each design to one of
  ``num_shards`` worker threads, each owning a private
  :class:`~repro.serving.registry.PredictorRegistry` partition whose LRU
  stays warm because no other shard ever touches its designs.
* **Supervision** — a supervisor thread restarts crashed workers with
  exponential backoff, requeues the crash's unanswered in-hand requests
  (bounded by ``max_retries``), and reports per-shard health states.
* **Hot swaps** — :meth:`ScreeningGateway.swap_checkpoint` quiesces only the
  owning shard, between batches, so in-flight requests finish on the old
  checkpoint and nothing is dropped.
* **Graceful drain** — :meth:`ScreeningGateway.close` stops admission, lets
  workers finish the backlog, and guarantees every accepted future resolves
  (with a result or a typed error; never a hang).

Every layer publishes through :mod:`repro.obs`: ``gateway.*`` counters
(requests, rejected, shed, retries, restarts, swaps, failures,
duplicates_dropped), queue-depth and per-shard depth gauges, and
``gateway.request_latency.{ok,failed}`` histograms.
"""

from __future__ import annotations

import asyncio
import queue
import threading
import time
from concurrent.futures import Future, wait as futures_wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import obs
from repro.core.inference import NoisePredictor, PredictionResult
from repro.faults import NULL_FAULTS, FaultInjector
from repro.gateway.messages import (
    STOP,
    GatewayClosed,
    GatewayOverloaded,
    GatewayRequest,
    LoadShedError,
    SwapCommand,
    WorkerCrashed,
)
from repro.gateway.ring import ConsistentHashRing
from repro.gateway.worker import DesignFactory, ShardWorker
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import Design
from repro.serving.registry import PredictorRegistry
from repro.serving.sweep import default_design_factory
from repro.utils import check_positive, get_logger

_LOG = get_logger("gateway")

#: Admission overload policies.
SHED_POLICIES = ("reject", "shed-oldest")


class _GatewayInstruments:
    """Pre-resolved metric handles shared by the gateway and its workers."""

    def __init__(self, metrics: MetricsRegistry, num_shards: int):
        self.requests = metrics.counter("gateway.requests")
        self.rejected = metrics.counter("gateway.rejected")
        self.shed = metrics.counter("gateway.shed")
        self.retries = metrics.counter("gateway.retries")
        self.restarts = metrics.counter("gateway.restarts")
        self.swaps = metrics.counter("gateway.swaps")
        self.failures = metrics.counter("gateway.failures")
        self.duplicates_dropped = metrics.counter("gateway.duplicates_dropped")
        self.queue_depth = metrics.gauge("gateway.queue_depth")
        self.batch_size = metrics.gauge("gateway.batch_size")
        self.shard_depth = {
            shard: metrics.gauge(f"gateway.shard_depth.{shard}")
            for shard in range(num_shards)
        }
        self.latency_ok = metrics.histogram("gateway.request_latency.ok")
        self.latency_failed = metrics.histogram("gateway.request_latency.failed")


@dataclass
class _Shard:
    """Supervisor-side state of one shard."""

    shard_id: int
    inbox: "queue.Queue" = field(default_factory=queue.Queue)
    registry: Optional[PredictorRegistry] = None
    worker: Optional[ShardWorker] = None
    state: str = "healthy"
    restarts: int = 0
    consecutive_crashes: int = 0
    generation: int = 0
    backoff_history: list = field(default_factory=list)


class ScreeningGateway:
    """Supervised, sharded, admission-controlled screening front door.

    Parameters
    ----------
    registry_root:
        Directory of per-design predictor checkpoints shared by every shard
        (each shard only ever loads the designs the ring assigns to it).
    num_shards:
        Worker count.  Each worker serves one consistent-hash partition of
        the design space with its own registry LRU.
    queue_limit:
        Maximum admitted-but-unanswered requests across the gateway; beyond
        it the ``shed_policy`` applies.
    shed_policy:
        ``"reject"`` (refuse the new request with
        :class:`GatewayOverloaded`) or ``"shed-oldest"`` (fail the oldest
        waiting request with :class:`LoadShedError` and admit the new one).
    max_batch / max_wait:
        Per-worker micro-batching bounds (see
        :class:`~repro.serving.service.ScreeningService`).
    registry_capacity:
        LRU capacity of each shard's registry partition.
    design_factory:
        Rebuilds :class:`Design` objects from names for scenario payloads
        (defaults to :func:`repro.serving.sweep.default_design_factory`).
    faults:
        Fault-injection seam (tests only; defaults to inert hooks).
    metrics:
        Metrics registry to publish into; defaults to the process-global
        :func:`repro.obs.metrics` registry.
    max_retries:
        How many times a request stranded by worker crashes is requeued
        before failing with :class:`WorkerCrashed`.
    backoff_base / backoff_cap:
        Supervisor restart backoff: ``min(cap, base * 2**(crashes-1))``
        seconds, reset after the shard's next successful batch.
    """

    def __init__(
        self,
        registry_root: Union[str, Path],
        num_shards: int = 2,
        queue_limit: int = 256,
        shed_policy: str = "reject",
        max_batch: int = 16,
        max_wait: float = 2e-3,
        registry_capacity: int = 4,
        design_factory: DesignFactory = default_design_factory,
        faults: Optional[FaultInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
    ):
        check_positive(num_shards, "num_shards")
        check_positive(queue_limit, "queue_limit")
        check_positive(max_batch, "max_batch")
        check_positive(max_wait, "max_wait", strict=False)
        check_positive(backoff_base, "backoff_base", strict=False)
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, got {shed_policy!r}"
            )
        self.registry_root = Path(registry_root)
        self.num_shards = int(num_shards)
        self.queue_limit = int(queue_limit)
        self.shed_policy = shed_policy
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.metrics = metrics if metrics is not None else obs.metrics()
        self._obs = _GatewayInstruments(self.metrics, self.num_shards)
        self._faults = faults if faults is not None else NULL_FAULTS
        self._design_factory = design_factory
        self._ring = ConsistentHashRing(range(self.num_shards))
        self._lock = threading.Lock()
        self._closed = False
        self._outstanding = 0
        self._inflight: list[GatewayRequest] = []
        self._latency_ewma: Optional[float] = None
        self._shards: dict[int, _Shard] = {}
        for shard_id in range(self.num_shards):
            shard = _Shard(shard_id=shard_id)
            shard.registry = PredictorRegistry(
                self.registry_root, capacity=registry_capacity
            )
            self._shards[shard_id] = shard
        self._events: "queue.Queue" = queue.Queue()
        self._stop_event = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="gateway-supervisor", daemon=True
        )
        for shard in self._shards.values():
            self._spawn_worker(shard)
        self._supervisor.start()

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #

    def submit_async(
        self,
        payload,
        design: Union[Design, str],
        num_steps: int = 200,
        dt: float = 1e-11,
        seed: int = 0,
    ) -> "Future[PredictionResult]":
        """Admit one request; the returned future resolves to its prediction.

        ``payload`` is a vector payload (trace or features) or a scenario
        reference (family name / :class:`ScenarioSpec`, materialised in the
        worker with ``num_steps``/``dt``/``seed``).  Raises
        :class:`GatewayClosed` after shutdown began and
        :class:`GatewayOverloaded` when the admission queue is full under
        the ``reject`` policy.  Thread-safe and non-blocking — safe to call
        from an event loop.
        """
        request = GatewayRequest(
            payload=payload, design=design, num_steps=num_steps, dt=dt, seed=seed
        )
        shed: Optional[GatewayRequest] = None
        with self._lock:
            if self._closed:
                raise GatewayClosed("gateway is closed")
            self._obs.requests.inc()
            if self._outstanding >= self.queue_limit:
                if self.shed_policy == "reject":
                    self._obs.rejected.inc()
                    raise GatewayOverloaded(self._retry_after_locked())
                shed = self._pick_shed_victim_locked()
            self._outstanding += 1
            self._inflight.append(request)
            self._obs.queue_depth.set(self._outstanding)
        request.future.add_done_callback(lambda _: self._request_done(request))
        if shed is not None and shed.fail(
            LoadShedError("shed under overload (shed-oldest policy)")
        ):
            self._obs.shed.inc()
        shard = self._shards[self._ring.assign(request.design_name)]
        shard.inbox.put(request)
        self._obs.shard_depth[shard.shard_id].set(shard.inbox.qsize())
        return request.future

    async def submit(
        self,
        payload,
        design: Union[Design, str],
        num_steps: int = 200,
        dt: float = 1e-11,
        seed: int = 0,
    ) -> PredictionResult:
        """Async counterpart of :meth:`submit_async` (awaits the result)."""
        future = self.submit_async(payload, design, num_steps=num_steps, dt=dt, seed=seed)
        return await asyncio.wrap_future(future)

    def screen(
        self, items: Sequence[tuple], num_steps: int = 200, dt: float = 1e-11, seed: int = 0
    ) -> list[PredictionResult]:
        """Screen ``(payload, design)`` pairs, blocking; results in order.

        Submits everything first so the shards' micro-batchers can fill
        even from a single caller thread, mirroring
        :meth:`ScreeningService.screen`.
        """
        futures = [
            self.submit_async(payload, design, num_steps=num_steps, dt=dt, seed=seed)
            for payload, design in items
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # hot checkpoint swap
    # ------------------------------------------------------------------ #

    def swap_checkpoint(
        self,
        design_name: str,
        predictor: Optional[NoisePredictor] = None,
        persist: bool = True,
    ) -> "Future[str]":
        """Swap one design's checkpoint without dropping in-flight requests.

        The swap is delivered through the owning shard's FIFO inbox and
        applied between micro-batches, quiescing only that shard: requests
        already dispatched (or queued ahead of the swap) finish against the
        old checkpoint; requests behind it are served by the new one.  With
        ``predictor=None`` the resident entry is evicted so the next request
        reloads the on-disk checkpoint (rolled out by an external trainer).
        Returns a future resolving to the new serving fingerprint.
        """
        with self._lock:
            if self._closed:
                raise GatewayClosed("gateway is closed")
        command = SwapCommand(design_name=design_name, predictor=predictor, persist=persist)
        shard = self._shards[self._ring.assign(design_name)]
        shard.inbox.put(command)
        return command.done

    async def swap(
        self,
        design_name: str,
        predictor: Optional[NoisePredictor] = None,
        persist: bool = True,
    ) -> str:
        """Async counterpart of :meth:`swap_checkpoint` (awaits the fingerprint)."""
        return await asyncio.wrap_future(
            self.swap_checkpoint(design_name, predictor, persist=persist)
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def shard_for(self, design_name: str) -> int:
        """The shard id the ring assigns to a design (stable across runs)."""
        return self._ring.assign(design_name)

    def health(self) -> dict:
        """Structured health snapshot of the gateway and every shard.

        Top level: ``accepting`` (admission open), ``outstanding`` (admitted
        and unanswered), ``queue_limit``.  Per shard: ``state`` (``healthy``
        / ``restarting`` / ``stopped``), ``restarts``, ``queue_depth``, and
        the ``resident`` design names of its registry partition (LRU order).
        """
        with self._lock:
            shards = {
                shard.shard_id: {
                    "state": shard.state,
                    "restarts": shard.restarts,
                    "queue_depth": shard.inbox.qsize(),
                    "resident": list(shard.registry.loaded()),
                }
                for shard in self._shards.values()
            }
            return {
                "accepting": not self._closed,
                "outstanding": self._outstanding,
                "queue_limit": self.queue_limit,
                "shards": shards,
            }

    def backoff_history(self, shard_id: int) -> list[float]:
        """Backoff delays (seconds) the supervisor applied for one shard."""
        with self._lock:
            return list(self._shards[shard_id].backoff_history)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def close(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut down: stop admission, then resolve every accepted future.

        With ``drain=True`` the workers finish the backlog first (the
        supervisor keeps restarting crashed workers while the drain runs, so
        retryable requests still complete); ``drain=False`` fails everything
        still waiting with :class:`GatewayClosed` immediately.  Any future
        that is somehow still unresolved once the workers have exited — e.g.
        the drain ``timeout`` elapsed — is failed with
        :class:`GatewayClosed`: a gateway shutdown never leaves a caller
        hanging.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [request for request in self._inflight if not request.done]
        if drain:
            futures_wait([request.future for request in pending], timeout=timeout)
        else:
            for request in pending:
                request.fail(GatewayClosed("gateway closed before the request ran"))
        # Stop the supervisor first so workers are not resurrected mid-join,
        # then stop the workers; the final sweep catches anything stranded
        # by a crash in this window.
        self._stop_event.set()
        self._events.put(STOP)
        self._supervisor.join()
        for shard in self._shards.values():
            shard.inbox.put(STOP)
        for shard in self._shards.values():
            if shard.worker is not None:
                shard.worker.join(timeout=timeout)
            with self._lock:
                shard.state = "stopped"
        leftover_error = GatewayClosed("gateway closed before the request ran")
        for shard in self._shards.values():
            while True:
                try:
                    item = shard.inbox.get_nowait()
                except queue.Empty:
                    break
                if isinstance(item, GatewayRequest):
                    item.fail(leftover_error)
                elif isinstance(item, SwapCommand):
                    try:
                        item.done.set_exception(leftover_error)
                    except Exception:  # pragma: no cover - already resolved
                        pass
        for request in pending:
            request.fail(leftover_error)
        _LOG.info("gateway closed (drain=%s)", drain)

    async def aclose(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Async counterpart of :meth:`close` (runs it off the event loop)."""
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.close(drain=drain, timeout=timeout)
        )

    def __enter__(self) -> "ScreeningGateway":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, shard: _Shard) -> None:
        """Start a fresh worker incarnation on the shard's inbox/registry."""
        shard.worker = ShardWorker(
            shard_id=shard.shard_id,
            inbox=shard.inbox,
            registry=shard.registry,
            design_factory=self._design_factory,
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            faults=self._faults,
            instruments=self._obs,
            on_crash=self._on_worker_crash,
            on_healthy=self._on_worker_healthy,
            generation=shard.generation,
        )
        shard.generation += 1
        shard.worker.start()

    def _on_worker_crash(
        self, worker: ShardWorker, error: BaseException, survivors: list
    ) -> None:
        # Runs on the dying worker thread: hand off to the supervisor.
        self._events.put(("crash", worker.shard_id, error, survivors))

    def _on_worker_healthy(self, shard_id: int) -> None:
        # Runs on the worker thread after each successful batch.
        shard = self._shards[shard_id]
        if shard.consecutive_crashes:
            with self._lock:
                shard.consecutive_crashes = 0

    def _supervise(self) -> None:
        """Supervisor loop: requeue crash survivors, restart with backoff."""
        while True:
            event = self._events.get()
            if event is STOP:
                return
            _, shard_id, error, survivors = event
            shard = self._shards[shard_id]
            with self._lock:
                shard.state = "restarting"
                shard.restarts += 1
                shard.consecutive_crashes += 1
                crashes = shard.consecutive_crashes
            self._obs.restarts.inc()
            for request in survivors:
                request.attempts += 1
                if request.attempts > self.max_retries:
                    crashed = WorkerCrashed(
                        f"shard {shard_id} crashed {request.attempts} times "
                        f"while holding this request"
                    )
                    crashed.__cause__ = error
                    if request.fail(crashed):
                        self._obs.failures.inc()
                else:
                    self._obs.retries.inc()
                    shard.inbox.put(request)
            delay = min(self.backoff_cap, self.backoff_base * (2 ** (crashes - 1)))
            with self._lock:
                shard.backoff_history.append(delay)
            _LOG.warning(
                "restarting shard %d in %.3fs after crash #%d: %s",
                shard_id,
                delay,
                crashes,
                error,
            )
            if self._stop_event.wait(delay):
                # Shutdown began during the backoff: the close() sweep fails
                # whatever the dead worker left behind; do not respawn.
                with self._lock:
                    shard.state = "stopped"
                continue
            self._spawn_worker(shard)
            with self._lock:
                shard.state = "healthy"

    def _pick_shed_victim_locked(self) -> Optional[GatewayRequest]:
        """Oldest unanswered, not-yet-dispatched request (lock held).

        Requests a worker already pulled are skipped — shedding them would
        waste a forward pass that is already under way.  When everything
        waiting is dispatched (at most ``num_shards * max_batch`` requests)
        the new request is admitted with a transient overshoot instead.
        """
        for request in self._inflight:
            if not request.done and not request.dispatched:
                return request
        return None

    def _retry_after_locked(self) -> float:
        """Backlog-drain estimate for overload responses (lock held)."""
        per_request = self._latency_ewma if self._latency_ewma else 0.05
        return max(0.01, self._outstanding * per_request / self.num_shards)

    def _request_done(self, request: GatewayRequest) -> None:
        """Done-callback bookkeeping: counts, gauges, latency EWMA."""
        elapsed = time.perf_counter() - request.submitted_at
        failed = (not request.future.cancelled()) and (
            request.future.exception() is not None
        )
        if failed:
            self._obs.latency_failed.observe(elapsed)
        with self._lock:
            self._outstanding -= 1
            self._obs.queue_depth.set(self._outstanding)
            alpha = 0.2
            if not failed:
                if self._latency_ewma is None:
                    self._latency_ewma = elapsed
                else:
                    self._latency_ewma += alpha * (elapsed - self._latency_ewma)
            # Compact the admission-order list lazily from the front; done
            # requests in the middle are skipped by the shed scan anyway.
            while self._inflight and self._inflight[0].done:
                self._inflight.pop(0)
