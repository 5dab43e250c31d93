"""The screening gateway: admission, sharding, caching, supervision.

:class:`ScreeningGateway` is the one front door of the serving stack.  A
one-shard gateway is the in-process screening service (the evaluation
protocol and the benchmarks build exactly that); with more shards it runs
as a long-lived service under sustained mixed-design traffic:

* **Admission control** — a bounded queue that rejects excess submissions
  with :class:`~repro.gateway.messages.GatewayOverloaded` (carrying an
  honest ``retry_after_s`` estimate).
* **Sharded workers** — a fixed hash of the design name maps each design
  to one of ``num_shards`` worker threads, each owning a private
  :class:`~repro.serving.registry.PredictorRegistry` partition whose LRU
  stays warm because no other shard ever touches its designs.
* **Supervision** — a supervisor thread restarts crashed workers with
  exponential backoff, requeues the crash's unanswered in-hand requests
  (bounded by :data:`MAX_RETRIES`), and reports per-shard health states.
* **Result cache** — one LRU of predictions keyed by vector content and
  the serving predictor's fingerprint, shared by every shard and surviving
  worker restarts; the shard's batch loop looks it up (see
  :mod:`repro.gateway.worker`), so a cached answer never outlives its model.
* **Hot swaps** — :meth:`ScreeningGateway.swap_checkpoint` quiesces only the
  owning shard, between batches, so in-flight requests finish on the old
  checkpoint and nothing is dropped.  In-memory predictors (freshly trained,
  or test doubles) enter the gateway this way with ``persist=False``.
* **Graceful drain** — :meth:`ScreeningGateway.close` stops admission, lets
  workers finish the backlog, and guarantees every accepted future resolves
  (with a result or a typed error; never a hang).

Every layer publishes through :mod:`repro.obs`: ``gateway.*`` counters
(requests, rejected, retries, restarts, swaps, failures,
duplicates_dropped, cache_hits, coalesced, model_batches, batched_vectors),
queue-depth, batch-size and per-shard depth gauges, and
``gateway.request_latency.{ok,failed}`` histograms.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import queue
import threading
import time
from concurrent.futures import Future, wait as futures_wait
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import obs
from repro.core.inference import NoisePredictor, PredictionResult
from repro.gateway.messages import (
    STOP,
    GatewayClosed,
    GatewayOverloaded,
    GatewayRequest,
    SwapCommand,
    WorkerCrashed,
)
from repro.gateway.worker import DesignFactory, ShardWorker
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import Design, design_from_name
from repro.serving.cache import LRUCache
from repro.serving.registry import PredictorRegistry
from repro.utils import check_positive, get_logger

_LOG = get_logger("gateway")

#: LRU capacity (predictors) of each shard's registry partition.
REGISTRY_CAPACITY = 4

#: Capacity (entries) of the gateway's LRU result cache.
CACHE_SIZE = 1024

#: Times a request stranded by worker crashes is requeued before it fails
#: with :class:`WorkerCrashed`.
MAX_RETRIES = 2

#: Supervisor restart backoff: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(crashes-1))``
#: seconds, reset after the shard's next successful batch.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0


def _shard_of(design_name: str, num_shards: int) -> int:
    """The shard serving a design: SHA-256 of its name, modulo the shard count.

    The first 8 bytes of the digest, read big-endian, so the mapping is the
    same in every process and Python run (no ``PYTHONHASHSEED``).  The
    shard set is fixed for a gateway's lifetime — registries live in
    memory, so a resize is a restart — and nothing needs to survive one.
    """
    digest = hashlib.sha256(design_name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


class _GatewayInstruments:
    """Pre-resolved metric handles shared by the gateway and its workers."""

    def __init__(self, metrics: MetricsRegistry, num_shards: int):
        self.requests = metrics.counter("gateway.requests")
        self.rejected = metrics.counter("gateway.rejected")
        self.retries = metrics.counter("gateway.retries")
        self.restarts = metrics.counter("gateway.restarts")
        self.swaps = metrics.counter("gateway.swaps")
        self.failures = metrics.counter("gateway.failures")
        self.duplicates_dropped = metrics.counter("gateway.duplicates_dropped")
        self.cache_hits = metrics.counter("gateway.cache_hits")
        self.coalesced = metrics.counter("gateway.coalesced")
        self.model_batches = metrics.counter("gateway.model_batches")
        self.batched_vectors = metrics.counter("gateway.batched_vectors")
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
        (each shard only ever loads the designs :meth:`shard_for` assigns
        to it).
    num_shards:
        Worker count.  Each worker serves one hash partition of the design
        space with its own registry LRU.
    queue_limit:
        Maximum admitted-but-unanswered requests across the gateway; beyond
        it new requests are refused with :class:`GatewayOverloaded`.
    max_batch / max_wait:
        Per-worker micro-batching bounds: at most ``max_batch`` requests per
        forward pass, waiting at most ``max_wait`` seconds after the first
        request for the batch to fill.  Keep ``max_wait`` at a couple of
        milliseconds: enough to fuse concurrent submissions, invisible next
        to a forward pass.
    design_factory:
        Rebuilds :class:`Design` objects from names for scenario payloads
        and raw traces submitted by name (defaults to
        :func:`repro.pdn.designs.design_from_name`).
    metrics:
        Metrics registry to publish into; defaults to the process-global
        :func:`repro.obs.metrics` registry (a no-op registry when
        observability is disabled).  Pass a private live
        :class:`~repro.obs.metrics.MetricsRegistry` to collect counts and
        latency histograms regardless of the global toggle, as the
        evaluation protocol does.
    """

    def __init__(
        self,
        registry_root: Union[str, Path],
        num_shards: int = 2,
        queue_limit: int = 256,
        max_batch: int = 16,
        max_wait: float = 2e-3,
        design_factory: DesignFactory = design_from_name,
        metrics: Optional[MetricsRegistry] = None,
    ):
        check_positive(num_shards, "num_shards")
        check_positive(queue_limit, "queue_limit")
        check_positive(max_batch, "max_batch")
        check_positive(max_wait, "max_wait", strict=False)
        self.registry_root = Path(registry_root)
        self.num_shards = int(num_shards)
        self.queue_limit = int(queue_limit)
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.metrics = metrics if metrics is not None else obs.metrics()
        self._obs = _GatewayInstruments(self.metrics, self.num_shards)
        self._design_factory = design_factory
        #: Result cache shared by every shard (workers hold
        #: ``_cache_lock`` around each use).
        self.cache: LRUCache[PredictionResult] = LRUCache(CACHE_SIZE)
        self._cache_lock = threading.Lock()
        self._lock = threading.Lock()
        self._closed = False
        self._outstanding = 0
        #: Admitted, unanswered requests in admission order, keyed by an
        #: admission number; each answer pops its own entry.
        self._inflight: dict[int, GatewayRequest] = {}
        self._admissions = itertools.count()
        self._latency_ewma: Optional[float] = None
        self._shards: dict[int, _Shard] = {}
        for shard_id in range(self.num_shards):
            shard = _Shard(shard_id=shard_id)
            shard.registry = PredictorRegistry(
                self.registry_root, capacity=REGISTRY_CAPACITY
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
        :class:`GatewayOverloaded` when the admission queue is full.
        Thread-safe and non-blocking — safe to call from an event loop.
        """
        request = GatewayRequest(
            payload=payload, design=design, num_steps=num_steps, dt=dt, seed=seed
        )
        with self._lock:
            if self._closed:
                raise GatewayClosed("gateway is closed")
            self._obs.requests.inc()
            if self._outstanding >= self.queue_limit:
                self._obs.rejected.inc()
                raise GatewayOverloaded(self._retry_after_locked())
            self._outstanding += 1
            key = next(self._admissions)
            self._inflight[key] = request
        # The callback must not reference the request: a resolved future
        # keeps its callbacks, and request -> future -> callback -> request
        # would be a cycle that only the cyclic GC could free.
        request.future.add_done_callback(
            partial(self._request_done, key, request.submitted_at)
        )
        shard = self._shards[self.shard_for(request.design_name)]
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
        even from a single caller thread.
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
        shard = self._shards[self.shard_for(design_name)]
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
        """The shard id serving a design (stable across runs)."""
        return _shard_of(design_name, self.num_shards)

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

    def counts(self) -> dict:
        """Serving counts from :attr:`metrics` (all zero when it is disabled).

        The ``gateway.*`` counters ``requests``, ``cache_hits``,
        ``coalesced``, ``model_batches``, ``batched_vectors`` and
        ``failures``, plus ``max_batch_observed`` (the largest forward pass,
        the ``gateway.batch_size`` gauge's max), ``mean_batch_size`` and
        ``cache_hit_rate``.
        """
        names = ("requests", "cache_hits", "coalesced", "model_batches", "batched_vectors", "failures")
        counts = {name: getattr(self.metrics.get(f"gateway.{name}"), "value", 0) for name in names}
        sizes = self.metrics.get("gateway.batch_size")
        counts["max_batch_observed"] = int(sizes.max) if sizes is not None and sizes.count else 0
        counts["mean_batch_size"] = counts["batched_vectors"] / max(counts["model_batches"], 1)
        counts["cache_hit_rate"] = counts["cache_hits"] / max(counts["requests"], 1)
        return counts

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
            pending = [request for request in self._inflight.values() if not request.done]
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
            cache=self.cache,
            cache_lock=self._cache_lock,
            design_factory=self._design_factory,
            max_batch=self.max_batch,
            max_wait=self.max_wait,
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
                if request.attempts > MAX_RETRIES:
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
            delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (crashes - 1)))
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

    def _retry_after_locked(self) -> float:
        """Backlog-drain estimate for overload responses (lock held)."""
        per_request = self._latency_ewma if self._latency_ewma else 0.05
        return max(0.01, self._outstanding * per_request / self.num_shards)

    def _request_done(self, key: int, submitted_at: float, future: Future) -> None:
        """Done-callback bookkeeping: latency, queue depth, latency EWMA.

        The one place a request's latency is observed, whichever path
        (forward pass, cache hit, coalesced twin, failure) answered it; the
        queue-depth gauge samples the backlog each answer leaves behind.
        It also pops the request's admission entry, so the gateway keeps
        nothing of an answered request.
        """
        elapsed = time.perf_counter() - submitted_at
        cancelled = future.cancelled()
        failed = not cancelled and future.exception() is not None
        if not cancelled:
            (self._obs.latency_failed if failed else self._obs.latency_ok).observe(elapsed)
        with self._lock:
            del self._inflight[key]
            self._outstanding -= 1
            self._obs.queue_depth.set(self._outstanding)
            alpha = 0.2
            if not failed:
                if self._latency_ewma is None:
                    self._latency_ewma = elapsed
                else:
                    self._latency_ewma += alpha * (elapsed - self._latency_ewma)
