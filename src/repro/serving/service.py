"""The screening service: micro-batched, cached, multi-design inference.

:class:`ScreeningService` is the serving front-end of the repository.  Callers
submit test vectors (raw :class:`~repro.sim.waveform.CurrentTrace` objects or
pre-extracted :class:`~repro.features.extraction.VectorFeatures`) against a
design name; a background worker drains the request queue into micro-batches
(up to ``max_batch`` requests, waiting at most ``max_wait`` seconds for the
batch to fill), groups them by design, and runs each group through the
registry's predictor in a single batched forward pass.

Three layers keep redundant work off the model:

1. an LRU **result cache** keyed by vector content + predictor fingerprint,
2. **in-flight coalescing** — concurrent submissions of the same vector share
   one forward pass, and
3. **micro-batching** itself, which amortises per-call overhead and reduces
   the shared distance map once per group instead of once per vector.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.core.inference import NoisePredictor, PredictionResult
from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import Design
from repro.serving.cache import LRUCache, ScreeningPayload, trace_content_hash
from repro.serving.registry import PredictorRegistry
from repro.utils import check_positive, get_logger

_LOG = get_logger("serving.service")


class ServiceClosed(RuntimeError):
    """The service shut down before (or while) a request could be answered.

    Raised synchronously by :meth:`ScreeningService.submit_async` once the
    service is closed, and set on every future that was still queued when
    the worker exited — a caller blocked on ``future.result()`` therefore
    always gets an answer or this error, never a hang.  Subclasses
    :class:`RuntimeError` so pre-existing ``except RuntimeError`` callers
    keep working.
    """


@dataclass
class ScreeningStats:
    """Aggregate counters of a :class:`ScreeningService`."""

    requests: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    model_batches: int = 0
    batched_vectors: int = 0
    max_batch_observed: int = 0
    failures: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requests answered from the result cache."""
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def mean_batch_size(self) -> float:
        """Average number of vectors per model forward pass."""
        return self.batched_vectors / self.model_batches if self.model_batches else 0.0


@dataclass
class _Request:
    """One queued unit of work.

    ``submitted_at`` is the submission timestamp captured at the top of
    :meth:`ScreeningService.submit_async` — the single clock every latency
    sample is measured from, regardless of which path (cache hit, coalesce,
    batch) eventually answers the request.
    """

    payload: ScreeningPayload
    design: Union[Design, str]
    key: str
    content_hash: str
    future: "Future[PredictionResult]"
    submitted_at: float = field(default_factory=time.perf_counter)

    @property
    def design_name(self) -> str:
        return self.design if isinstance(self.design, str) else self.design.name


_SENTINEL = object()


def _safe_resolve(
    future: "Future[PredictionResult]",
    result: Optional[PredictionResult] = None,
    error: Optional[BaseException] = None,
) -> None:
    """Resolve a future, tolerating callers that cancelled it meanwhile."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


def _derived_future(
    primary: "Future[PredictionResult]", name: str
) -> "Future[PredictionResult]":
    """A follower future resolving to a private copy of ``primary``'s result."""
    derived: "Future[PredictionResult]" = Future()

    def _relay(source: "Future[PredictionResult]") -> None:
        if source.cancelled():
            derived.cancel()
            return
        exception = source.exception()
        if exception is not None:
            _safe_resolve(derived, error=exception)
            return
        result = source.result()
        _safe_resolve(
            derived, result=replace(result, noise_map=result.noise_map.copy(), name=name)
        )

    primary.add_done_callback(_relay)
    return derived


class ScreeningService:
    """Batched, cached worst-case noise screening across designs.

    Parameters
    ----------
    registry:
        Source of per-design predictors.
    max_batch:
        Maximum number of requests fused into one forward pass.
    max_wait:
        Seconds the micro-batcher waits for a batch to fill once the first
        request arrived.  Keep this at a couple of milliseconds: large enough
        to fuse concurrent submissions, small enough to be invisible next to
        a forward pass.
    cache_size:
        Capacity of the LRU result cache (entries).
    latency_window:
        Number of recent per-request latencies retained for reporting.
    metrics:
        Metrics registry the service reports into; defaults to the
        process-global :func:`repro.obs.metrics` registry (a no-op registry
        when observability is disabled).  Pass a private live
        :class:`~repro.obs.metrics.MetricsRegistry` to collect latency
        histograms regardless of the global toggle — the evaluation
        protocol does exactly that.
    """

    def __init__(
        self,
        registry: PredictorRegistry,
        max_batch: int = 16,
        max_wait: float = 2e-3,
        cache_size: int = 1024,
        latency_window: int = 4096,
        metrics: Optional[MetricsRegistry] = None,
    ):
        check_positive(max_batch, "max_batch")
        check_positive(max_wait, "max_wait", strict=False)
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.cache: LRUCache[PredictionResult] = LRUCache(cache_size)
        self.stats = ScreeningStats()
        # Instrument handles are resolved once here so the hot paths pay one
        # bound-method call each; with a disabled registry they are shared
        # no-op objects (gated by benchmarks/bench_obs.py).
        self.metrics = metrics if metrics is not None else obs.metrics()
        self._m_requests = self.metrics.counter("serving.requests")
        self._m_cache_hits = self.metrics.counter("serving.cache_hits")
        self._m_coalesced = self.metrics.counter("serving.coalesced")
        self._m_failures = self.metrics.counter("serving.failures")
        self._m_model_batches = self.metrics.counter("serving.model_batches")
        self._m_batched_vectors = self.metrics.counter("serving.batched_vectors")
        self._m_queue_depth = self.metrics.gauge("serving.queue_depth")
        self._m_batch_size = self.metrics.gauge("serving.batch_size")
        self._m_latency = {
            path: self.metrics.histogram(f"serving.request_latency.{path}")
            for path in ("cache_hit", "coalesced", "batched")
        }
        self._queue: "queue.Queue" = queue.Queue()
        self._pending: dict[str, "Future[PredictionResult]"] = {}
        # Guards cache/pending/stats/latencies and the closed flag.  The
        # registry synchronises itself (and performs cold checkpoint loads
        # outside its own lock), so registry access never happens under this
        # lock and a cold load for one design cannot stall cache hits for
        # already-resident designs.
        self._lock = threading.Lock()
        self._latencies: deque[float] = deque(maxlen=int(latency_window))
        self._closed = False
        self._abandon = False
        self._worker = threading.Thread(
            target=self._run_worker, name="screening-service", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # submission API
    # ------------------------------------------------------------------ #

    def submit(self, payload: ScreeningPayload, design: Union[Design, str]) -> PredictionResult:
        """Screen one vector synchronously (blocks until the result is ready)."""
        return self.submit_async(payload, design).result()

    def submit_async(
        self, payload: ScreeningPayload, design: Union[Design, str]
    ) -> "Future[PredictionResult]":
        """Enqueue one vector; the returned future resolves to its prediction.

        ``design`` may be the :class:`Design` object (required when
        ``payload`` is a raw trace, which still needs tiling) or just the
        design name (sufficient for pre-extracted features).
        """
        design_name = design if isinstance(design, str) else design.name
        if not isinstance(payload, VectorFeatures) and isinstance(design, str):
            raise TypeError(
                "raw traces need the Design object for tiling; pass pre-extracted "
                "VectorFeatures when only the design name is available"
            )
        predictor = self._get_predictor(design_name)
        content_hash = trace_content_hash(payload)
        key = f"{predictor.fingerprint}:{content_hash}"
        started = time.perf_counter()

        coalesce_onto: Optional["Future[PredictionResult]"] = None
        with self._lock:
            # Checked under the lock, and the request is enqueued under the
            # same lock: a concurrent close() either rejects this submission
            # or places its shutdown sentinel behind it, so every accepted
            # request is drained before the worker exits.
            if self._closed:
                raise ServiceClosed("service is closed")
            self.stats.requests += 1
            self._m_requests.inc()
            cached = self.cache.get(key)
            if cached is not None:
                self.stats.cache_hits += 1
                self._m_cache_hits.inc()
                future: "Future[PredictionResult]" = Future()
                # Fresh map copy (callers may mutate their result) and the
                # *submitter's* vector name — the key ignores names, so the
                # cached entry may stem from a differently-named twin.
                future.set_result(
                    replace(
                        cached,
                        noise_map=cached.noise_map.copy(),
                        runtime_seconds=time.perf_counter() - started,
                        name=getattr(payload, "name", ""),
                    )
                )
                elapsed = time.perf_counter() - started
                self._latencies.append(elapsed)
                self._m_latency["cache_hit"].observe(elapsed)
                return future
            in_flight = self._pending.get(key)
            if in_flight is not None and not in_flight.done():
                # Coalesce onto the in-flight request; each coalesced caller
                # gets its own derived future with a private map copy and its
                # own vector name — sharing the primary result object would
                # let one caller's mutation corrupt the other's.  A pending
                # future that is already *done* here is stale: cancelled by
                # its caller, or resolved with an error by a batch-worker
                # failure that leaked the entry.  Coalescing onto it would
                # hand new submitters an old failure (or a dead future) with
                # no fresh attempt, so the fresh request below simply
                # replaces it in the pending map.
                self.stats.coalesced += 1
                self._m_coalesced.inc()
                coalesce_onto = in_flight
            else:
                future = Future()
                self._pending[key] = future
                self._queue.put(
                    _Request(
                        payload=payload,
                        design=design,
                        key=key,
                        content_hash=content_hash,
                        future=future,
                        submitted_at=started,
                    )
                )
                self._m_queue_depth.set(self._queue.qsize())
        if coalesce_onto is not None:
            # Built OUTSIDE the lock: if the primary is already done, these
            # done-callbacks run inline right here, and _record_latency takes
            # the (non-reentrant) service lock.  In the rare window where the
            # primary was cancelled after the check above, the cancellation
            # propagates to this caller as well.
            derived = _derived_future(coalesce_onto, getattr(payload, "name", ""))
            derived.add_done_callback(lambda _: self._record_latency(started, "coalesced"))
            return derived
        return future

    def screen(
        self, payloads: Sequence[ScreeningPayload], design: Union[Design, str]
    ) -> list[PredictionResult]:
        """Screen many vectors of one design; results come back in input order.

        Submitting everything before waiting lets the micro-batcher fill its
        batches even with a single caller thread.
        """
        futures = [self.submit_async(payload, design) for payload in payloads]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # introspection / lifecycle
    # ------------------------------------------------------------------ #

    def latencies(self) -> list[float]:
        """Recent per-request latencies in seconds (submission to result).

        All three answer paths (cache hit, coalesce, batch) measure from the
        same submission timestamp, so samples are comparable; the per-path
        split lives in the ``serving.request_latency.*`` histograms of
        :attr:`metrics`.
        """
        with self._lock:
            return list(self._latencies)

    def _record_latency(self, started: float, path: str) -> None:
        elapsed = time.perf_counter() - started
        with self._lock:
            self._latencies.append(elapsed)
            self._m_latency[path].observe(elapsed)

    def close(self, drain: bool = True) -> None:
        """Stop the worker, resolving every accepted future before returning.

        With ``drain=True`` (the default) requests still queued at shutdown
        are processed normally before the worker exits.  With ``drain=False``
        they are rejected immediately with :class:`ServiceClosed` instead of
        paying for their forward passes.  Either way, no accepted future is
        ever abandoned: anything left unresolved once the worker has exited —
        including requests stranded by a crashed worker thread — is rejected
        with :class:`ServiceClosed` so blocked callers wake up.  Idempotent.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
            if not drain:
                self._abandon = True
        if not already_closed:
            self._queue.put(_SENTINEL)
        self._worker.join()
        self._flush_unresolved(ServiceClosed("service closed before the request ran"))

    def __enter__(self) -> "ScreeningService":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # worker internals
    # ------------------------------------------------------------------ #

    def _get_predictor(self, design_name: str) -> NoisePredictor:
        return self.registry.get(design_name)

    def _run_worker(self) -> None:
        # The worker must never die with unresolved futures behind it: a
        # pending-map entry whose future will never resolve makes every later
        # identical submission coalesce onto a dead future.  Batch failures —
        # including BaseExceptions a fault-injecting test or interpreter
        # shutdown may raise — therefore fail the batch's futures before the
        # (possibly fatal) error propagates, and the ``finally`` sweep below
        # marks the service closed and rejects whatever is still queued.
        try:
            while True:
                first = self._queue.get()
                if first is _SENTINEL:
                    break
                batch = [first]
                deadline = time.perf_counter() + self.max_wait
                while len(batch) < self.max_batch:
                    timeout = deadline - time.perf_counter()
                    try:
                        item = self._queue.get(timeout=max(timeout, 0.0)) if timeout > 0 else self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if item is _SENTINEL:
                        self._queue.put(_SENTINEL)
                        break
                    batch.append(item)
                if self._abandon:
                    self._fail_batch(batch, ServiceClosed("service closed before the request ran"))
                    continue
                try:
                    self._process_batch(batch)
                except BaseException as error:
                    self._fail_batch(batch, error)
                    raise
        finally:
            with self._lock:
                self._closed = True
            self._flush_unresolved(
                ServiceClosed("service worker exited before the request ran")
            )

    def _fail_batch(self, batch: list, error: BaseException) -> None:
        """Fail every request of a batch (crash path; keeps the maps clean)."""
        requests = [
            item for item in batch if item is not _SENTINEL and not item.future.done()
        ]
        with self._lock:
            self.stats.failures += len(requests)
            self._m_failures.inc(len(requests))
            for request in requests:
                self._pending.pop(request.key, None)
        for request in requests:
            _safe_resolve(request.future, error=error)

    def _flush_unresolved(self, error: BaseException) -> None:
        """Reject queued requests and stale pending futures after worker exit.

        Only runs once the worker thread is gone (join or crash), so nothing
        races the queue drain.  Futures already resolved are untouched.
        """
        leftovers: list[_Request] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SENTINEL:
                leftovers.append(item)
        with self._lock:
            stale = [future for future in self._pending.values() if not future.done()]
            self._pending.clear()
        for request in leftovers:
            _safe_resolve(request.future, error=error)
        for future in stale:
            _safe_resolve(future, error=error)

    def _process_batch(self, batch: list[_Request]) -> None:
        groups: dict[str, list[_Request]] = {}
        for request in batch:
            groups.setdefault(request.design_name, []).append(request)
        for design_name, requests in groups.items():
            try:
                self._process_group(design_name, requests)
            except Exception as error:  # noqa: BLE001 - forwarded to callers
                with self._lock:
                    self.stats.failures += len(requests)
                    self._m_failures.inc(len(requests))
                    for request in requests:
                        self._pending.pop(request.key, None)
                for request in requests:
                    _safe_resolve(request.future, error=error)
                _LOG.warning("batch for design %s failed: %s", design_name, error)

    def _process_group(self, design_name: str, requests: list[_Request]) -> None:
        predictor = self._get_predictor(design_name)
        features: list[VectorFeatures] = []
        for request in requests:
            if isinstance(request.payload, VectorFeatures):
                features.append(request.payload)
            else:
                features.append(
                    extract_vector_features(
                        request.payload,
                        request.design,
                        compression_rate=predictor.compression_rate,
                        rate_step=predictor.rate_step,
                    )
                )
        results = predictor.predict_batch(features, max_batch=self.max_batch)
        finished = time.perf_counter()
        with self._lock:
            self.stats.model_batches += 1
            self.stats.batched_vectors += len(requests)
            self.stats.max_batch_observed = max(self.stats.max_batch_observed, len(requests))
            self._m_model_batches.inc()
            self._m_batched_vectors.inc(len(requests))
            self._m_batch_size.set(len(requests))
            batched_latency = self._m_latency["batched"]
            for request, result in zip(requests, results):
                # Store a private copy so a caller mutating its returned map
                # cannot poison later cache hits.  The storage key uses the
                # fingerprint of the predictor that actually ran (the registry
                # entry may have been hot-swapped since submission) — a cache
                # entry must never outlive the model that produced it.  A
                # non-finite map (e.g. from a NaN in the payload) is answered
                # but never cached, so a re-submit runs the model again.
                if np.all(np.isfinite(result.noise_map)):
                    store_key = f"{predictor.fingerprint}:{request.content_hash}"
                    self.cache.put(
                        store_key, replace(result, noise_map=result.noise_map.copy())
                    )
                self._pending.pop(request.key, None)
                elapsed = finished - request.submitted_at
                self._latencies.append(elapsed)
                batched_latency.observe(elapsed)
        for request, result in zip(requests, results):
            # A caller may have cancelled its pending future (e.g. after a
            # result(timeout) expiry); that must not derail the rest of the
            # group, whose predictions are valid and already cached.
            _safe_resolve(request.future, result=result)
