"""Shard worker: the actor that turns queued requests into predictions.

One :class:`ShardWorker` thread owns one shard of the design space.  It
runs the gateway's only micro-batch loop: fill a batch from its inbox
within ``max_wait``, group it by design, answer what the gateway's result
cache already holds, and run one fused ``predict_batch`` per design group
through the shard's :class:`~repro.serving.registry.PredictorRegistry`.
Swap commands and the stop sentinel end a fill; the worker applies them
between batches, which is the hot swap's quiesce point.  Because the
consistent-hash ring routes a design to exactly one shard, the registry
partition behind this worker only ever sees its own designs and keeps their
checkpoints warm.

The cache is looked up here, after the group's ``registry.get``, keyed by
the fingerprint of the predictor that will actually serve the request: a
request queued behind a swap can never be answered from the old model's
entries.  Identical vectors in one fill share one feature row (counted as
``coalesced``); a duplicate arriving in a later batch of this sequential
shard is a cache hit instead.

Failure containment is layered:

* a payload that cannot be materialised fails only its own request (and
  its coalesced twins);
* a failing **checkpoint load** or **forward pass** fails that design
  group's requests (typed error on their futures) and the worker lives on;
* an escaping :class:`BaseException` — including the fault seam's
  :class:`~repro.faults.WorkerKilled` — is a **crash**: the worker
  hands every unanswered request it pulled from the inbox (even part-way
  through a fill) to the supervisor's crash callback and exits, leaving
  the inbox (owned by the gateway) intact for its replacement.

The worker never resolves a future twice: every answer goes through
:meth:`GatewayRequest.resolve`/``fail``, so duplicated deliveries and
crash-requeue races collapse to one visible answer per request.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro import faults
from repro.core.inference import PredictionResult
from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.gateway.messages import STOP, GatewayRequest, SwapCommand
from repro.pdn.designs import Design, DesignFactory
from repro.serving.cache import LRUCache, result_cache_key
from repro.serving.registry import PredictorRegistry
from repro.sim.waveform import CurrentTrace
from repro.utils import get_logger
from repro.workloads.scenarios import build_scenario_trace

_LOG = get_logger("gateway.worker")

CrashCallback = Callable[["ShardWorker", BaseException, list], None]
HealthyCallback = Callable[[int], None]


def _answer(request: GatewayRequest, result: PredictionResult, instruments) -> None:
    """Resolve ``request``; a lost race (already answered) counts as a duplicate."""
    if not request.resolve(result):
        instruments.duplicates_dropped.inc()


class ShardWorker(threading.Thread):
    """One supervised worker thread bound to a shard inbox and registry.

    Parameters
    ----------
    shard_id:
        Ring node this worker serves.
    inbox:
        The shard's FIFO queue of :class:`GatewayRequest`/:class:`SwapCommand`
        messages.  Owned by the gateway — it survives worker crashes, so
        queued requests are never lost with the thread.
    registry:
        The shard's predictor partition.  Also gateway-owned: a restarted
        worker inherits the warm LRU of its crashed predecessor.
    cache / cache_lock:
        The gateway's result cache and the one lock every user of it holds.
    design_factory:
        Rebuilds a :class:`Design` from its name for scenario payloads and
        raw traces submitted by name (cached per worker incarnation).
    max_batch / max_wait:
        Micro-batching bounds: at most ``max_batch`` requests per batch,
        waiting at most ``max_wait`` seconds after the first for it to fill.
    instruments:
        The gateway's shared metric handles (``_GatewayInstruments``).
    on_crash / on_healthy:
        Supervisor callbacks: crash hands over unanswered in-hand requests;
        healthy fires after each successful batch and resets crash backoff.
    generation:
        Incarnation counter for this shard (0 = first start), used in the
        thread name so crash logs identify the exact incarnation.
    """

    def __init__(
        self,
        shard_id: int,
        inbox: "queue.Queue",
        registry: PredictorRegistry,
        cache: "LRUCache[PredictionResult]",
        cache_lock: threading.Lock,
        design_factory: DesignFactory,
        max_batch: int,
        max_wait: float,
        instruments,
        on_crash: CrashCallback,
        on_healthy: HealthyCallback,
        generation: int = 0,
    ):
        super().__init__(
            name=f"gateway-shard-{shard_id}-gen{generation}", daemon=True
        )
        self.shard_id = int(shard_id)
        self.generation = int(generation)
        self._inbox = inbox
        self.registry = registry
        self._cache = cache
        self._cache_lock = cache_lock
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self._design_factory = design_factory
        self._designs: dict[str, Design] = {}
        self._obs = instruments
        self._on_crash = on_crash
        self._on_healthy = on_healthy
        #: Requests pulled from the inbox and not yet processed; filled in
        #: place by :meth:`_fill_batch` so a crash mid-fill still hands them
        #: to the supervisor.
        self._in_hand: list[GatewayRequest] = []

    # ------------------------------------------------------------------ #
    # thread body
    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Drain the inbox until the stop sentinel; crash to the supervisor."""
        control = None
        try:
            while True:
                control = self._inbox.get()
                if isinstance(control, GatewayRequest):
                    batch, control = self._fill_batch(control)
                    self._process_batch(batch)
                    # Drop the answered batch now, not when the next request
                    # arrives: an idle shard holds none of its payloads.
                    del batch
                    self._in_hand = []
                if control is STOP:
                    return
                if control is not None:
                    command, control = control, None
                    self._apply_swap(command)
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            survivors = [request for request in self._in_hand if not request.done]
            if isinstance(control, SwapCommand):
                # A swap deferred behind the crashed batch must not be lost
                # with the thread; the replacement worker applies it.
                self._inbox.put(control)
            _LOG.warning(
                "shard %d worker (gen %d) crashed with %d request(s) in hand: %s",
                self.shard_id,
                self.generation,
                len(survivors),
                error,
            )
            self._on_crash(self, error, survivors)

    # ------------------------------------------------------------------ #
    # batching
    # ------------------------------------------------------------------ #

    def _fill_batch(self, first: GatewayRequest):
        """Micro-batch starting from ``first``; returns (batch, control).

        Takes up to ``max_batch`` requests within ``max_wait`` of ``first``.
        A swap command or the stop sentinel ends the fill early and is
        returned as ``control``; :meth:`run` applies it only after the
        in-hand batch — that is the swap's quiesce point.
        """
        batch = self._in_hand = []
        deadline = time.perf_counter() + self.max_wait
        item = first
        while True:
            # In hand before the dequeue seam runs (it may crash the worker);
            # then replaced by the deliveries the seam hands back.
            batch.append(item)
            batch[-1:] = faults.active().on_dequeue(self.shard_id, item)
            if len(batch) >= self.max_batch:
                return batch, None
            timeout = deadline - time.perf_counter()
            try:
                item = self._inbox.get(timeout=timeout) if timeout > 0 else self._inbox.get_nowait()
            except queue.Empty:
                return batch, None
            if not isinstance(item, GatewayRequest):
                return batch, item

    def _process_batch(self, batch: list[GatewayRequest]) -> None:
        """Predict one micro-batch, one fused forward pass per design group."""
        live = [request for request in batch if not request.done]
        if not live:
            return
        faults.active().before_batch(self.shard_id, live)
        groups: dict[str, list[GatewayRequest]] = {}
        for request in live:
            groups.setdefault(request.design_name, []).append(request)
        for design_name, requests in groups.items():
            self._predict_group(design_name, requests)
        self._obs.shard_depth[self.shard_id].set(self._inbox.qsize())
        self._on_healthy(self.shard_id)

    def _predict_group(self, design_name: str, requests: list[GatewayRequest]) -> None:
        """Answer one design group: cache hits first, then one forward pass.

        A failed checkpoint load or forward pass fails the whole group; a
        payload that cannot be materialised fails only its own feature row.
        """
        try:
            faults.active().on_checkpoint_load(self.shard_id, design_name)
            predictor = self.registry.get(design_name)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            self._fail(design_name, requests, error)
            return
        # One feature row per distinct vector; scenario payloads (no content
        # to hash) skip the cache and always get a row of their own.
        keys = [
            result_cache_key(request.payload, predictor)
            if isinstance(request.payload, (CurrentTrace, VectorFeatures))
            else None
            for request in requests
        ]
        with self._cache_lock:
            cached = [self._cache.get(key) if key is not None else None for key in keys]
        rows: dict[object, list[GatewayRequest]] = {}
        for request, key, hit in zip(requests, keys, cached):
            if hit is not None:
                self._obs.cache_hits.inc()
                _answer(request, self._copy_for(request, hit, runtime_seconds=0.0), self._obs)
            else:
                rows.setdefault(key if key is not None else id(request), []).append(request)
        ready, features = [], []
        for key, twins in rows.items():
            try:
                features.append(self._materialise(twins[0], predictor))
                ready.append((key, twins))
            except Exception as error:  # noqa: BLE001 - forwarded to the callers
                self._fail(design_name, twins, error)
        if not ready:
            return
        try:
            results = predictor.predict_batch(features, max_batch=self.max_batch)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            self._fail(design_name, [request for _, twins in ready for request in twins], error)
            return
        self._obs.model_batches.inc()
        self._obs.batched_vectors.inc(len(features))
        self._obs.batch_size.set(len(features))
        # A private copy goes into the cache so a caller mutating its map
        # cannot poison later hits; a non-finite map is answered but never
        # cached, so a resubmission runs the model again.  (Rows keyed by a
        # request id are scenario payloads, which skip the cache.)
        stored = [
            (key, replace(result, noise_map=result.noise_map.copy()))
            for (key, _), result in zip(ready, results)
            if isinstance(key, str) and np.all(np.isfinite(result.noise_map))
        ]
        if stored:
            with self._cache_lock:
                for key, result in stored:
                    self._cache.put(key, result)
        for (_, twins), result in zip(ready, results):
            if len(twins) > 1:
                self._obs.coalesced.inc(len(twins) - 1)
            # Twins get their copies before the first caller's done-callbacks
            # can touch the shared map.
            for twin in twins[1:]:
                _answer(twin, self._copy_for(twin, result), self._obs)
            _answer(twins[0], result, self._obs)

    @staticmethod
    def _copy_for(request: GatewayRequest, result: PredictionResult, **changes) -> PredictionResult:
        """A private copy of a shared result, named after ``request``'s vector."""
        return replace(
            result,
            noise_map=result.noise_map.copy(),
            name=getattr(request.payload, "name", ""),
            **changes,
        )

    def _fail(self, design_name: str, requests: list[GatewayRequest], error: BaseException) -> None:
        self._obs.failures.inc(len(requests))
        for request in requests:
            request.fail(error)
        _LOG.warning("%s: %d request(s) for design %s failed: %s",
                     self.name, len(requests), design_name, error)

    def _materialise(self, request: GatewayRequest, predictor) -> VectorFeatures:
        """Turn any accepted payload into extracted features."""
        payload = request.payload
        if isinstance(payload, VectorFeatures):
            return payload
        if isinstance(payload, CurrentTrace):
            trace = payload
        else:  # scenario family name or ScenarioSpec
            trace = build_scenario_trace(
                payload,
                self._design(request),
                num_steps=request.num_steps,
                dt=request.dt,
                seed=request.seed,
            )
        return extract_vector_features(
            trace,
            self._design(request),
            compression_rate=predictor.compression_rate,
            rate_step=predictor.rate_step,
        )

    def _design(self, request: GatewayRequest) -> Design:
        """The request's design object (factory-built and cached by name)."""
        if isinstance(request.design, Design):
            return request.design
        design = self._designs.get(request.design)
        if design is None:
            design = self._design_factory(request.design)
            self._designs[request.design] = design
        return design

    # ------------------------------------------------------------------ #
    # control messages
    # ------------------------------------------------------------------ #

    def _apply_swap(self, command: SwapCommand) -> None:
        """Apply a hot checkpoint swap at this quiesce point."""
        try:
            faults.active().before_swap(self.shard_id, command.design_name)
            if command.predictor is not None:
                self.registry.register(
                    command.design_name, command.predictor, persist=command.persist
                )
            else:
                self.registry.evict(command.design_name)
            fingerprint = self.registry.get(command.design_name).fingerprint
        except BaseException as error:  # noqa: BLE001 - forwarded to swapper
            try:
                command.done.set_exception(error)
            except Exception:  # pragma: no cover - done future already resolved
                pass
            if not isinstance(error, Exception):
                raise
            return
        self._obs.swaps.inc()
        try:
            command.done.set_result(fingerprint)
        except Exception:  # pragma: no cover - done future already resolved
            pass
        _LOG.info(
            "shard %d swapped checkpoint for %s (fingerprint %s)",
            self.shard_id,
            command.design_name,
            fingerprint[:12],
        )
