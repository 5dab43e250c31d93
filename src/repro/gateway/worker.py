"""Shard worker: the actor that turns queued requests into predictions.

One :class:`ShardWorker` thread owns one shard of the design space.  It
drains its inbox into micro-batches (``max_batch``/``max_wait``, same
discipline as :class:`~repro.serving.service.ScreeningService`), groups each
batch by design, materialises scenario payloads into traces, and pushes each
group through the shard's :class:`~repro.serving.registry.PredictorRegistry`
in one batched forward pass.  Because the gateway's consistent-hash ring
routes a design to exactly one shard, the registry partition behind this
worker only ever sees its own designs and keeps their checkpoints warm.

Failure containment is layered:

* a failing **checkpoint load** or **forward pass** fails that design
  group's requests (typed error on their futures) and the worker lives on;
* an escaping :class:`BaseException` — including the fault seam's
  :class:`~repro.faults.WorkerKilled` — is a **crash**: the worker
  hands its unanswered in-hand requests to the supervisor's crash callback
  and exits, leaving the inbox (owned by the gateway) intact for its
  replacement.

The worker never resolves a future twice: every answer goes through
:meth:`GatewayRequest.resolve`/``fail``, so duplicated deliveries and
crash-requeue races collapse to one visible answer per request.
"""

from __future__ import annotations

import threading
import time
from queue import Empty, Queue
from typing import Callable, Optional

from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.faults import FaultInjector
from repro.gateway.messages import STOP, GatewayRequest, SwapCommand
from repro.pdn.designs import Design
from repro.serving.registry import PredictorRegistry
from repro.sim.waveform import CurrentTrace
from repro.utils import get_logger
from repro.workloads.scenarios import build_scenario_trace

_LOG = get_logger("gateway.worker")

DesignFactory = Callable[[str], Design]
CrashCallback = Callable[["ShardWorker", BaseException, list], None]
HealthyCallback = Callable[[int], None]


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
    design_factory:
        Rebuilds a :class:`Design` from its name for scenario payloads and
        raw traces submitted by name (cached per worker incarnation).
    max_batch / max_wait:
        Micro-batching bounds, as in the screening service.
    faults:
        Fault-injection seam; hooks run at dequeue, batch, load and swap.
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
        inbox: "Queue",
        registry: PredictorRegistry,
        design_factory: DesignFactory,
        max_batch: int,
        max_wait: float,
        faults: FaultInjector,
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
        self.inbox = inbox
        self.registry = registry
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self._design_factory = design_factory
        self._designs: dict[str, Design] = {}
        self._faults = faults
        self._obs = instruments
        self._on_crash = on_crash
        self._on_healthy = on_healthy

    # ------------------------------------------------------------------ #
    # thread body
    # ------------------------------------------------------------------ #

    def run(self) -> None:
        """Drain the inbox until the stop sentinel; crash to the supervisor."""
        batch: list[GatewayRequest] = []
        commands: list[SwapCommand] = []
        try:
            while True:
                first = self.inbox.get()
                if first is STOP:
                    return
                if isinstance(first, SwapCommand):
                    self._apply_swap(first)
                    continue
                batch, commands, stopping = self._fill_batch(first)
                self._process_batch(batch)
                batch = []
                while commands:
                    self._apply_swap(commands.pop(0))
                if stopping:
                    return
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            survivors = [request for request in batch if not request.done]
            for command in commands:
                # A swap deferred behind the crashed batch must not be lost
                # with the thread; the replacement worker applies it.
                self.inbox.put(command)
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
        """Micro-batch starting from ``first``; returns (batch, swaps, stop).

        Swap commands encountered while filling are deferred until after the
        in-hand batch — that *is* the quiesce point: requests dequeued before
        the command keep their old checkpoint, everything behind it sees the
        new one.  A stop sentinel ends filling and is honoured after the
        batch completes (graceful drain processes, never abandons).
        """
        first.dispatched = True
        batch = list(self._faults.on_dequeue(self.shard_id, first))
        commands: list[SwapCommand] = []
        deadline = time.perf_counter() + self.max_wait
        stopping = False
        while len(batch) < self.max_batch:
            timeout = deadline - time.perf_counter()
            try:
                if timeout > 0:
                    item = self.inbox.get(timeout=timeout)
                else:
                    item = self.inbox.get_nowait()
            except Empty:
                break
            if item is STOP:
                stopping = True
                break
            if isinstance(item, SwapCommand):
                commands.append(item)
                break
            item.dispatched = True
            batch.extend(self._faults.on_dequeue(self.shard_id, item))
        return batch, commands, stopping

    def _process_batch(self, batch: list[GatewayRequest]) -> None:
        """Predict one micro-batch, one fused forward pass per design group."""
        live = [request for request in batch if not request.done]
        if not live:
            return
        self._faults.before_batch(self.shard_id, live)
        groups: dict[str, list[GatewayRequest]] = {}
        for request in live:
            groups.setdefault(request.design_name, []).append(request)
        self._obs.batch_size.set(len(live))
        for design_name, requests in groups.items():
            self._process_group(design_name, requests)
        self._obs.shard_depth[self.shard_id].set(self.inbox.qsize())
        self._on_healthy(self.shard_id)

    def _process_group(self, design_name: str, requests: list[GatewayRequest]) -> None:
        """One design's slice of a batch; failures stay inside the group."""
        try:
            self._faults.on_checkpoint_load(self.shard_id, design_name)
            predictor = self.registry.get(design_name)
            features = [self._materialise(request, predictor) for request in requests]
            results = predictor.predict_batch(features, max_batch=self.max_batch)
        except Exception as error:  # noqa: BLE001 - forwarded to callers
            self._obs.failures.inc(len(requests))
            for request in requests:
                request.fail(error)
            _LOG.warning(
                "shard %d batch for design %s failed: %s",
                self.shard_id,
                design_name,
                error,
            )
            return
        finished = time.perf_counter()
        for request, result in zip(requests, results):
            if request.resolve(result):
                self._obs.latency_ok.observe(finished - request.submitted_at)
            else:
                # Duplicate delivery or crash-requeue race: the request was
                # already answered elsewhere; this prediction is dropped.
                self._obs.duplicates_dropped.inc()

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
            self._faults.before_swap(self.shard_id, command.design_name)
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
