"""Shard worker: the actor that turns queued requests into predictions.

One :class:`ShardWorker` thread owns one shard of the design space.  It
runs the :class:`~repro.serving.batcher.MicroBatcher` loop over its inbox
through the shard's :class:`~repro.serving.registry.PredictorRegistry`, and
adds the swap quiesce points, the stop drain, the fault seams and scenario
payload materialisation.  Because the gateway's consistent-hash ring routes
a design to exactly one shard, the registry partition behind this worker
only ever sees its own designs and keeps their checkpoints warm.

Failure containment is layered:

* a payload that cannot be materialised fails only its own request;
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
from queue import Queue
from typing import Callable

from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.faults import FaultInjector
from repro.gateway.messages import GatewayRequest, SwapCommand
from repro.pdn.designs import Design
from repro.serving.batcher import STOP, MicroBatcher
from repro.serving.registry import PredictorRegistry
from repro.sim.waveform import CurrentTrace
from repro.utils import get_logger
from repro.workloads.scenarios import build_scenario_trace

_LOG = get_logger("gateway.worker")

DesignFactory = Callable[[str], Design]
CrashCallback = Callable[["ShardWorker", BaseException, list], None]
HealthyCallback = Callable[[int], None]


class ShardWorker(threading.Thread, MicroBatcher):
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
        self._inbox = inbox
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
        control = None
        try:
            while True:
                control = self._inbox.get()
                if not self._is_control(control):
                    batch, control = self._fill_batch(control)
                    self._process_batch(batch)
                    batch = []
                if control is STOP:
                    return
                if control is not None:
                    command, control = control, None
                    self._apply_swap(command)
        except BaseException as error:  # noqa: BLE001 - supervised crash path
            survivors = [request for request in batch if not request.done]
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

        :meth:`run` applies a swap command or stop sentinel that ended the
        fill only after the in-hand batch: that is the swap's quiesce point.
        """
        return self._fill(first)

    def _process_batch(self, batch: list[GatewayRequest]) -> None:
        """Predict one micro-batch, one fused forward pass per design group."""
        live = [request for request in batch if not request.done]
        if not live:
            return
        self._faults.before_batch(self.shard_id, live)
        self._obs.batch_size.set(len(live))
        self._predict_groups(live)
        self._obs.shard_depth[self.shard_id].set(self._inbox.qsize())
        self._on_healthy(self.shard_id)

    def _is_control(self, item) -> bool:
        return item is STOP or isinstance(item, SwapCommand)

    def _admit(self, request: GatewayRequest):
        request.dispatched = True
        return self._faults.on_dequeue(self.shard_id, request)

    def _before_load(self, design_name: str) -> None:
        self._faults.on_checkpoint_load(self.shard_id, design_name)

    def _resolve_group(self, predictor, requests: list[GatewayRequest], results) -> None:
        finished = time.perf_counter()
        for request, result in zip(requests, results):
            if request.resolve(result):
                self._obs.latency_ok.observe(finished - request.submitted_at)
            else:
                # Duplicate delivery or crash-requeue race: the request was
                # already answered elsewhere; this prediction is dropped.
                self._obs.duplicates_dropped.inc()

    def _fail_requests(self, requests: list[GatewayRequest], error: BaseException) -> None:
        self._obs.failures.inc(len(requests))
        for request in requests:
            request.fail(error)

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
