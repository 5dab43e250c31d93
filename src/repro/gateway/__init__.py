"""The screening gateway: the one front door of the serving stack.

Where :mod:`repro.serving` provides the building blocks (predictor
registries, the result cache, scenario sweeps), ``repro.gateway`` screens
requests with them — in process as a one-shard gateway, or as a deployable,
supervised service for model-based worst-case noise sign-off at
production scale:

* :class:`~repro.gateway.gateway.ScreeningGateway` — bounded admission that
  refuses overload with a retry-after estimate, consistent-hash sharded
  workers (one warm :class:`~repro.serving.registry.PredictorRegistry`
  partition each), a shared content-hash result cache looked up in each
  shard's batch loop, in-batch coalescing of identical vectors,
  supervisor-driven crash restarts with backoff, hot checkpoint swaps that
  quiesce one shard between batches, and a graceful drain that resolves
  every accepted future;
* :class:`~repro.gateway.server.GatewayServer` — a stdlib asyncio TCP
  front-end speaking newline-delimited JSON.

The shard workers call the process-global :mod:`repro.faults` injector at
dequeue, batch, checkpoint load and swap; the concurrency test suite
(``tests/gateway/``) scripts worker kills, duplicated/delayed deliveries,
and checkpoint-load failures through it.

See ``docs/serving.md`` for the architecture and semantics,
``scripts/run_gateway.py`` for the CLI entry point, and
``benchmarks/bench_gateway.py`` for the throughput gate against a naive
one-request-at-a-time client of a one-shard gateway.
"""

from repro.gateway.gateway import ScreeningGateway
from repro.gateway.messages import (
    GatewayClosed,
    GatewayError,
    GatewayOverloaded,
    GatewayRequest,
    SwapCommand,
    WorkerCrashed,
)
from repro.gateway.ring import ConsistentHashRing
from repro.gateway.server import GatewayServer
from repro.gateway.worker import ShardWorker

__all__ = [
    "ScreeningGateway",
    "GatewayServer",
    "ConsistentHashRing",
    "ShardWorker",
    "GatewayRequest",
    "SwapCommand",
    "GatewayError",
    "GatewayOverloaded",
    "GatewayClosed",
    "WorkerCrashed",
]
