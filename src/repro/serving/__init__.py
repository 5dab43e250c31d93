"""Serving building blocks: checkpoints and the result cache.

The trained CNN replaces the transient simulator precisely because it is
orders of magnitude faster — this subpackage holds the pieces that turn
that speed into *throughput*.  The front door that screens requests is
:class:`repro.gateway.ScreeningGateway` (one shard for in-process use);
this package provides what it is built from:

* :class:`~repro.serving.registry.PredictorRegistry` — per-design predictor
  checkpoints with LRU residency, so one process serves every design;
* :class:`~repro.serving.cache.LRUCache` and
  :func:`~repro.serving.cache.trace_content_hash` — the gateway's result
  cache and its content key.

See ``docs/serving.md`` for how the pieces fit together and
``benchmarks/bench_serving.py`` for measured throughput.
"""

from repro.serving.cache import LRUCache, result_cache_key, trace_content_hash
from repro.serving.registry import PredictorRegistry

__all__ = [
    "LRUCache",
    "result_cache_key",
    "trace_content_hash",
    "PredictorRegistry",
]
