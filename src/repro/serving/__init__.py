"""Serving layer: batched, cached, multi-design noise screening at scale.

The trained CNN replaces the transient simulator precisely because it is
orders of magnitude faster — this subpackage is where that speed is turned
into *throughput*.  It provides:

* :class:`~repro.serving.registry.PredictorRegistry` — per-design predictor
  checkpoints with LRU residency, so one process serves every design;
* :class:`~repro.serving.service.ScreeningService` — a micro-batching
  front-end with an LRU result cache and in-flight coalescing;
* :func:`~repro.serving.sweep.screen_scenarios` — a worker-pool sweep that
  fans workload scenarios across processes and aggregates
  :class:`~repro.io.results.ExperimentRecord` rows.

See ``DESIGN.md`` for how the pieces fit together and
``benchmarks/bench_serving.py`` for measured throughput.
"""

from repro.serving.cache import (
    CacheStats,
    LRUCache,
    result_cache_key,
    trace_content_hash,
)
from repro.serving.registry import PredictorRegistry, RegistryStats
from repro.serving.service import ScreeningService, ServiceClosed, service_counts
from repro.serving.sweep import (
    ScenarioJob,
    default_design_factory,
    screen_scenarios,
)

__all__ = [
    "CacheStats",
    "LRUCache",
    "result_cache_key",
    "trace_content_hash",
    "PredictorRegistry",
    "RegistryStats",
    "ScreeningService",
    "ServiceClosed",
    "service_counts",
    "ScenarioJob",
    "default_design_factory",
    "screen_scenarios",
]
