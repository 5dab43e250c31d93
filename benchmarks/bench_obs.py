"""Telemetry overhead gate: `repro.obs` must stay invisible on the hot path.

Every serving request touches a handful of :mod:`repro.obs` instruments
(request counter, shard- and queue-depth gauges, latency histogram, plus
the per-batch counters amortised over the batch).  The whole design bet of the
metrics registry — null-object instruments when disabled, lock-free
counters/gauges and a ``bisect`` histogram when enabled — is that those
touches cost nanoseconds against a millisecond-scale model call.  This
benchmark holds that bet to numbers:

1. **Op-cost accounting** — time the three instrument operations directly
   (100k iterations each against a disabled and an enabled registry) and
   require that ``OPS_PER_REQUEST`` worst-case touches cost at most
   ``DISABLED_BUDGET`` (1%) of a mean un-instrumented request when disabled
   and ``ENABLED_BUDGET`` (5%) when enabled.
2. **Wall-clock A/B** — screen the same vector set through two otherwise
   identical one-shard :class:`ScreeningGateway` instances, one built on
   the null registry and one on a live registry, and require the live pass to stay
   within ``WALL_CLOCK_SLACK`` of the null pass (a coarse backstop against
   accidental locks/allocations sneaking onto the request path; the precise
   1%/5% gates are carried by the op-cost accounting above, which does not
   suffer scheduler noise).

The un-instrumented reference latency is the null-registry gateway pass:
null instruments compile to a single no-op method call, so that pass is the
pre-instrumentation serving bench to within one op-cost (itself gated below
1%).  Results land in ``benchmarks/results/obs.{json,csv}`` and a trajectory
entry is appended to the repo-root ``BENCH_obs.json``.
"""

from __future__ import annotations

import time

import pytest

from common import REPO_ROOT, append_trajectory, best_of, save_records
from repro.core.config import ModelConfig
from repro.core.inference import NoisePredictor
from repro.core.model import WorstCaseNoiseNet
from repro.datagen import git_revision
from repro.features.extraction import (
    FeatureNormalizer,
    distance_feature,
    extract_vector_features,
)
from repro.gateway import ScreeningGateway
from repro.io import ExperimentRecord
from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.pdn import small_test_design
from repro.serving import PredictorRegistry
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig

NUM_VECTORS = 48
MAX_BATCH = 16
ROUNDS = 3

#: Worst-case instrument touches per answered request in a one-shard
#: ``ScreeningGateway``: the request counter and shard-depth gauge at
#: admission, the queue-depth gauge and one latency-histogram observe at the
#: answer, and a cache-hit or coalesced count; plus the per-batch
#: model-batch and batched-vector counters and batch-size and shard-depth
#: gauges — charged per *request* here rather than amortised over the
#: batch, as a deliberate over-count.
OPS_PER_REQUEST = 9

#: Timed iterations per instrument op (keeps per-op timing noise < 1 ns).
OP_ITERATIONS = 100_000

#: Disabled instrumentation must cost <= 1% of a mean request.
DISABLED_BUDGET = 0.01

#: Enabled instrumentation must cost <= 5% of a mean request.
ENABLED_BUDGET = 0.05

#: Wall-clock backstop: live-registry pass within 25% of the null pass.
WALL_CLOCK_SLACK = 1.25


def _op_cost(registry) -> float:
    """Mean seconds per instrument operation against ``registry``.

    Exercises the three hot-path operations — counter ``inc``, gauge
    ``set``, histogram ``observe`` — in one interleaved loop (the same mix
    a serving request generates) and averages over all of them.
    """
    counter = registry.counter("obs_bench.counter")
    gauge = registry.gauge("obs_bench.gauge")
    histogram = registry.histogram("obs_bench.latency")
    started = time.perf_counter()
    for index in range(OP_ITERATIONS):
        counter.inc()
        gauge.set(float(index))
        histogram.observe(1.5e-4)
    elapsed = time.perf_counter() - started
    return elapsed / (3 * OP_ITERATIONS)


@pytest.fixture(scope="module")
def screening_setup(tmp_path_factory):
    """Design, registry, and pre-extracted features for the A/B passes."""
    design = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    model = WorstCaseNoiseNet(
        num_bumps=design.grid.num_bumps,
        config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=0
        ),
    )
    normalizer = FeatureNormalizer(
        current_scale=0.05, distance_scale=1000.0, noise_scale=0.15
    )
    predictor = NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance_feature(design),
        compression_rate=0.3,
    )
    registry = PredictorRegistry(tmp_path_factory.mktemp("obs-bench"), capacity=2)
    registry.register(design.name, predictor)
    traces = generate_test_vectors(
        design, NUM_VECTORS, VectorConfig(num_steps=120, dt=1e-11), seed=23
    )
    features = [
        extract_vector_features(
            trace, design, compression_rate=predictor.compression_rate
        )
        for trace in traces
    ]
    # Warm allocator/BLAS once so neither A/B pass pays first-call costs.
    predictor.predict_batch(features, max_batch=MAX_BATCH)
    return design, registry, features


def _cold_screen_seconds(registry, design, features, metrics) -> float:
    """Best-of-N cold screening pass through a gateway built on ``metrics``."""
    items = [(item, design.name) for item in features]
    with ScreeningGateway(
        registry.root, num_shards=1, max_batch=MAX_BATCH, max_wait=2e-3, metrics=metrics
    ) as gateway:
        gateway.screen(items)  # warm the worker thread

        def cold_pass():
            gateway.cache.clear()
            return gateway.screen(items)

        seconds, _ = best_of(ROUNDS, cold_pass)
    return seconds


def test_obs_overhead_gate(benchmark, screening_setup):
    """Disabled instrumentation <= 1%, enabled <= 5% of a mean request."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    design, registry, features = screening_setup

    null_cost = _op_cost(NULL_REGISTRY)
    live_cost = _op_cost(MetricsRegistry())

    null_seconds = _cold_screen_seconds(registry, design, features, NULL_REGISTRY)
    live_seconds = _cold_screen_seconds(registry, design, features, MetricsRegistry())
    mean_request = null_seconds / len(features)

    disabled_fraction = OPS_PER_REQUEST * null_cost / mean_request
    enabled_fraction = OPS_PER_REQUEST * live_cost / mean_request
    wall_clock_ratio = live_seconds / null_seconds

    records = [
        ExperimentRecord(
            "obs",
            "disabled_registry",
            {
                "op_cost_ns": null_cost * 1e9,
                "request_overhead_pct": disabled_fraction * 100.0,
                "budget_pct": DISABLED_BUDGET * 100.0,
                "screen_total_s": null_seconds,
            },
        ),
        ExperimentRecord(
            "obs",
            "enabled_registry",
            {
                "op_cost_ns": live_cost * 1e9,
                "request_overhead_pct": enabled_fraction * 100.0,
                "budget_pct": ENABLED_BUDGET * 100.0,
                "screen_total_s": live_seconds,
            },
        ),
        ExperimentRecord(
            "obs",
            "wall_clock_ab",
            {
                "null_s": null_seconds,
                "live_s": live_seconds,
                "ratio": wall_clock_ratio,
                "max_ratio": WALL_CLOCK_SLACK,
            },
        ),
    ]
    save_records(records, "obs", "Telemetry overhead — instrument ops vs request cost")
    append_trajectory(
        "obs",
        {
            "timestamp": time.time(),
            "git_rev": git_revision(REPO_ROOT),
            "null_op_ns": null_cost * 1e9,
            "live_op_ns": live_cost * 1e9,
            "disabled_overhead_pct": disabled_fraction * 100.0,
            "enabled_overhead_pct": enabled_fraction * 100.0,
            "wall_clock_ratio": wall_clock_ratio,
        },
        header={
            "metric": "instrumentation overhead per serving request",
            "disabled_budget_pct": DISABLED_BUDGET * 100.0,
            "enabled_budget_pct": ENABLED_BUDGET * 100.0,
        },
    )

    # Gate 1: disabled instruments are free to within 1% of a request.
    assert disabled_fraction <= DISABLED_BUDGET, (
        f"disabled instrumentation costs {disabled_fraction:.2%} of a mean "
        f"request ({null_cost * 1e9:.0f} ns/op x {OPS_PER_REQUEST} ops vs "
        f"{mean_request * 1e6:.0f} us/request; budget {DISABLED_BUDGET:.0%})"
    )
    # Gate 2: live instruments stay within 5%.
    assert enabled_fraction <= ENABLED_BUDGET, (
        f"enabled instrumentation costs {enabled_fraction:.2%} of a mean "
        f"request ({live_cost * 1e9:.0f} ns/op x {OPS_PER_REQUEST} ops vs "
        f"{mean_request * 1e6:.0f} us/request; budget {ENABLED_BUDGET:.0%})"
    )
    # Backstop: the live gateway pass tracks the null pass wall-clock.
    assert wall_clock_ratio <= WALL_CLOCK_SLACK, (
        f"live-registry screening pass is {wall_clock_ratio:.2f}x the "
        f"null-registry pass (backstop {WALL_CLOCK_SLACK}x)"
    )
