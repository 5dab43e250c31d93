#!/usr/bin/env python3
"""Serve worst-case noise screening for multiple designs from one process.

The paper's punchline is that the trained CNN screens test vectors orders of
magnitude faster than the simulator.  This example shows the serving layer
that turns that into a multi-design screening *service*:

1. trains a quick predictor for two small design variants and registers both
   in a :class:`~repro.serving.registry.PredictorRegistry`,
2. stands up a one-shard :class:`~repro.gateway.ScreeningGateway` and
   screens a mixed stream of vectors against both designs — micro-batched,
   grouped by design, with an LRU result cache absorbing repeats,
3. screens every named workload scenario through the same gateway — the
   workers build each scenario's trace from its name — and prints the
   per-scenario table.

Run with:  python examples/serving_demo.py
"""

from __future__ import annotations

import dataclasses
import tempfile

from repro import (
    ModelConfig,
    PipelineConfig,
    ScreeningGateway,
    TrainingConfig,
    WorstCaseNoiseFramework,
)
from repro.io import ExperimentRecord, format_table, latency_throughput_columns
from repro.pdn.designs import make_design, small_test_design
from repro.obs.metrics import MetricsRegistry
from repro.serving import PredictorRegistry
from repro.workloads import generate_test_vectors
from repro.workloads.scenarios import scenario_families
from repro.workloads.vectors import VectorConfig


def quick_predictor(design):
    """Train a small predictor on random vectors of one design."""
    config = PipelineConfig(
        num_vectors=16,
        num_steps=120,
        compression_rate=0.3,
        model=ModelConfig(distance_kernels=4, fusion_kernels=4, prediction_kernels=4),
        training=TrainingConfig(epochs=15, learning_rate=2e-3, batch_size=4),
        seed=0,
    )
    result = WorstCaseNoiseFramework(design, config).run()
    return result.predictor


def serving_design(name: str):
    """Rebuild a demo design from its registry name (used by gateway workers)."""
    base = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    if name == base.name:
        return base
    return make_design(dataclasses.replace(base.spec, name=name), seed=1)


def main() -> None:
    print("=== 1. Train + register predictors for two design variants ===")
    primary = serving_design("unit-test")
    variant = serving_design("unit-test-b")
    registry = PredictorRegistry(tempfile.mkdtemp(prefix="serving-demo-"), capacity=4)
    for design in (primary, variant):
        registry.register(design.name, quick_predictor(design))
        print(f"registered {design.name} -> {registry.checkpoint_path(design.name).name}")

    print()
    print("=== 2. Screen a mixed vector stream through a one-shard gateway ===")
    vectors = {
        primary.name: generate_test_vectors(
            primary, 24, VectorConfig(num_steps=120, dt=1e-11), seed=5
        ),
        variant.name: generate_test_vectors(
            variant, 24, VectorConfig(num_steps=120, dt=1e-11), seed=6
        ),
    }
    metrics = MetricsRegistry()
    with ScreeningGateway(
        registry.root, num_shards=1, max_batch=16, max_wait=2e-3, metrics=metrics
    ) as gateway:
        futures = []
        for design in (primary, variant):
            for trace in vectors[design.name]:
                futures.append(gateway.submit_async(trace, design))
        results = [future.result() for future in futures]
        # Re-screen the first design's vectors: pure cache hits.
        gateway.screen([(trace, primary) for trace in vectors[primary.name]])
    counts = gateway.counts()
    columns = latency_throughput_columns(metrics.get("gateway.request_latency.ok"))

    worst = max(result.worst_noise for result in results)
    print(f"screened {counts['requests']} requests ({counts['cache_hits']} cache hits, "
          f"{counts['model_batches']} model batches, "
          f"mean batch {counts['mean_batch_size']:.1f})")
    print(f"worst predicted noise across the stream: {worst * 1e3:.1f} mV")
    print(f"p50 latency {columns['p50_latency_ms']:.2f} ms, "
          f"p95 {columns['p95_latency_ms']:.2f} ms, "
          f"{columns['vectors_per_sec']:.0f} vectors/s")

    print()
    print("=== 3. Screen the named scenarios through the gateway ===")
    designs = {design.name: design for design in (primary, variant)}
    items = [(scenario, name) for name in designs for scenario in scenario_families()]
    with ScreeningGateway(
        registry.root, num_shards=1, design_factory=serving_design
    ) as gateway:
        results = gateway.screen(items, num_steps=120)
    records = [
        ExperimentRecord(
            experiment="scenario_screen",
            label=f"{name}:{scenario}",
            values={
                "worst_noise_v": result.worst_noise,
                "mean_noise_v": float(result.noise_map.mean()),
                "hotspot_fraction": float(
                    result.hotspot_map(designs[name].spec.hotspot_threshold).mean()
                ),
            },
        )
        for (scenario, name), result in zip(items, results)
    ]
    print(format_table(records, title="Scenario screening (predicted, no simulation)"))
    print(f"\n{len(items)} scenario screenings through one gateway")


if __name__ == "__main__":
    main()
