"""Gateway throughput: a two-shard gateway vs a naive one-at-a-time client.

The gateway runs the serving stack as a long-lived front door — admission
control, sharded workers, supervision — and none of that may cost
throughput.  This benchmark drives an identical **mixed-design load** (two
designs, interleaved requests, pre-extracted features) through:

* ``bare_service_loop`` — the naive client against a one-shard
  :class:`ScreeningGateway` (the in-process screening service): submit one
  request, wait for its result, move on.  Every request pays a full forward
  pass; micro-batching never fills.
* ``service_pipelined`` — the same one-shard gateway driven by a client
  that submits everything before collecting (informational row: a single
  pipelined worker is the throughput ceiling on a single-core host).
* ``gateway_2_shards`` — a two-shard :class:`ScreeningGateway` where
  hash sharding gives each design its own supervised worker and warm
  registry partition.

Every pass starts from an empty result cache, so each row measures model
passes, not cache replay.  Every row reports p50/p99 latency and sustained
vectors/sec via :func:`latency_throughput_columns`; the gate asserts the
two-shard gateway sustains at least the naive loop's throughput —
admission, sharding, and supervision must come at no cost over what a
naive client gets from one shard.  Results append to ``BENCH_gateway.json``.

Runs under pytest (``python -m pytest benchmarks/bench_gateway.py``) or as a
script wrapping a telemetry run::

    python benchmarks/bench_gateway.py --smoke
    python scripts/obs_report.py benchmarks/results/gateway_obs
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from common import REPO_ROOT, append_trajectory, save_records, timed_screen
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
from repro.io import ExperimentRecord, latency_throughput_columns
from repro.obs import MetricsRegistry
from repro.pdn import small_test_design
from repro.pdn.designs import make_design
from repro.serving import PredictorRegistry
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig

NUM_VECTORS = 32  # per design
SMOKE_VECTORS = 8
MAX_BATCH = 16
NUM_SHARDS = 2
ROUNDS = 3


def _make_predictor(design, seed: int) -> NoisePredictor:
    model = WorstCaseNoiseNet(
        num_bumps=design.grid.num_bumps,
        config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=seed
        ),
    )
    normalizer = FeatureNormalizer(
        current_scale=0.05, distance_scale=1000.0, noise_scale=0.15
    )
    return NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance_feature(design),
        compression_rate=0.3,
    )


def build_setup(registry_root: Path, vectors_per_design: int):
    """Two designs on different gateway shards, predictors, and the mixed load."""
    design_a = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    with ScreeningGateway(
        registry_root, num_shards=NUM_SHARDS, metrics=MetricsRegistry()
    ) as probe:
        sibling_name = next(
            f"{design_a.name}-{suffix}"
            for suffix in "bcdefgh"
            if probe.shard_for(f"{design_a.name}-{suffix}") != probe.shard_for(design_a.name)
        )
    design_b = make_design(replace(design_a.spec, name=sibling_name), seed=0)

    registry = PredictorRegistry(registry_root, capacity=4)
    predictors = {}
    for design, seed in ((design_a, 0), (design_b, 1)):
        predictor = _make_predictor(design, seed)
        registry.register(design.name, predictor)
        predictors[design.name] = predictor

    mixed = []
    for design in (design_a, design_b):
        traces = generate_test_vectors(
            design, vectors_per_design, VectorConfig(num_steps=120, dt=1e-11), seed=11
        )
        predictor = predictors[design.name]
        for trace in traces:
            features = extract_vector_features(
                trace, design, compression_rate=predictor.compression_rate
            )
            mixed.append((features, design.name))
    # Interleave the designs the way concurrent clients would.
    mixed = [item for pair in zip(mixed[:vectors_per_design], mixed[vectors_per_design:]) for item in pair]
    return registry, mixed


def timed_loop(submit_async, items):
    """The naive client: submit one request, block on it, move to the next."""
    latencies = []
    t0 = time.perf_counter()
    for payload, design in items:
        start = time.perf_counter()
        submit_async(payload, design).result(timeout=120)
        latencies.append(time.perf_counter() - start)
    return time.perf_counter() - t0, latencies


def run_benchmark(tmp_root: Path, vectors_per_design: int, rounds: int = ROUNDS):
    """Measure both stacks on the mixed load; returns (records, entry)."""
    registry, mixed = build_setup(tmp_root / "checkpoints", vectors_per_design)
    records = []

    # Both stacks stay up for the whole measurement and the rounds alternate
    # one shard / two shards, so a background blip (CPU frequency step, page
    # cache miss) lands on both sides instead of skewing whichever stack
    # happened to be measured at the time.  Best-of-N then suppresses the
    # blips.
    one_shard = ScreeningGateway(
        registry.root,
        num_shards=1,
        max_batch=MAX_BATCH,
        max_wait=2e-3,
        queue_limit=4 * vectors_per_design,
        metrics=MetricsRegistry(),
    )
    gateway = ScreeningGateway(
        registry.root,
        num_shards=NUM_SHARDS,
        max_batch=MAX_BATCH,
        max_wait=2e-3,
        queue_limit=4 * vectors_per_design,
    )
    try:
        timed_screen(one_shard.submit_async, mixed)  # warm worker + resident LRU
        timed_screen(gateway.submit_async, mixed)  # warm shard registries
        best = {}

        def measure(label, body):
            # Cold model passes, not cache replay.
            one_shard.cache.clear()
            gateway.cache.clear()
            result = body()
            if label not in best or result[0] < best[label][0]:
                best[label] = result

        for _ in range(rounds):
            measure("bare_service_loop", lambda: timed_loop(one_shard.submit_async, mixed))
            measure("service_pipelined", lambda: timed_screen(one_shard.submit_async, mixed))
            measure(
                f"gateway_{NUM_SHARDS}_shards",
                lambda: timed_screen(gateway.submit_async, mixed),
            )
        health = gateway.health()
    finally:
        gateway.close()
        one_shard.close()
    for label, (span, latencies, *_) in best.items():
        records.append(
            ExperimentRecord(
                "gateway",
                label,
                {
                    "total_s": span,
                    **latency_throughput_columns(latencies, total_seconds=span),
                },
            )
        )

    baseline = records[0].values["vectors_per_sec"]
    for record in records:
        record.values["throughput_vs_loop"] = record.values["vectors_per_sec"] / baseline
    gateway_row = records[-1].values
    entry = {
        "timestamp": time.time(),
        "git_rev": git_revision(REPO_ROOT),
        "vectors_per_design": vectors_per_design,
        "num_shards": NUM_SHARDS,
        "loop_s": records[0].values["total_s"],
        "pipelined_s": records[1].values["total_s"],
        "gateway_s": gateway_row["total_s"],
        "gateway_vs_loop": gateway_row["throughput_vs_loop"],
        "gateway_p50_ms": gateway_row["p50_latency_ms"],
        "gateway_p99_ms": gateway_row["p99_latency_ms"],
        "shard_restarts": {
            shard: state["restarts"] for shard, state in health["shards"].items()
        },
    }
    return records, entry


def finish(records, entry) -> None:
    """Persist the comparison table and the trajectory row."""
    save_records(
        records, "gateway", "Gateway throughput — sharded gateway vs naive one-shard loop"
    )
    append_trajectory(
        "gateway",
        entry,
        header={
            "metric": "mixed-design screening throughput, gateway vs bare service loop",
            "min_ratio": 1.0,
        },
    )


def check(records, entry) -> None:
    """The gate: the front door must not cost naive clients any throughput."""
    loop, gateway = records[0].values, records[-1].values
    assert gateway["vectors_per_sec"] >= loop["vectors_per_sec"], (
        f"gateway sustained {gateway['vectors_per_sec']:.1f} vec/s, below the "
        f"naive one-shard loop's {loop['vectors_per_sec']:.1f} vec/s"
    )
    # No worker crashed during a clean benchmark run.
    assert all(value == 0 for value in entry["shard_restarts"].values())


def test_gateway_throughput_report(tmp_path):
    """Pytest entry point: measure, persist, and gate the comparison."""
    records, entry = run_benchmark(tmp_path, NUM_VECTORS)
    finish(records, entry)
    check(records, entry)


def main(argv=None) -> int:
    """Script entry point; wraps the run in a ``repro.obs`` telemetry run."""
    import argparse

    from repro import obs
    from repro.io import format_table

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"tiny load ({SMOKE_VECTORS} vectors/design, 1 round) for CI",
    )
    parser.add_argument(
        "--obs-dir",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "gateway_obs",
        help="telemetry run directory (run_report.json lands here)",
    )
    args = parser.parse_args(argv)

    vectors = SMOKE_VECTORS if args.smoke else NUM_VECTORS
    rounds = 1 if args.smoke else ROUNDS
    obs.start_run(args.obs_dir, config={"bench": "gateway", "vectors": vectors})
    import tempfile

    try:
        with tempfile.TemporaryDirectory(prefix="bench-gateway-") as tmp:
            records, entry = run_benchmark(Path(tmp), vectors, rounds=rounds)
    finally:
        report = obs.finish_run(extra={"bench": "gateway"})
    finish(records, entry)
    print(format_table(records, title="Gateway vs naive one-shard loop"))
    print(f"telemetry report: {report}")
    check(records, entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
