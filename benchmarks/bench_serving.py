"""Serving-layer throughput: a one-shard `ScreeningGateway` vs the per-vector loop.

The paper's speedup argument (Table 2) is measured one test vector at a time;
the serving layer exists to turn that per-vector speed into *throughput*.
This benchmark screens the same vector set three ways on the small test
design:

* ``sequential``  — the per-vector ``predict_features`` loop (what
  ``predict_dataset`` did before the batched path existed; each call is a
  batch of one that reduces the distance map afresh),
* ``batched``     — ``NoisePredictor.predict_batch`` (one fused forward pass
  per chunk),
* ``service``     — the full screening stack, a one-shard
  :class:`ScreeningGateway` (admission, queue, micro-batcher, result
  cache), cold and warm.

It also asserts the two properties the serving layer promises: batched
predictions match the sequential ones within 1e-8, and service throughput is
at least 3x the sequential loop.

A second report compares serving *precision*: the same checkpoint served at
float64 (the default) and float32 (the kernel-dispatch fast path) over a
dense batched forward.  float32 must be at least 1.5x faster at matching
accuracy — the headline guarantee of the ``repro.nn.kernels`` dispatch
layer (see ``docs/kernels.md``).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from common import (
    REPO_ROOT,
    append_trajectory,
    best_of,
    obs_snapshot,
    save_records,
    timed_screen,
)
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
from repro.nn import no_grad
from repro.obs import MetricsRegistry
from repro.pdn import small_test_design
from repro.serving import PredictorRegistry
from repro.workloads import generate_test_vectors
from repro.workloads.vectors import VectorConfig

NUM_VECTORS = 48
MAX_BATCH = 16
ROUNDS = 3

#: Dense fixture for the float32-vs-float64 comparison: 32 vectors x 12
#: stamps of 16x16 tiles, i.e. 384 fusion maps per forward (on tiny fixtures
#: the dtype-independent framework overhead hides the single-precision win).
#: Measured shares of ``forward_batch`` on a 2-vCPU VM (numpy 2.4, OpenBLAS,
#: one thread): the fusion subnet takes ~70% at either precision and the
#: prediction subnet ~27%; GEMM is ~22% (float64) / ~17% (float32), im2col
#: ~24% / ~28% and col2im none.  The rest, about half, is elementwise data
#: movement (halo and phase writes, bias, ReLU, centre sums) and per-call
#: overhead, which single precision barely shortens once it runs in cache.
DTYPE_TILE = 16
DTYPE_KERNELS = 8
DTYPE_BUMPS = 24
DTYPE_VECTORS = 32
DTYPE_STAMPS = 12
DTYPE_ROUNDS = 5
#: The kernel-dispatch layer's headline guarantee (also enforced in CI).
#: Below 2x because the sub-pixel transposed conv and narrow-side stride-1
#: paths removed most col2im scatter-adds, which cost float64 more than
#: float32: on a 2-vCPU VM (numpy 2.4, OpenBLAS, one thread) float64
#: ``forward_batch`` went 0.115 s -> 0.050 s and float32 0.041 s -> 0.025 s,
#: so the ratio fell from 2.82 to 1.98 (1.6-2.3 over repeated runs).
#: Running the fusion subnet in cache-sized blocks again helped float64
#: more: float64 0.050 s -> 0.020-0.036 s, float32 0.027 s -> 0.013-0.024 s,
#: and the ratio went from 1.77-1.93 to 1.46-1.70 over ten runs, three of
#: them below this gate.
MIN_DTYPE_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """Design, predictor, registry and pre-extracted features for screening."""
    design = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    model = WorstCaseNoiseNet(
        num_bumps=design.grid.num_bumps,
        config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=0
        ),
    )
    normalizer = FeatureNormalizer(current_scale=0.05, distance_scale=1000.0, noise_scale=0.15)
    predictor = NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance_feature(design),
        compression_rate=0.3,
    )
    registry = PredictorRegistry(tmp_path_factory.mktemp("serving-bench"), capacity=2)
    registry.register(design.name, predictor)
    traces = generate_test_vectors(
        design, NUM_VECTORS + 8, VectorConfig(num_steps=120, dt=1e-11), seed=11
    )
    features = [
        extract_vector_features(
            trace, design, compression_rate=predictor.compression_rate
        )
        for trace in traces
    ]
    warmup, features = features[NUM_VECTORS:], features[:NUM_VECTORS]
    # Warm both code paths at full size so the first timed pass is
    # representative (allocator growth and BLAS spin-up happen here).
    for item in features:
        predictor.predict_features(item)
    predictor.predict_batch(features, max_batch=MAX_BATCH)
    return design, predictor, registry, features, warmup


def test_serving_throughput_report(benchmark, serving_setup):
    """Measure all three screening modes and persist the comparison table."""
    design, predictor, registry, features, warmup = serving_setup
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    records = []

    # 1. Sequential per-vector loop (the pre-serving baseline).
    sequential_seconds, sequential = best_of(
        ROUNDS, lambda: [predictor.predict_features(item) for item in features]
    )
    records.append(
        ExperimentRecord(
            "serving",
            "sequential_loop",
            {
                "total_s": sequential_seconds,
                **latency_throughput_columns(
                    [result.runtime_seconds for result in sequential],
                    total_seconds=sequential_seconds,
                ),
            },
        )
    )

    # 2. Batched predictor path.
    batched_seconds, batched = best_of(
        ROUNDS, lambda: predictor.predict_batch(features, max_batch=MAX_BATCH)
    )
    records.append(
        ExperimentRecord(
            "serving",
            "predict_batch",
            {
                "total_s": batched_seconds,
                **latency_throughput_columns(
                    [result.runtime_seconds for result in batched],
                    total_seconds=batched_seconds,
                ),
            },
        )
    )

    # 3. Full service, cold (model runs) and warm (pure cache hits), reporting
    # through a live metrics registry so the latency histogram feeds the
    # trajectory snapshot below.
    items = [(item, design.name) for item in features]
    with ScreeningGateway(
        registry.root,
        num_shards=1,
        max_batch=MAX_BATCH,
        max_wait=2e-3,
        metrics=MetricsRegistry(),
    ) as gateway:
        # Warm the worker thread itself on vectors outside the measured set.
        gateway.screen([(item, design.name) for item in warmup])

        def cold_pass():
            gateway.cache.clear()
            return timed_screen(gateway.submit_async, items)

        cold_seconds, (_, cold_latencies, served) = best_of(ROUNDS, cold_pass)
        hits_before_warm = gateway.counts()["cache_hits"]
        warm_seconds, (_, warm_latencies, _) = best_of(
            1, lambda: timed_screen(gateway.submit_async, items)
        )
        counts = gateway.counts()
        telemetry = obs_snapshot(gateway)
    records.append(
        ExperimentRecord(
            "serving",
            "service_cold",
            {
                "total_s": cold_seconds,
                **latency_throughput_columns(cold_latencies, total_seconds=cold_seconds),
                "mean_batch": counts["mean_batch_size"],
            },
        )
    )
    records.append(
        ExperimentRecord(
            "serving",
            "service_warm_cache",
            {
                "total_s": warm_seconds,
                **latency_throughput_columns(warm_latencies, total_seconds=warm_seconds),
                "cache_hit_rate": counts["cache_hit_rate"],
            },
        )
    )

    for record in records:
        record.values["speedup_vs_sequential"] = (
            record.values["vectors_per_sec"]
            / records[0].values["vectors_per_sec"]
        )
    save_records(records, "serving", "Serving throughput — batched service vs per-vector loop")
    append_trajectory(
        "serving",
        {
            "timestamp": time.time(),
            "git_rev": git_revision(REPO_ROOT),
            "num_vectors": NUM_VECTORS,
            "sequential_s": sequential_seconds,
            "service_cold_s": cold_seconds,
            "service_warm_s": warm_seconds,
            "obs": telemetry,
        },
        header={
            "metric": "screening service throughput vs sequential per-vector loop",
            "min_speedup": 3.0,
        },
    )

    # Batched predictions match the sequential loop.
    for single, fused, from_service in zip(sequential, batched, served):
        np.testing.assert_allclose(
            fused.noise_map, single.noise_map, rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            from_service.noise_map, single.noise_map, rtol=1e-8, atol=1e-10
        )
    # The whole point of the serving layer: >= 3x the sequential loop.
    assert cold_seconds * 3.0 <= sequential_seconds
    # The warm pass is answered from the cache alone and is faster still.
    assert counts["cache_hits"] - hits_before_warm == len(features)
    assert warm_seconds < cold_seconds


@pytest.mark.parametrize("mode", ["sequential", "batched"])
def test_predict_throughput(benchmark, serving_setup, mode):
    """Per-mode timing rows for the pytest-benchmark table."""
    _, predictor, _, features, _ = serving_setup
    if mode == "sequential":
        run = lambda: [predictor.predict_features(item) for item in features]
    else:
        run = lambda: predictor.predict_batch(features, max_batch=MAX_BATCH)
    results = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(results) == len(features)


def _dtype_predictor(dtype: str) -> NoisePredictor:
    """A predictor over the dense dtype fixture, served at ``dtype``.

    Both precisions are built from the *same* float64 weights (seeded model
    construction), so their outputs are directly comparable — the only
    difference is the precision the kernels run at.
    """
    model = WorstCaseNoiseNet(
        num_bumps=DTYPE_BUMPS,
        config=ModelConfig(
            distance_kernels=DTYPE_KERNELS,
            fusion_kernels=DTYPE_KERNELS,
            prediction_kernels=DTYPE_KERNELS,
            seed=7,
        ),
    )
    rng = np.random.default_rng(13)
    distance = rng.uniform(200.0, 4000.0, size=(DTYPE_BUMPS, DTYPE_TILE, DTYPE_TILE))
    normalizer = FeatureNormalizer(
        current_scale=0.05, distance_scale=1000.0, noise_scale=0.15
    )
    return NoisePredictor(
        model=model,
        normalizer=normalizer,
        distance=distance,
        compression_rate=0.3,
        dtype=dtype,
    )


def test_dtype_throughput_report(benchmark):
    """float32 serving >= 1.5x float64 on the batched forward, same answers.

    Times the dense batched forward (``forward_batch`` with a precomputed
    reduced-distance map — exactly the per-chunk hot path inside
    ``predict_batch``) at both serving precisions, appends a dtype row to
    ``BENCH_serving.json``, and gates the speedup plus output parity.
    """
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rng = np.random.default_rng(29)
    currents64 = rng.normal(
        0.0, 1.0, size=(DTYPE_VECTORS, DTYPE_STAMPS, DTYPE_TILE, DTYPE_TILE)
    )

    records, seconds, outputs = [], {}, {}
    for dtype in ("float64", "float32"):
        predictor = _dtype_predictor(dtype)
        currents = currents64.astype(predictor.dtype)
        with no_grad():
            reduced = predictor.model.reduce_distance(predictor._normalized_distance)

            def forward():
                return predictor.model.forward_batch(
                    currents, predictor._normalized_distance, reduced_distance=reduced
                ).data

            forward()  # warm BLAS and the allocator at this (shape, dtype)
            elapsed, noise_maps = best_of(DTYPE_ROUNDS, forward)
        assert noise_maps.dtype == np.dtype(dtype)
        seconds[dtype] = elapsed
        outputs[dtype] = noise_maps
        records.append(
            ExperimentRecord(
                "serving_dtype",
                f"forward_batch_{dtype}",
                {
                    "dtype": dtype,
                    "total_s": elapsed,
                    "vectors_per_sec": DTYPE_VECTORS / elapsed,
                },
            )
        )

    speedup = seconds["float64"] / seconds["float32"]
    for record in records:
        record.values["speedup_vs_float64"] = (
            seconds["float64"] / record.values["total_s"]
        )
    save_records(
        records, "serving_dtype", "Serving precision — float32 vs float64 forward"
    )
    append_trajectory(
        "serving",
        {
            "timestamp": time.time(),
            "git_rev": git_revision(REPO_ROOT),
            "dtype_fixture": {
                "tile": DTYPE_TILE,
                "kernels": DTYPE_KERNELS,
                "num_vectors": DTYPE_VECTORS,
                "num_stamps": DTYPE_STAMPS,
            },
            "float64_s": seconds["float64"],
            "float32_s": seconds["float32"],
            "dtype_speedup": speedup,
            "min_dtype_speedup": MIN_DTYPE_SPEEDUP,
        },
    )

    # Same checkpoint, same inputs: float32 answers must match float64 to
    # single-precision rounding (measured max relative error ~2e-5).
    np.testing.assert_allclose(
        outputs["float32"], outputs["float64"], rtol=1e-3, atol=1e-4
    )
    # The kernel-dispatch headline: float32 inference >= 1.5x float64.
    assert speedup >= MIN_DTYPE_SPEEDUP, (
        f"float32 serving is only {speedup:.2f}x float64 "
        f"(needs >= {MIN_DTYPE_SPEEDUP}x)"
    )
