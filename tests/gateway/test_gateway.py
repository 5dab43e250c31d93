"""Gateway correctness: routing, admission control, lifecycle.

Concurrency-sensitive scripts use the shared :class:`GatedPredictor`
(installed into a shard via hot swap) so the worker is *provably* mid-batch
before the test acts — no ``max_wait`` timing windows anywhere.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import time
import weakref

import pytest

from repro.gateway import (
    GatewayClosed,
    GatewayOverloaded,
    ScreeningGateway,
)
from repro.serving import PredictorRegistry
from repro.sim.waveform import CurrentTrace
from repro.workloads import overlay, scenario_spec
from repro.workloads.scenarios import build_scenario_trace


def test_screen_matches_direct_prediction(make_gateway, tiny_design, tiny_features, expected_results, assert_noise_close):
    gateway = make_gateway()
    results = gateway.screen(
        [(features, tiny_design.name) for features in tiny_features]
    )
    assert len(results) == len(expected_results)
    for result, expected in zip(results, expected_results):
        assert_noise_close(result, expected)
    # Every accepted request resolved: the admission gauge returns to zero.
    assert gateway.metrics.gauge("gateway.queue_depth").last == 0
    assert gateway.metrics.counter("gateway.requests").value == len(tiny_features)


def test_shared_cache_stays_consistent_under_thread_contention(
    make_gateway, gateway_root, tiny_design, tiny_predictor, tiny_features,
    expected_results, assert_noise_close
):
    # More shard workers than cores share the one result cache, with the
    # interpreter switching threads as often as it can: a lost update in the
    # cache would break one of the counts below.
    names = [f"{tiny_design.name}-{index}" for index in range(8)]
    registry = PredictorRegistry(gateway_root)
    for name in names:
        registry.register(name, tiny_predictor)
    # Large, slow-filling batches keep the shards' lookups overlapping.
    gateway = make_gateway(num_shards=4, queue_limit=1024, max_batch=64, max_wait=0.02)
    vectors = range(len(tiny_features))
    items = [(index, name) for _ in range(3) for name in names for index in vectors]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = gateway.screen([(tiny_features[index], name) for index, name in items])
    finally:
        sys.setswitchinterval(interval)
    for (index, _), result in zip(items, results):
        assert_noise_close(result, expected_results[index])
    counts = gateway.counts()
    # Every request was answered by exactly one path, after one lookup.
    assert counts["cache_hits"] + counts["coalesced"] + counts["batched_vectors"] == len(items)
    assert gateway.cache.stats.requests == len(items)
    assert gateway.cache.stats.hits == counts["cache_hits"]
    # One predictor serves every name, so each vector has one entry.
    assert len(gateway.cache) == len(vectors)


def test_scenario_payloads_are_deterministic(make_gateway, tiny_design, assert_noise_close):
    gateway = make_gateway()
    first, second = gateway.screen(
        [("power_virus", tiny_design), ("power_virus", tiny_design.name)],
        num_steps=120,
        seed=7,
    )
    # Same scenario, design, and seed — whether the design travels as an
    # object or a name, the worker must materialise the same trace.
    assert_noise_close(first, second)
    assert first.noise_map.size and float(first.worst_noise) == float(first.worst_noise)


def test_spec_built_suites_screen_like_named_scenarios(
    make_gateway, tiny_design, tiny_predictor, assert_noise_close
):
    scenarios = [
        "power_virus",
        scenario_spec("power_virus", base=0.6),
        overlay("steady_state", "didt_step_train"),
    ]
    gateway = make_gateway()
    results = gateway.screen(
        [(scenario, tiny_design.name) for scenario in scenarios], num_steps=60
    )
    for scenario, result in zip(scenarios, results):
        trace = build_scenario_trace(scenario, tiny_design, num_steps=60)
        assert_noise_close(result, tiny_predictor.predict_trace(trace, tiny_design))
    # The hotter parameter variant screens hotter than the default.
    assert results[1].worst_noise > results[0].worst_noise


def test_async_submit_from_event_loop(make_gateway, tiny_design, tiny_features, expected_results, assert_noise_close):
    gateway = make_gateway()

    async def main():
        results = await asyncio.gather(
            *(
                gateway.submit(features, tiny_design.name)
                for features in tiny_features[:4]
            )
        )
        return results

    for result, expected in zip(asyncio.run(main()), expected_results):
        assert_noise_close(result, expected)


def test_designs_partition_across_shards(
    make_gateway, tiny_design, second_design_name, tiny_features
):
    gateway = make_gateway()
    home = gateway.shard_for(tiny_design.name)
    other = gateway.shard_for(second_design_name)
    assert home != other
    gateway.screen(
        [
            (tiny_features[0], tiny_design.name),
            (tiny_features[1], second_design_name),
            (tiny_features[2], tiny_design.name),
        ]
    )
    shards = gateway.health()["shards"]
    # Each shard's registry partition only ever saw its own design, so the
    # LRU entries are disjoint — the warm-cache property sharding exists for.
    assert shards[home]["resident"] == [tiny_design.name]
    assert shards[other]["resident"] == [second_design_name]


def test_health_snapshot_shape(make_gateway):
    gateway = make_gateway(num_shards=3, queue_limit=17)
    health = gateway.health()
    assert health["accepting"] is True
    assert health["outstanding"] == 0
    assert health["queue_limit"] == 17
    assert set(health["shards"]) == {0, 1, 2}
    for shard in health["shards"].values():
        assert shard["state"] == "healthy"
        assert shard["restarts"] == 0


def test_reject_policy_backpressure(
    make_gateway, make_gated_predictor, wait_for, tiny_design, tiny_predictor, tiny_features
):
    gateway = make_gateway(queue_limit=4, max_batch=1)
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)

    admitted = [gateway.submit_async(tiny_features[0], tiny_design.name)]
    assert gated.started.wait(5)  # the worker is provably mid-batch
    for i in (1, 2, 3):
        admitted.append(gateway.submit_async(tiny_features[i], tiny_design.name))
    with pytest.raises(GatewayOverloaded) as overload:
        gateway.submit_async(tiny_features[4], tiny_design.name)
    assert overload.value.retry_after_s > 0

    gated.release.set()
    for future in admitted:
        assert future.result(timeout=10) is not None
    metrics = gateway.metrics
    assert metrics.counter("gateway.rejected").value == 1
    # Capacity freed: the same submission is admitted now.
    assert gateway.submit_async(tiny_features[4], tiny_design.name).result(timeout=10)


def test_cancelled_request_is_skipped_not_served(
    make_gateway, make_gated_predictor, tiny_design, tiny_predictor, tiny_features
):
    gateway = make_gateway(max_batch=1)
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)

    blocked = gateway.submit_async(tiny_features[0], tiny_design.name)
    assert gated.started.wait(5)
    cancelled = gateway.submit_async(tiny_features[1], tiny_design.name)
    assert cancelled.cancel()
    gated.release.set()
    assert blocked.result(timeout=10) is not None
    # Draining close() proves the cancelled entry did not wedge the shard.
    gateway.close()
    assert cancelled.cancelled()


def test_malformed_trace_fails_only_itself(
    make_gateway, make_gated_predictor, tiny_design, tiny_predictor, tiny_traces,
    expected_results, assert_noise_close
):
    gateway = make_gateway(num_shards=1)
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)
    bad = CurrentTrace(tiny_traces[2].currents[:, :5], tiny_traces[2].dt, name="bad")

    blocked = gateway.submit_async(tiny_traces[3], tiny_design)
    assert gated.started.wait(5)
    # All three queue behind the blocked batch and land in one design group.
    good = [gateway.submit_async(trace, tiny_design) for trace in tiny_traces[:2]]
    doomed = gateway.submit_async(bad, tiny_design)
    gated.release.set()
    assert_noise_close(blocked.result(timeout=10), expected_results[3])
    with pytest.raises(ValueError, match="trace has 5 loads"):
        doomed.result(timeout=10)
    for future, expected in zip(good, expected_results[:2]):
        assert_noise_close(future.result(timeout=10), expected)
    # The two well-formed traces still shared one forward pass.
    assert gated.calls == 2
    assert gateway.metrics.counter("gateway.failures").value == 1


def test_close_drains_backlog(make_gateway, tiny_design, tiny_features):
    gateway = make_gateway()
    futures = [
        gateway.submit_async(features, tiny_design.name)
        for features in tiny_features
    ]
    gateway.close(drain=True)
    for future in futures:
        assert future.result(timeout=0) is not None  # already resolved


def test_close_without_drain_fails_pending_with_typed_error(
    make_gateway, make_gated_predictor, wait_for, tiny_design, tiny_predictor, tiny_features
):
    import threading

    gateway = make_gateway(max_batch=1)
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)

    blocked = gateway.submit_async(tiny_features[0], tiny_design.name)
    assert gated.started.wait(5)
    waiting = gateway.submit_async(tiny_features[1], tiny_design.name)

    closer = threading.Thread(target=lambda: gateway.close(drain=False, timeout=10))
    closer.start()
    # Both futures are failed immediately — before the worker is released.
    wait_for(lambda: blocked.done() and waiting.done(), timeout=5)
    with pytest.raises(GatewayClosed):
        blocked.result(timeout=0)
    with pytest.raises(GatewayClosed):
        waiting.result(timeout=0)
    gated.release.set()
    closer.join(timeout=10)
    assert not closer.is_alive()
    # The worker's late answer lost the race and was counted as dropped.
    assert gateway.metrics.counter("gateway.duplicates_dropped").value >= 1


def test_submit_and_swap_after_close_raise(make_gateway, tiny_design, tiny_features):
    gateway = make_gateway()
    gateway.close()
    with pytest.raises(GatewayClosed):
        gateway.submit_async(tiny_features[0], tiny_design.name)
    with pytest.raises(GatewayClosed):
        gateway.swap_checkpoint(tiny_design.name)
    gateway.close()  # idempotent


def test_invalid_configuration_rejected(gateway_root):
    with pytest.raises(ValueError):
        ScreeningGateway(gateway_root, num_shards=0)
    with pytest.raises(ValueError):
        ScreeningGateway(gateway_root, queue_limit=0)


def test_context_manager_closes(gateway_root, tiny_design, tiny_features):
    with ScreeningGateway(gateway_root, num_shards=1) as gateway:
        future = gateway.submit_async(tiny_features[0], tiny_design.name)
    assert future.result(timeout=0) is not None
    assert gateway.health()["accepting"] is False


def _distinct_traces(base, count):
    """``count`` traces with distinct content (no cache hit, no coalescing)."""
    return [
        CurrentTrace(base.currents * (1.0 + 0.01 * i), base.dt, name=f"v{i}")
        for i in range(count)
    ]


def _survivors_after_screening(gateway, design, traces, timeout=2.0):
    """Screen ``traces``, drop every reference, count the traces still alive.

    Runs with the cyclic GC disabled, so only refcounting can free what the
    gateway held; polls because the worker drops its batch just after the
    last answer.  The caller's list is emptied in place.
    """
    refs = [weakref.ref(trace) for trace in traces]
    gc.disable()
    try:
        futures = [gateway.submit_async(trace, design) for trace in traces]
        traces.clear()
        assert None not in [future.result(timeout=10) for future in futures]
        del futures
        deadline = time.monotonic() + timeout
        while any(ref() is not None for ref in refs) and time.monotonic() < deadline:
            time.sleep(0.005)
        return sum(ref() is not None for ref in refs)
    finally:
        gc.enable()


def test_answered_requests_are_freed_by_refcount(make_gateway, tiny_design, tiny_traces):
    """No reference cycle keeps an answered request (and its trace) alive."""
    gateway = make_gateway(num_shards=1)
    traces = _distinct_traces(tiny_traces[0], 40)
    assert _survivors_after_screening(gateway, tiny_design.name, traces) == 0


def test_blocked_head_request_does_not_pin_answered_ones(
    make_gateway, make_gated_predictor, second_design_name, tiny_design,
    tiny_predictor, tiny_traces,
):
    """Requests answered behind an unanswered one are freed at once."""
    gateway = make_gateway(num_shards=2)
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)
    blocked = gateway.submit_async(tiny_traces[0], tiny_design.name)
    assert gated.started.wait(5)
    try:
        # The other shard answers these while the head request stays blocked.
        traces = _distinct_traces(tiny_traces[1], 40)
        assert _survivors_after_screening(gateway, second_design_name, traces) == 0
        assert not blocked.done()
    finally:
        gated.release.set()
    assert blocked.result(timeout=10) is not None
