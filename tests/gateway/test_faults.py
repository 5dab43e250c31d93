"""Fault-injection suite: the gateway's invariants under scripted failure.

Every scenario here is deterministic — faults fire at exact hook points
(dequeue, batch start, checkpoint load, swap), not on timers — and each
test closes by asserting the core guarantees: **no request lost, none
double-answered, restarts back off, drain resolves every future.**
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
import pytest

from repro import faults
from repro.faults import FaultInjector, ScriptedFaults, WorkerKilled
from repro.gateway import WorkerCrashed


@pytest.fixture()
def inject():
    """Installer of the process-global injector; restores the previous one on teardown."""
    with ExitStack() as stack:
        yield lambda injector: stack.enter_context(faults.injected(injector))


class KillOnce(FaultInjector):
    """Kill the first worker that starts a batch; record every request seen."""

    def __init__(self):
        self.killed = False
        self.seen = {}

    def before_batch(self, shard_id, requests):
        for request in requests:
            self.seen[id(request)] = request
        if not self.killed:
            self.killed = True
            raise WorkerKilled("scripted kill")


class AlwaysKill(FaultInjector):
    """Every batch start is fatal."""

    def before_batch(self, shard_id, requests):
        raise WorkerKilled("scripted kill (persistent)")


class DuplicateOnce(FaultInjector):
    """Deliver the first dequeued request twice."""

    def __init__(self):
        self.request = None

    def on_dequeue(self, shard_id, request):
        if self.request is None:
            self.request = request
            return (request, request)
        return (request,)


class DelayOnce(FaultInjector):
    """Swallow the first delivery; the test re-injects it later."""

    def __init__(self):
        self.stashed = None

    def on_dequeue(self, shard_id, request):
        if self.stashed is None:
            self.stashed = request
            return ()
        return (request,)


class FailLoadOnce(FaultInjector):
    """Fail the first checkpoint fetch with a scripted error."""

    def __init__(self, error):
        self.error = error
        self.fired = False

    def on_checkpoint_load(self, shard_id, design_name):
        if not self.fired:
            self.fired = True
            raise self.error


class FailSwap(FaultInjector):
    """Every swap application fails (recoverably)."""

    def before_swap(self, shard_id, design_name):
        raise RuntimeError("swap rejected by injector")


class KillDuringSwap(FaultInjector):
    """The first swap kills the worker mid-application."""

    def __init__(self):
        self.fired = False

    def before_swap(self, shard_id, design_name):
        if not self.fired:
            self.fired = True
            raise WorkerKilled("killed while swapping")


def test_worker_killed_mid_batch_loses_nothing(
    make_gateway, inject, wait_for, tiny_design, tiny_features, expected_results, assert_noise_close
):
    injector = inject(KillOnce())
    gateway = make_gateway()
    futures = [
        gateway.submit_async(features, tiny_design.name)
        for features in tiny_features[:6]
    ]
    for future, expected in zip(futures, expected_results):
        assert_noise_close(future.result(timeout=15), expected)

    shard = gateway.shard_for(tiny_design.name)
    metrics = gateway.metrics
    assert metrics.counter("gateway.restarts").value == 1
    assert metrics.counter("gateway.retries").value >= 1
    # Exactly-once: nothing was double-answered anywhere in the recovery.
    assert metrics.counter("gateway.duplicates_dropped").value == 0
    for request in injector.seen.values():
        assert request.answers == 1
    assert gateway.backoff_history(shard) == [pytest.approx(0.01)]
    wait_for(lambda: gateway.health()["shards"][shard]["state"] == "healthy")


def test_crash_mid_fill_requeues_the_requests_already_pulled(
    make_gateway, inject, tiny_design, tiny_features, expected_results, assert_noise_close
):
    # The second dequeue of the first fill kills the worker: the request the
    # fill already holds and the one it was admitting are both in hand, and
    # both must reach the supervisor instead of dying with the thread.
    injector = inject(
        ScriptedFaults().fail_at("gateway.dequeue", 1, WorkerKilled("killed mid-fill"))
    )
    gateway = make_gateway(num_shards=1, max_wait=0.2)
    futures = [
        gateway.submit_async(features, tiny_design.name) for features in tiny_features[:3]
    ]
    for future, expected in zip(futures, expected_results):
        assert_noise_close(future.result(timeout=5), expected)
    assert injector.fired == [("gateway.dequeue", 1)]
    assert gateway.metrics.counter("gateway.restarts").value == 1
    assert gateway.metrics.counter("gateway.retries").value == 2


def test_persistent_crashes_exhaust_retries_with_backoff(
    make_gateway, inject, wait_for, tiny_design, tiny_features
):
    inject(AlwaysKill())
    gateway = make_gateway(max_retries=1)
    future = gateway.submit_async(tiny_features[0], tiny_design.name)
    with pytest.raises(WorkerCrashed) as crashed:
        future.result(timeout=15)
    # The typed error chains to the underlying kill.
    assert isinstance(crashed.value.__cause__, WorkerKilled)

    shard = gateway.shard_for(tiny_design.name)
    # Two crashes (initial + one retry); the supervisor's delays doubled.
    history = gateway.backoff_history(shard)
    assert history == [pytest.approx(0.01), pytest.approx(0.02)]
    wait_for(lambda: gateway.metrics.counter("gateway.restarts").value == 2)


def test_duplicated_delivery_answers_exactly_once(
    make_gateway, inject, tiny_design, tiny_features, expected_results, assert_noise_close
):
    injector = inject(DuplicateOnce())
    gateway = make_gateway()
    result = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert_noise_close(result, expected_results[0])
    assert injector.request.answers == 1
    assert gateway.metrics.counter("gateway.duplicates_dropped").value == 1


def test_delayed_delivery_is_late_not_lost(
    make_gateway, inject, wait_for, tiny_design, tiny_features, expected_results, assert_noise_close
):
    injector = inject(DelayOnce())
    gateway = make_gateway()
    future = gateway.submit_async(tiny_features[0], tiny_design.name)
    wait_for(lambda: injector.stashed is not None)
    assert not future.done()
    # Re-inject the delayed delivery the way a retrying transport would.
    gateway._shards[gateway.shard_for(tiny_design.name)].inbox.put(injector.stashed)
    assert_noise_close(future.result(timeout=10), expected_results[0])
    assert injector.stashed.answers == 1


def test_checkpoint_load_failure_fails_group_not_worker(
    make_gateway, inject, tiny_design, tiny_features, expected_results, assert_noise_close
):
    error = RuntimeError("checkpoint corrupt")
    inject(FailLoadOnce(error))
    gateway = make_gateway()
    with pytest.raises(RuntimeError, match="checkpoint corrupt"):
        gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    # The worker survived: no restart, and the next request is served.
    result = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert_noise_close(result, expected_results[0])
    assert gateway.metrics.counter("gateway.restarts").value == 0
    assert gateway.metrics.counter("gateway.failures").value == 1


def test_swap_during_in_flight_batch_quiesces_between_batches(
    make_gateway,
    make_gated_predictor,
    tiny_design,
    tiny_predictor,
    alt_predictor,
    tiny_features,
    expected_results, assert_noise_close
):
    gateway = make_gateway(max_batch=1)
    gated = make_gated_predictor(tiny_predictor)
    gateway.swap_checkpoint(tiny_design.name, gated, persist=False).result(timeout=5)

    blocked = gateway.submit_async(tiny_features[0], tiny_design.name)
    assert gated.started.wait(5)  # old checkpoint is provably mid-batch
    swap_done = gateway.swap_checkpoint(tiny_design.name, alt_predictor, persist=False)
    after = gateway.submit_async(tiny_features[1], tiny_design.name)
    # The swap waits for the in-flight batch — only then does it apply.
    assert not swap_done.done()
    gated.release.set()

    # The in-flight request finished on the OLD checkpoint...
    assert_noise_close(blocked.result(timeout=10), expected_results[0])
    # ...the swap resolved to the NEW fingerprint...
    assert swap_done.result(timeout=10) == alt_predictor.fingerprint
    assert alt_predictor.fingerprint != tiny_predictor.fingerprint
    # ...and the next request was served by the new weights.
    new_result = after.result(timeout=10)
    expected_new = alt_predictor.predict_batch([tiny_features[1]])[0]
    assert_noise_close(new_result, expected_new)
    assert not np.allclose(new_result.noise_map, expected_results[1].noise_map)


def test_failed_swap_rejects_future_and_spares_worker(
    make_gateway, inject, tiny_design, alt_predictor, tiny_features, expected_results, assert_noise_close
):
    inject(FailSwap())
    gateway = make_gateway()
    swap_done = gateway.swap_checkpoint(tiny_design.name, alt_predictor, persist=False)
    with pytest.raises(RuntimeError, match="swap rejected"):
        swap_done.result(timeout=10)
    # Worker alive, still serving the original checkpoint.
    result = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert_noise_close(result, expected_results[0])
    assert gateway.metrics.counter("gateway.restarts").value == 0
    assert gateway.metrics.counter("gateway.swaps").value == 0


def test_kill_during_swap_crashes_worker_but_resolves_swap_future(
    make_gateway, inject, wait_for, tiny_design, alt_predictor, tiny_features, expected_results, assert_noise_close
):
    inject(KillDuringSwap())
    gateway = make_gateway()
    swap_done = gateway.swap_checkpoint(tiny_design.name, alt_predictor, persist=False)
    with pytest.raises(WorkerKilled):
        swap_done.result(timeout=10)
    wait_for(lambda: gateway.metrics.counter("gateway.restarts").value == 1)
    # The replacement worker serves requests normally.
    result = gateway.submit_async(tiny_features[0], tiny_design.name).result(timeout=10)
    assert_noise_close(result, expected_results[0])


def test_drain_resolves_every_future_even_under_crashes(
    make_gateway, inject, tiny_design, tiny_features, expected_results, assert_noise_close
):
    inject(KillOnce())
    gateway = make_gateway()
    futures = [
        gateway.submit_async(features, tiny_design.name)
        for features in tiny_features
    ]
    gateway.close(drain=True)
    # Drain kept restarting through the crash: every future resolved, with
    # a real result (the kill-once fault is retryable within max_retries).
    assert all(future.done() for future in futures)
    for future, expected in zip(futures, expected_results):
        assert_noise_close(future.result(timeout=0), expected)
