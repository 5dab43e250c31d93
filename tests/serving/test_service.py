"""The screening service: a one-shard gateway's cache, coalescing and batching.

Every screening request goes through :class:`ScreeningGateway`; these tests
pin what its in-process use (one shard over a registry root) promises.
In-memory test doubles (gated, flaky and alternative predictors) enter the
shard through ``swap_checkpoint(..., persist=False)``, exactly like a
freshly trained model.
"""

import dataclasses
import threading

import numpy as np
import pytest

import repro.gateway.gateway as gateway_module
from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.gateway import GatewayClosed, ScreeningGateway
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import make_design
from repro.sim.waveform import CurrentTrace


def one_shard(registry, **kwargs) -> ScreeningGateway:
    """A one-shard gateway over ``registry``'s checkpoints, private metrics."""
    kwargs.setdefault("metrics", MetricsRegistry())
    return ScreeningGateway(registry.root, num_shards=1, **kwargs)


def serve(gateway, design, predictor) -> None:
    """Serve ``design`` with an in-memory predictor from the next batch on."""
    gateway.swap_checkpoint(design.name, predictor, persist=False).result(timeout=5)


def submit(gateway, payload, design):
    """Screen one vector, blocking for its answer."""
    return gateway.submit_async(payload, design).result(timeout=10)


def count(service, name):
    """A ``gateway.*`` counter of the service's (private) metrics registry."""
    return service.metrics.counter(f"gateway.{name}").value


def max_batch_observed(service):
    """Largest design group the service ran through one forward pass."""
    return service.metrics.gauge("gateway.batch_size").max


@pytest.fixture()
def service(registry):
    with one_shard(registry, max_batch=8, max_wait=5e-3) as svc:
        yield svc


class TestScreeningCorrectness:
    def test_screen_matches_sequential_predictions(
        self, service, serving_predictor, tiny_design, tiny_traces
    ):
        results = service.screen([(trace, tiny_design) for trace in tiny_traces])
        assert len(results) == len(tiny_traces)
        for trace, result in zip(tiny_traces, results):
            sequential = serving_predictor.predict_trace(trace, tiny_design)
            np.testing.assert_allclose(
                result.noise_map, sequential.noise_map, rtol=1e-10, atol=1e-12
            )

    def test_requests_are_micro_batched(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        # A gated blocker pins the worker mid-batch while the backlog queues
        # up, so the batch split is exact rather than a max_wait race.
        gated = make_gated_predictor(serving_predictor)
        with one_shard(registry, max_batch=8, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            blocker = svc.submit_async(tiny_traces[0], tiny_design)
            assert gated.started.wait(5)
            futures = [svc.submit_async(trace, tiny_design) for trace in tiny_traces[1:]]
            gated.release.set()
            blocker.result(timeout=10)
            for future in futures:
                future.result(timeout=10)
        assert count(svc, "batched_vectors") == len(tiny_traces)
        # blocker alone, then the 9 queued requests as ceil(9/8) batches.
        assert count(svc, "model_batches") == 3
        assert max_batch_observed(svc) == 8

    def test_features_payload_with_design_name(
        self, service, serving_predictor, tiny_design, tiny_traces
    ):
        features = extract_vector_features(
            tiny_traces[0], tiny_design, compression_rate=serving_predictor.compression_rate
        )
        result = submit(service, features, tiny_design.name)
        sequential = serving_predictor.predict_features(features)
        np.testing.assert_allclose(
            result.noise_map, sequential.noise_map, rtol=1e-10, atol=1e-12
        )


class TestResultCache:
    def test_cache_hits_return_identical_maps_without_rerun(
        self, service, tiny_design, tiny_traces
    ):
        items = [(trace, tiny_design) for trace in tiny_traces]
        first = service.screen(items)
        vectors_after_first = count(service, "batched_vectors")
        second = service.screen(items)
        # No additional forward passes ran ...
        assert count(service, "batched_vectors") == vectors_after_first
        assert count(service, "cache_hits") == len(tiny_traces)
        # ... and the cached maps are bit-identical.
        for a, b in zip(first, second):
            assert np.array_equal(a.noise_map, b.noise_map)

    def test_renamed_identical_trace_hits_cache(self, service, tiny_design, tiny_traces):
        trace = tiny_traces[0]
        submit(service, trace, tiny_design)
        renamed = dataclasses.replace(trace, name="release-candidate-7")
        result = submit(service, renamed, tiny_design)
        assert count(service, "cache_hits") == 1
        # The hit reports the submitter's vector name, not the twin's.
        assert result.name == "release-candidate-7"

    def test_caller_mutation_cannot_poison_cache(self, service, tiny_design, tiny_traces):
        trace = tiny_traces[0]
        original = submit(service, trace, tiny_design)
        reference = original.noise_map.copy()
        original.noise_map *= 1e3  # caller-side unit conversion
        hit = submit(service, dataclasses.replace(trace, name="again"), tiny_design)
        np.testing.assert_array_equal(hit.noise_map, reference)
        hit.noise_map[:] = -1.0  # mutating a hit must not touch the cache either
        second_hit = submit(service, dataclasses.replace(trace, name="thrice"), tiny_design)
        np.testing.assert_array_equal(second_hit.noise_map, reference)

    def test_non_finite_prediction_is_not_cached(
        self, service, serving_predictor, tiny_design, tiny_traces
    ):
        features = extract_vector_features(
            tiny_traces[0], tiny_design, compression_rate=serving_predictor.compression_rate
        )
        maps = features.current_maps.copy()
        maps[0, 0, 0] = np.nan
        poisoned = VectorFeatures(current_maps=maps, name="poisoned")
        first = submit(service, poisoned, tiny_design.name)
        second = submit(service, poisoned, tiny_design.name)
        assert not np.all(np.isfinite(first.noise_map))
        assert not np.all(np.isfinite(second.noise_map))
        assert count(service, "cache_hits") == 0
        assert count(service, "batched_vectors") == 2

    def test_concurrent_duplicates_coalesce(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        with one_shard(registry, max_batch=8, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            blocker = svc.submit_async(tiny_traces[1], tiny_design)
            assert gated.started.wait(5)  # the twins queue behind the blocker
            twin = dataclasses.replace(tiny_traces[0], name="twin")
            first = svc.submit_async(tiny_traces[0], tiny_design)
            second = svc.submit_async(twin, tiny_design)
            gated.release.set()
            blocker.result(timeout=10)
            primary, follower = first.result(timeout=10), second.result(timeout=10)
            # The twins landed in one fill and shared one feature row ...
            assert count(svc, "coalesced") == 1
            assert count(svc, "batched_vectors") == 2
            assert gated.calls == 2
            # ... but each caller owns a private result under its own name.
            np.testing.assert_array_equal(primary.noise_map, follower.noise_map)
            assert follower.noise_map is not primary.noise_map
            assert follower.name == "twin"

    def test_cancelled_future_does_not_poison_group(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        with one_shard(registry, max_batch=8, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            blocker = svc.submit_async(tiny_traces[3], tiny_design)
            assert gated.started.wait(5)
            # These three queue behind the blocked batch and land together.
            futures = [svc.submit_async(trace, tiny_design) for trace in tiny_traces[:3]]
            futures[0].cancel()  # caller gave up while the batch was filling
            gated.release.set()
            blocker.result(timeout=10)
            survivors = [future.result(timeout=10) for future in futures[1:]]
        assert len(survivors) == 2
        assert count(svc, "failures") == 0

    def test_new_submitter_not_coalesced_onto_cancelled_future(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        with one_shard(registry, max_batch=8, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            blocker = svc.submit_async(tiny_traces[1], tiny_design)
            assert gated.started.wait(5)
            doomed = svc.submit_async(tiny_traces[0], tiny_design)
            doomed.cancel()
            # An innocent later submitter of the same vector must get its own
            # answer, not inherit the cancellation.
            fresh = svc.submit_async(tiny_traces[0], tiny_design)
            gated.release.set()
            blocker.result(timeout=10)
            result = fresh.result(timeout=10)
        assert count(svc, "coalesced") == 0
        assert doomed.cancelled()
        assert result.noise_map.shape == tiny_design.tile_grid.shape


class TestCloseSemantics:
    """close() resolves — never abandons — every accepted future."""

    def test_submit_after_close_raises_typed_service_closed(
        self, registry, tiny_design, tiny_traces
    ):
        service = one_shard(registry, max_batch=4)
        service.close()
        with pytest.raises(GatewayClosed):
            service.submit_async(tiny_traces[0], tiny_design)
        service.close()  # idempotent

    def test_close_without_drain_resolves_queued_futures(
        self, registry, serving_predictor, make_gated_predictor, wait_for,
        tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        svc = one_shard(registry, max_batch=1, max_wait=1e-3)
        serve(svc, tiny_design, gated)
        blocker = svc.submit_async(tiny_traces[0], tiny_design)
        assert gated.started.wait(5)
        queued = [svc.submit_async(trace, tiny_design) for trace in tiny_traces[1:3]]

        closer = threading.Thread(target=lambda: svc.close(drain=False))
        closer.start()
        # Every accepted future — in flight or queued — is *resolved* with
        # the typed error at once, not silently abandoned to hang forever.
        wait_for(lambda: all(future.done() for future in [blocker, *queued]))
        for future in [blocker, *queued]:
            with pytest.raises(GatewayClosed):
                future.result(timeout=0)
        gated.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert gated.calls == 1  # the queued requests never reached the model
        assert svc.metrics.histogram("gateway.request_latency.failed").count == 3

    def test_close_with_drain_answers_queued_requests(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        svc = one_shard(registry, max_batch=1, max_wait=1e-3)
        serve(svc, tiny_design, gated)
        blocker = svc.submit_async(tiny_traces[0], tiny_design)
        assert gated.started.wait(5)
        queued = [svc.submit_async(trace, tiny_design) for trace in tiny_traces[1:3]]

        closer = threading.Thread(target=svc.close)
        closer.start()
        gated.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        assert blocker.result(timeout=0) is not None
        for future in queued:  # drained, not rejected
            assert future.result(timeout=0) is not None

    def test_worker_death_requeues_batch_and_serves_queue(
        self, registry, serving_predictor, make_gated_predictor, make_flaky_predictor,
        tiny_design, tiny_traces, monkeypatch
    ):
        class WorkerDeath(BaseException):
            """Non-Exception error: kills the worker thread outright."""

        lethal = make_gated_predictor(make_flaky_predictor(serving_predictor, [WorkerDeath()]))
        monkeypatch.setattr(gateway_module, "BACKOFF_BASE", 0.01)
        with one_shard(registry, max_batch=1, max_wait=1e-3) as svc:
            serve(svc, tiny_design, lethal)
            doomed = svc.submit_async(tiny_traces[0], tiny_design)
            assert lethal.started.wait(5)
            stranded = svc.submit_async(tiny_traces[1], tiny_design)
            lethal.release.set()
            # The supervisor restarts the worker, requeues the batch it died
            # holding, and the replacement serves both requests.
            for future, trace in ((doomed, tiny_traces[0]), (stranded, tiny_traces[1])):
                expected = serving_predictor.predict_trace(trace, tiny_design)
                np.testing.assert_allclose(
                    future.result(timeout=10).noise_map, expected.noise_map, rtol=1e-10
                )
            assert count(svc, "restarts") == 1
            assert count(svc, "retries") == 1


class TestFailureIsolation:
    """A failing forward pass must not leave stale state behind."""

    def test_predictor_failure_rejects_future_then_resubmission_succeeds(
        self, registry, serving_predictor, make_flaky_predictor, tiny_design, tiny_traces
    ):
        flaky = make_flaky_predictor(serving_predictor, [RuntimeError("transient GPU error")])
        with one_shard(registry, max_batch=4, max_wait=1e-3) as svc:
            serve(svc, tiny_design, flaky)
            with pytest.raises(RuntimeError, match="transient GPU error"):
                submit(svc, tiny_traces[0], tiny_design)
            assert count(svc, "failures") == 1
            # The identical resubmission gets a FRESH attempt that reaches
            # the recovered predictor: a failure is never cached.
            result = submit(svc, tiny_traces[0], tiny_design)
            assert count(svc, "cache_hits") == 0
            assert result.noise_map.shape == tiny_design.tile_grid.shape
        assert flaky.calls == 2

    def test_malformed_trace_fails_only_itself(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        bad = CurrentTrace(tiny_traces[2].currents[:, :5], tiny_traces[2].dt, name="bad")
        with one_shard(registry, max_batch=8, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            blocker = svc.submit_async(tiny_traces[3], tiny_design)
            assert gated.started.wait(5)
            # All three queue behind the blocked batch and land in one group.
            good = [svc.submit_async(trace, tiny_design) for trace in tiny_traces[:2]]
            doomed = svc.submit_async(bad, tiny_design)
            gated.release.set()
            blocker.result(timeout=10)
            with pytest.raises(ValueError, match="trace has 5 loads"):
                doomed.result(timeout=10)
            results = [future.result(timeout=10) for future in good]
        for trace, result in zip(tiny_traces[:2], results):
            expected = serving_predictor.predict_trace(trace, tiny_design)
            np.testing.assert_allclose(result.noise_map, expected.noise_map, rtol=1e-10)
        # The two well-formed traces still shared one forward pass.
        assert gated.calls == 2
        assert count(svc, "batched_vectors") == 3
        assert count(svc, "failures") == 1


class TestHotSwapWhileInFlight:
    """Hot swap with a batch in flight, and its ordering against the cache."""

    def test_swap_mid_batch_keeps_old_weights_for_in_flight_requests(
        self, registry, serving_predictor, alt_predictor, make_gated_predictor,
        tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        with one_shard(registry, max_batch=1, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            in_flight = svc.submit_async(tiny_traces[0], tiny_design)
            assert gated.started.wait(5)  # old checkpoint provably mid-batch
            swapped = svc.swap_checkpoint(tiny_design.name, alt_predictor, persist=False)
            after = svc.submit_async(tiny_traces[1], tiny_design)
            gated.release.set()

            # The in-flight batch finished on the OLD weights...
            old = in_flight.result(timeout=10)
            expected_old = serving_predictor.predict_trace(tiny_traces[0], tiny_design)
            np.testing.assert_allclose(old.noise_map, expected_old.noise_map, rtol=1e-10)
            # ...the next batch ran on the NEW weights...
            assert swapped.result(timeout=10) == alt_predictor.fingerprint
            new = after.result(timeout=10)
            expected_new = alt_predictor.predict_trace(tiny_traces[1], tiny_design)
            np.testing.assert_allclose(new.noise_map, expected_new.noise_map, rtol=1e-10)
            assert gated.calls == 1  # the old predictor never saw batch two

            # ...and old-fingerprint cache entries no longer match: the same
            # vector resubmitted is recomputed under the new fingerprint.
            recomputed = submit(svc, tiny_traces[0], tiny_design)
            assert count(svc, "cache_hits") == 0
            np.testing.assert_allclose(
                recomputed.noise_map,
                alt_predictor.predict_trace(tiny_traces[0], tiny_design).noise_map,
                rtol=1e-10,
            )
            assert not np.allclose(recomputed.noise_map, old.noise_map)
            # The new-fingerprint entry it just stored does hit.
            submit(svc, tiny_traces[0], tiny_design)
            assert count(svc, "cache_hits") == 1

    def test_vector_queued_behind_a_swap_is_not_served_from_the_old_cache(
        self, registry, serving_predictor, alt_predictor, make_gated_predictor,
        tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        with one_shard(registry, max_batch=8, max_wait=1e-3) as svc:
            cached = submit(svc, tiny_traces[0], tiny_design)  # old model's entry
            serve(svc, tiny_design, gated)  # same fingerprint, now gated
            blocker = svc.submit_async(tiny_traces[1], tiny_design)
            assert gated.started.wait(5)
            svc.swap_checkpoint(tiny_design.name, alt_predictor, persist=False)
            # Admitted while the old model still serves, but queued behind
            # the swap: it must be answered by the new model, not the cache.
            resubmitted = svc.submit_async(tiny_traces[0], tiny_design)
            gated.release.set()
            blocker.result(timeout=10)
            result = resubmitted.result(timeout=10)
        expected = alt_predictor.predict_trace(tiny_traces[0], tiny_design)
        np.testing.assert_allclose(result.noise_map, expected.noise_map, rtol=1e-10)
        assert not np.allclose(result.noise_map, cached.noise_map)
        assert count(svc, "cache_hits") == 0


class TestServiceLifecycleAndErrors:
    def test_unknown_design_fails_its_request(self, service, tiny_traces, tiny_design):
        features = extract_vector_features(tiny_traces[0], tiny_design)
        with pytest.raises(KeyError):
            submit(service, features, "not-registered")
        assert count(service, "failures") == 1

    def test_raw_trace_with_name_only_rejected(self, service, tiny_design, tiny_traces):
        # A raw trace needs its design for tiling; the default factory
        # cannot rebuild the unit-test design from its name.
        with pytest.raises(ValueError, match="unknown reference design"):
            submit(service, tiny_traces[0], tiny_design.name)

    def test_worker_errors_propagate_to_caller(self, service, tiny_design, rng):
        bad = VectorFeatures(current_maps=rng.random((4, 5, 5)), name="wrong-shape")
        with pytest.raises(Exception):
            submit(service, bad, tiny_design.name)
        assert count(service, "failures") == 1

    def test_latencies_recorded(self, service, tiny_design, tiny_traces):
        service.screen([(trace, tiny_design) for trace in tiny_traces[:4]])
        latency = service.metrics.histogram("gateway.request_latency.ok")
        assert latency.count == 4
        assert latency.percentile(50) > 0


class TestMultiDesignGrouping:
    def test_batches_group_by_design(
        self, registry, tiny_design, serving_predictor, make_gated_predictor, tiny_traces
    ):
        sibling_spec = dataclasses.replace(tiny_design.spec, name="unit-test-b")
        sibling = make_design(sibling_spec, seed=0)
        registry.register(sibling.name, serving_predictor)
        gated = make_gated_predictor(serving_predictor)

        with one_shard(registry, max_batch=16, max_wait=1e-3) as svc:
            serve(svc, tiny_design, gated)
            blocker = svc.submit_async(tiny_traces[6], tiny_design)
            assert gated.started.wait(5)
            # Six requests across two designs queue behind the blocked batch
            # and drain together as ONE micro-batch with two design groups.
            futures = []
            for trace in tiny_traces[:3]:
                futures.append(svc.submit_async(trace, tiny_design))
            for trace in tiny_traces[3:6]:
                futures.append(svc.submit_async(trace, sibling))
            gated.release.set()
            blocker.result(timeout=10)
            results = [future.result(timeout=10) for future in futures]
        assert len(results) == 6
        assert count(svc, "batched_vectors") == 7
        # One blocker batch, then exactly two per-design groups.
        assert count(svc, "model_batches") == 3
        assert max_batch_observed(svc) == 3
