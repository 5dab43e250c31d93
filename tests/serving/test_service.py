"""Tests for the micro-batching screening service."""

import dataclasses

import numpy as np
import pytest

from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.obs.metrics import MetricsRegistry
from repro.pdn.designs import make_design
from repro.serving import ScreeningService, ServiceClosed
from repro.sim.waveform import CurrentTrace


def count(service, name):
    """A ``serving.*`` counter of the service's (private) metrics registry."""
    return service.metrics.counter(f"serving.{name}").value


def max_batch_observed(service):
    """Largest design group the service ran through one forward pass."""
    return service.metrics.gauge("serving.batch_size").max


@pytest.fixture()
def service(registry):
    with ScreeningService(
        registry, max_batch=8, max_wait=5e-3, metrics=MetricsRegistry()
    ) as svc:
        yield svc


class TestScreeningCorrectness:
    def test_screen_matches_sequential_predictions(
        self, service, serving_predictor, tiny_design, tiny_traces
    ):
        results = service.screen(tiny_traces, tiny_design)
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
        registry.register(tiny_design.name, gated, persist=False)
        with ScreeningService(
            registry, max_batch=8, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
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
        result = service.submit(features, tiny_design.name)
        sequential = serving_predictor.predict_features(features)
        np.testing.assert_allclose(
            result.noise_map, sequential.noise_map, rtol=1e-10, atol=1e-12
        )


class TestResultCache:
    def test_cache_hits_return_identical_maps_without_rerun(
        self, service, tiny_design, tiny_traces
    ):
        first = service.screen(tiny_traces, tiny_design)
        vectors_after_first = count(service, "batched_vectors")
        second = service.screen(tiny_traces, tiny_design)
        # No additional forward passes ran ...
        assert count(service, "batched_vectors") == vectors_after_first
        assert count(service, "cache_hits") == len(tiny_traces)
        # ... and the cached maps are bit-identical.
        for a, b in zip(first, second):
            assert np.array_equal(a.noise_map, b.noise_map)

    def test_renamed_identical_trace_hits_cache(self, service, tiny_design, tiny_traces):
        trace = tiny_traces[0]
        service.submit(trace, tiny_design)
        renamed = dataclasses.replace(trace, name="release-candidate-7")
        result = service.submit(renamed, tiny_design)
        assert count(service, "cache_hits") == 1
        # The hit reports the submitter's vector name, not the twin's.
        assert result.name == "release-candidate-7"

    def test_caller_mutation_cannot_poison_cache(self, service, tiny_design, tiny_traces):
        trace = tiny_traces[0]
        original = service.submit(trace, tiny_design)
        reference = original.noise_map.copy()
        original.noise_map *= 1e3  # caller-side unit conversion
        hit = service.submit(dataclasses.replace(trace, name="again"), tiny_design)
        np.testing.assert_array_equal(hit.noise_map, reference)
        hit.noise_map[:] = -1.0  # mutating a hit must not touch the cache either
        second_hit = service.submit(dataclasses.replace(trace, name="thrice"), tiny_design)
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
        first = service.submit(poisoned, tiny_design.name)
        second = service.submit(poisoned, tiny_design.name)
        assert not np.all(np.isfinite(first.noise_map))
        assert not np.all(np.isfinite(second.noise_map))
        assert count(service, "cache_hits") == 0
        assert count(service, "batched_vectors") == 2

    def test_concurrent_duplicates_coalesce(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)
        with ScreeningService(
            registry, max_batch=8, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
            twin = dataclasses.replace(tiny_traces[0], name="twin")
            first = svc.submit_async(tiny_traces[0], tiny_design)
            assert gated.started.wait(5)  # the primary is provably in flight
            second = svc.submit_async(twin, tiny_design)
            assert count(svc, "coalesced") == 1
            gated.release.set()
            primary, follower = first.result(timeout=10), second.result(timeout=10)
            # One forward pass, but each caller owns a private result.
            assert count(svc, "batched_vectors") == 1
            np.testing.assert_array_equal(primary.noise_map, follower.noise_map)
            assert follower.noise_map is not primary.noise_map
            assert follower.name == "twin"

    def test_cancelled_future_does_not_poison_group(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)
        with ScreeningService(
            registry, max_batch=8, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
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
        registry.register(tiny_design.name, gated, persist=False)
        with ScreeningService(
            registry, max_batch=8, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
            blocker = svc.submit_async(tiny_traces[1], tiny_design)
            assert gated.started.wait(5)
            doomed = svc.submit_async(tiny_traces[0], tiny_design)
            doomed.cancel()
            # An innocent later submitter of the same vector must get a fresh
            # request, not inherit the cancellation.
            fresh = svc.submit_async(tiny_traces[0], tiny_design)
            assert count(svc, "coalesced") == 0
            gated.release.set()
            blocker.result(timeout=10)
            result = fresh.result(timeout=10)
        assert result.noise_map.shape == tiny_design.tile_grid.shape


class TestCloseSemantics:
    """close() resolves — never abandons — every accepted future (PR 7)."""

    def test_submit_after_close_raises_typed_service_closed(
        self, registry, tiny_design, tiny_traces
    ):
        service = ScreeningService(registry, max_batch=4)
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(tiny_traces[0], tiny_design)

    def test_close_without_drain_resolves_queued_futures(
        self, registry, serving_predictor, make_gated_predictor, wait_for,
        tiny_design, tiny_traces
    ):
        import threading

        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)
        svc = ScreeningService(registry, max_batch=1, max_wait=1e-3, metrics=MetricsRegistry())
        blocker = svc.submit_async(tiny_traces[0], tiny_design)
        assert gated.started.wait(5)
        queued = [svc.submit_async(trace, tiny_design) for trace in tiny_traces[1:3]]

        closer = threading.Thread(target=lambda: svc.close(drain=False))
        closer.start()
        gated.release.set()
        closer.join(timeout=10)
        assert not closer.is_alive()
        # The in-flight request finished; the queued ones were *resolved*
        # with the typed error — not silently abandoned to hang forever.
        assert blocker.result(timeout=0) is not None
        for future in queued:
            with pytest.raises(ServiceClosed):
                future.result(timeout=0)
        assert count(svc, "failures") == len(queued)

    def test_close_with_drain_answers_queued_requests(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        import threading

        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)
        svc = ScreeningService(registry, max_batch=1, max_wait=1e-3)
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

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_worker_death_fails_batch_and_flushes_queue(
        self, registry, serving_predictor, make_gated_predictor, make_flaky_predictor,
        wait_for, tiny_design, tiny_traces
    ):
        class WorkerDeath(BaseException):
            """Non-Exception error: kills the worker thread outright."""

        lethal = make_gated_predictor(make_flaky_predictor(serving_predictor, [WorkerDeath()]))
        registry.register(tiny_design.name, lethal, persist=False)
        svc = ScreeningService(registry, max_batch=1, max_wait=1e-3)
        doomed = svc.submit_async(tiny_traces[0], tiny_design)
        assert lethal.started.wait(5)
        stranded = svc.submit_async(tiny_traces[1], tiny_design)
        lethal.release.set()

        # The in-hand batch gets the real error...
        with pytest.raises(WorkerDeath):
            doomed.result(timeout=10)
        # ...and the queued request is flushed with the typed error once the
        # worker is gone — before the fix its pending entry leaked forever.
        with pytest.raises(ServiceClosed):
            stranded.result(timeout=10)
        wait_for(lambda: not svc._worker.is_alive())
        with pytest.raises(ServiceClosed):
            svc.submit_async(tiny_traces[2], tiny_design)
        svc.close()  # still idempotent after a crashed worker


class TestFailureIsolation:
    """A failing forward pass must not leave stale coalescing state behind."""

    def test_predictor_failure_rejects_future_then_resubmission_succeeds(
        self, registry, serving_predictor, make_flaky_predictor, tiny_design, tiny_traces
    ):
        flaky = make_flaky_predictor(serving_predictor, [RuntimeError("transient GPU error")])
        registry.register(tiny_design.name, flaky, persist=False)
        with ScreeningService(
            registry, max_batch=4, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
            with pytest.raises(RuntimeError, match="transient GPU error"):
                svc.submit(tiny_traces[0], tiny_design)
            assert count(svc, "failures") == 1
            # The identical resubmission gets a FRESH attempt: the failed
            # in-flight entry was cleaned up, so nothing coalesces onto the
            # dead future and the retry reaches the recovered predictor.
            result = svc.submit(tiny_traces[0], tiny_design)
            assert count(svc, "coalesced") == 0
            assert result.noise_map.shape == tiny_design.tile_grid.shape
        assert flaky.calls == 2


    def test_malformed_trace_fails_only_itself(
        self, registry, serving_predictor, make_gated_predictor, tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)
        bad = CurrentTrace(tiny_traces[2].currents[:, :5], tiny_traces[2].dt, name="bad")
        with ScreeningService(
            registry, max_batch=8, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
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
    """Registry hot-swap with a batch in flight (satellite of PR 7)."""

    def test_swap_mid_batch_keeps_old_weights_for_in_flight_requests(
        self, registry, serving_predictor, alt_predictor, make_gated_predictor,
        tiny_design, tiny_traces
    ):
        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)
        with ScreeningService(
            registry, max_batch=1, max_wait=1e-3, metrics=MetricsRegistry()
        ) as svc:
            in_flight = svc.submit_async(tiny_traces[0], tiny_design)
            assert gated.started.wait(5)  # old checkpoint provably mid-batch
            registry.register(tiny_design.name, alt_predictor, persist=False)
            after = svc.submit_async(tiny_traces[1], tiny_design)
            gated.release.set()

            # The in-flight batch finished on the OLD weights...
            old = in_flight.result(timeout=10)
            expected_old = serving_predictor.predict_trace(tiny_traces[0], tiny_design)
            np.testing.assert_allclose(old.noise_map, expected_old.noise_map, rtol=1e-10)
            # ...the next batch ran on the NEW weights...
            new = after.result(timeout=10)
            expected_new = alt_predictor.predict_trace(tiny_traces[1], tiny_design)
            np.testing.assert_allclose(new.noise_map, expected_new.noise_map, rtol=1e-10)
            assert gated.calls == 1  # the old predictor never saw batch two

            # ...and old-fingerprint cache entries no longer match: the same
            # vector resubmitted is recomputed under the new fingerprint.
            recomputed = svc.submit(tiny_traces[0], tiny_design)
            assert count(svc, "cache_hits") == 0
            np.testing.assert_allclose(
                recomputed.noise_map,
                alt_predictor.predict_trace(tiny_traces[0], tiny_design).noise_map,
                rtol=1e-10,
            )
            assert not np.allclose(recomputed.noise_map, old.noise_map)
            # The new-fingerprint entry it just stored does hit.
            svc.submit(tiny_traces[0], tiny_design)
            assert count(svc, "cache_hits") == 1


class TestServiceLifecycleAndErrors:
    def test_unknown_design_raises_synchronously(self, service, tiny_traces, tiny_design):
        features = extract_vector_features(tiny_traces[0], tiny_design)
        with pytest.raises(KeyError):
            service.submit(features, "not-registered")

    def test_raw_trace_with_name_only_rejected(self, service, tiny_design, tiny_traces):
        with pytest.raises(TypeError):
            service.submit(tiny_traces[0], tiny_design.name)

    def test_worker_errors_propagate_to_caller(self, service, tiny_design, rng):
        bad = VectorFeatures(current_maps=rng.random((4, 5, 5)), name="wrong-shape")
        with pytest.raises(Exception):
            service.submit(bad, tiny_design.name)
        assert count(service, "failures") == 1

    def test_submit_after_close_rejected(self, registry, tiny_design, tiny_traces):
        service = ScreeningService(registry, max_batch=4)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(tiny_traces[0], tiny_design)
        service.close()  # idempotent

    def test_latencies_recorded(self, service, tiny_design, tiny_traces):
        service.screen(tiny_traces[:4], tiny_design)
        latencies = service.latencies()
        assert len(latencies) == 4
        assert all(value >= 0 for value in latencies)


class TestMultiDesignGrouping:
    def test_batches_group_by_design(
        self, registry, tiny_design, serving_predictor, make_gated_predictor, tiny_traces
    ):
        sibling_spec = dataclasses.replace(tiny_design.spec, name="unit-test-b")
        sibling = make_design(sibling_spec, seed=0)
        registry.register(sibling.name, serving_predictor)
        gated = make_gated_predictor(serving_predictor)
        registry.register(tiny_design.name, gated, persist=False)

        with ScreeningService(

            registry, max_batch=16, max_wait=1e-3, metrics=MetricsRegistry()

        ) as svc:
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
