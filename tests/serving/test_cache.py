"""Tests for the serving result cache and content hashing."""

import numpy as np
import pytest

from repro.features.extraction import VectorFeatures, extract_vector_features
from repro.serving import LRUCache, result_cache_key, trace_content_hash
from repro.sim.waveform import CurrentTrace


class TestLRUCache:
    def test_miss_then_hit(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # refresh, no growth
        assert len(cache) == 2
        assert cache.get("a") == 10

    def test_clear(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=0)


class TestContentHash:
    def test_name_does_not_change_hash(self, rng):
        currents = rng.random((20, 6))
        first = CurrentTrace(currents, 1e-11, name="v0")
        renamed = CurrentTrace(currents.copy(), 1e-11, name="v1")
        assert trace_content_hash(first) == trace_content_hash(renamed)

    def test_content_and_dt_change_hash(self, rng):
        currents = rng.random((20, 6))
        base = CurrentTrace(currents, 1e-11)
        different = CurrentTrace(currents + 1e-3, 1e-11)
        slower = CurrentTrace(currents, 2e-11)
        assert trace_content_hash(base) != trace_content_hash(different)
        assert trace_content_hash(base) != trace_content_hash(slower)

    def test_features_hash(self, rng):
        features = VectorFeatures(current_maps=rng.random((5, 4, 4)), name="x")
        renamed = VectorFeatures(current_maps=features.current_maps.copy(), name="y")
        assert trace_content_hash(features) == trace_content_hash(renamed)

    def test_known_digests(self):
        # Pinned: a change to what the key hashes (or how) shows here.
        trace = CurrentTrace(np.arange(12.0).reshape(4, 3), 1e-11)
        assert trace_content_hash(trace) == (
            "4f5a8fbccef37d87953e04525ff73ad0838db32d590741017da0e98e0403c897"
        )
        features = VectorFeatures(current_maps=np.arange(32.0).reshape(2, 4, 4), name="x")
        assert trace_content_hash(features) == (
            "c240eeab7c39b5e2ad93bf101a17998da74457641ef80659c80e71b34b13306d"
        )
        # A Fortran-ordered copy of the same samples hashes the same.
        transposed = CurrentTrace(np.asfortranarray(trace.currents), 1e-11)
        assert trace_content_hash(transposed) == trace_content_hash(trace)

    def test_unsupported_payload_rejected(self):
        with pytest.raises(TypeError):
            trace_content_hash(np.zeros((3, 3)))

    def test_cache_key_includes_predictor_fingerprint(
        self, serving_predictor, tiny_design, tiny_traces
    ):
        key = result_cache_key(tiny_traces[0], serving_predictor)
        assert key.startswith(serving_predictor.fingerprint)
        features = extract_vector_features(tiny_traces[0], tiny_design)
        assert result_cache_key(features, serving_predictor) != key
