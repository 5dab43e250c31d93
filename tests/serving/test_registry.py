"""Tests for the per-design predictor registry."""

import threading

import numpy as np
import pytest

from repro.serving import PredictorRegistry


class TestPredictorRegistry:
    def test_register_writes_checkpoint(self, registry, tiny_design):
        path = registry.checkpoint_path(tiny_design.name)
        assert path.exists()
        assert tiny_design.name in registry.available()
        assert tiny_design.name in registry

    def test_get_returns_resident_predictor(self, registry, tiny_design, serving_predictor):
        assert registry.get(tiny_design.name) is serving_predictor
        assert registry.loaded() == (tiny_design.name,)

    def test_get_loads_from_disk_after_eviction(
        self, registry, tiny_design, serving_predictor, tiny_traces
    ):
        original = serving_predictor.predict_trace(tiny_traces[0], tiny_design)
        assert registry.evict(tiny_design.name)
        assert registry.loaded() == ()
        reloaded = registry.get(tiny_design.name)
        assert reloaded is not serving_predictor
        assert registry.loaded() == (tiny_design.name,)
        assert registry.get(tiny_design.name) is reloaded
        result = reloaded.predict_trace(tiny_traces[0], tiny_design)
        np.testing.assert_allclose(result.noise_map, original.noise_map, rtol=1e-10)
        assert reloaded.fingerprint == serving_predictor.fingerprint

    def test_loaded_models_are_frozen(self, registry, tiny_design):
        registry.evict(tiny_design.name)
        predictor = registry.get(tiny_design.name)
        assert all(not p.requires_grad for p in predictor.model.parameters())

    def test_capacity_eviction(self, tmp_path, tiny_design, serving_predictor):
        registry = PredictorRegistry(tmp_path / "small", capacity=2)
        for name in ("alpha", "beta", "gamma"):
            registry.register(name, serving_predictor)
        assert len(registry.loaded()) == 2
        assert registry.loaded() == ("beta", "gamma")
        # alpha's checkpoint survives on disk and can be reloaded.
        assert "alpha" in registry.available()
        registry.get("alpha")
        assert "alpha" in registry.loaded()

    def test_unknown_design_raises(self, registry):
        with pytest.raises(KeyError, match="no predictor registered"):
            registry.get("nonexistent")

    def test_invalid_design_name_rejected(self, registry):
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(ValueError):
                registry.checkpoint_path(bad)

    def test_evict_missing_returns_false(self, registry):
        assert not registry.evict("nonexistent")

    def test_capacity_validation(self, tmp_path):
        with pytest.raises(ValueError):
            PredictorRegistry(tmp_path, capacity=0)


class TestRegistryConcurrency:
    """LRU eviction under concurrent access must stay consistent."""

    NAMES = ("alpha", "beta", "gamma", "delta")

    def _populated_registry(self, root, serving_predictor, capacity):
        registry = PredictorRegistry(root, capacity=capacity)
        for name in self.NAMES:
            registry.register(name, serving_predictor)
        registry.clear()
        return registry

    def test_concurrent_gets_with_lru_thrashing(self, tmp_path, serving_predictor):
        # Capacity 2 with 4 designs: every thread's access pattern forces
        # loads and evictions to interleave.  The registry must never raise,
        # never exceed capacity, and always hand back a predictor whose
        # fingerprint matches the registered checkpoint.
        registry = self._populated_registry(tmp_path / "thrash", serving_predictor, capacity=2)
        expected = serving_predictor.fingerprint
        errors: list[BaseException] = []
        barrier = threading.Barrier(8)

        def worker(offset: int) -> None:
            try:
                barrier.wait(timeout=10)
                for step in range(25):
                    name = self.NAMES[(offset + step) % len(self.NAMES)]
                    predictor = registry.get(name)
                    assert predictor.fingerprint == expected
                    if step % 7 == 0:
                        registry.evict(name)
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors, errors
        assert len(registry.loaded()) <= 2
        # Every design is still loadable afterwards (no checkpoint was lost).
        for name in self.NAMES:
            assert registry.get(name).fingerprint == expected

    def test_concurrent_register_and_get(self, tmp_path, serving_predictor):
        # Hot-swapping a design while readers fetch it: readers must always
        # observe a fully-constructed predictor (old or new, never torn).
        registry = self._populated_registry(tmp_path / "swap", serving_predictor, capacity=3)
        errors: list[BaseException] = []
        stop = threading.Event()

        def writer() -> None:
            try:
                while not stop.is_set():
                    registry.register("alpha", serving_predictor, persist=False)
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def reader() -> None:
            try:
                for _ in range(50):
                    predictor = registry.get("alpha")
                    assert predictor.model.num_bumps == serving_predictor.model.num_bumps
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        writer_thread = threading.Thread(target=writer)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=30)
        stop.set()
        writer_thread.join(timeout=30)
        assert not errors, errors
