"""Tests for repro.nn.serialization."""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    ReLU,
    Sequential,
    Tensor,
    read_checkpoint,
    save_checkpoint,
)


@pytest.fixture()
def model():
    return Sequential(Conv2d(1, 2, seed=0), ReLU(), Conv2d(2, 1, seed=1))


class TestCheckpointRoundtrip:
    def test_weights_restored(self, model, tmp_path, rng):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        clone = Sequential(Conv2d(1, 2, seed=5), ReLU(), Conv2d(2, 1, seed=6))
        state, _, _ = read_checkpoint(path)
        clone.load_state_dict(state)
        x = Tensor(rng.random((1, 1, 5, 5)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_metadata_roundtrip(self, model, tmp_path):
        path = tmp_path / "model.npz"
        metadata = {"normalizer": {"scale": 2.0}, "note": "hello"}
        save_checkpoint(model, path, metadata=metadata)
        _, loaded, _ = read_checkpoint(path)
        assert loaded == metadata

    def test_no_metadata_returns_none(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        assert read_checkpoint(path)[1] is None

    def test_incompatible_model_rejected(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other = Sequential(Conv2d(1, 3, seed=0))
        state, _, _ = read_checkpoint(path)
        with pytest.raises(ValueError):
            other.load_state_dict(state)


class TestCheckpointExtras:
    def test_extras_roundtrip(self, model, tmp_path, rng):
        path = tmp_path / "model.npz"
        distance = rng.random((3, 4, 4))
        save_checkpoint(model, path, extras={"distance": distance})
        _, _, extras = read_checkpoint(path)
        assert set(extras) == {"distance"}
        np.testing.assert_array_equal(extras["distance"], distance)

    def test_extras_kept_out_of_state(self, model, tmp_path, rng):
        path = tmp_path / "model.npz"
        save_checkpoint(
            model, path, metadata={"k": 1}, extras={"aux": rng.random(5)}
        )
        state, metadata, extras = read_checkpoint(path)
        assert set(state) == set(model.state_dict())
        assert metadata == {"k": 1}
        assert set(extras) == {"aux"}
        clone = Sequential(Conv2d(1, 2, seed=5), ReLU(), Conv2d(2, 1, seed=6))
        clone.load_state_dict(state)
        x = Tensor(rng.random((1, 1, 5, 5)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_no_extras_returns_empty(self, model, tmp_path):
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        assert read_checkpoint(path)[2] == {}


class _Cycle:
    """Cyclic garbage whose finalizer runs Python code inside a GC pass."""

    def __init__(self):
        self.me = self

    def __del__(self):
        sum(range(50))


class TestConcurrentReads:
    def test_threads_load_the_same_checkpoint(self, model, tmp_path, rng):
        # Every .npy header is parsed with ast.literal_eval.  Frequent GC
        # passes that run finalizers, and a tiny switch interval, hand the
        # interpreter to another thread mid-parse; unserialised, CPython
        # 3.11 then fails some reads with "AST constructor recursion depth
        # mismatch".
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, metadata={"k": 1}, extras={"aux": rng.random(5)})
        errors: list[BaseException] = []

        def reader() -> None:
            try:
                for _ in range(150):
                    _Cycle()
                    state, metadata, extras = read_checkpoint(path)
                    model.load_state_dict(state)
                    assert metadata == {"k": 1}
                    assert set(extras) == {"aux"}
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        thresholds, interval = gc.get_threshold(), sys.getswitchinterval()
        gc.set_threshold(5)
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            gc.set_threshold(*thresholds)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[:3]
