"""Tests for the kernel-dispatch layer (``repro.nn.kernels``).

Covers the three things the module owns — dtype policy, thread sharding,
backend registry — plus the workspace pool's (shape, dtype) keying and
recency-ordered eviction, and two end-to-end guarantees: the default
float64 path matches the pre-refactor implementation to rtol/atol 1e-12
(golden arrays captured before the dispatch layer existed; the convolution
kernels have since changed summation order), and float32 inference matches
float64 to single-precision rounding.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import WorstCaseNoiseNet
from repro.nn import Tensor, conv2d, conv_transpose2d, kernels, no_grad

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_float64.npz"


# ---------------------------------------------------------------------- #
# dtype policy
# ---------------------------------------------------------------------- #


def test_canonical_dtype_accepts_supported_specs():
    for spec in ("float64", np.float64, np.dtype(np.float64)):
        assert kernels.canonical_dtype(spec) == np.dtype(np.float64)
    for spec in ("float32", np.float32, np.dtype(np.float32)):
        assert kernels.canonical_dtype(spec) == np.dtype(np.float32)


@pytest.mark.parametrize("bad", ["float16", "int32", np.complex128, "bogus"])
def test_canonical_dtype_rejects_unsupported(bad):
    with pytest.raises((TypeError, ValueError)):
        kernels.canonical_dtype(bad)


def test_dtype_name_round_trips():
    assert kernels.dtype_name(np.float32) == "float32"
    assert kernels.dtype_name("float64") == "float64"


# ---------------------------------------------------------------------- #
# backend registry
# ---------------------------------------------------------------------- #


class _NegatingBackend(kernels.NumpyBackend):
    """A deliberately wrong backend so dispatch switches are observable."""

    name = "negating"

    def matmul(self, a, b):
        return -np.matmul(a, b)


def test_numpy_backend_always_registered():
    assert "numpy" in kernels.available_backends()
    assert kernels.get_backend_name() == "numpy"


def test_register_backend_rejects_numpy_replacement():
    with pytest.raises(ValueError):
        kernels.register_backend("numpy", _NegatingBackend())
    with pytest.raises(ValueError):
        kernels.register_backend("", _NegatingBackend())


def test_set_backend_unknown_name():
    with pytest.raises(KeyError):
        kernels.set_backend("no-such-backend")
    with pytest.raises(KeyError):
        kernels.use_backend("no-such-backend")


def test_use_backend_scoped_dispatch():
    kernels.register_backend("negating", _NegatingBackend())
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(3, 4)
    reference = np.matmul(a, b)
    with kernels.use_backend("negating"):
        assert kernels.get_backend_name() == "negating"
        np.testing.assert_array_equal(kernels.matmul(a, b), -reference)
    # The override is scoped: dispatch reverts on exit.
    assert kernels.get_backend_name() == "numpy"
    np.testing.assert_array_equal(kernels.matmul(a, b), reference)


def test_use_backend_is_thread_local():
    import threading

    kernels.register_backend("negating", _NegatingBackend())
    seen = {}

    def other_thread():
        seen["name"] = kernels.get_backend_name()

    with kernels.use_backend("negating"):
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
    # The override applied to this thread only.
    assert seen["name"] == "numpy"


# ---------------------------------------------------------------------- #
# thread sharding
# ---------------------------------------------------------------------- #


def test_sharded_matmul_bit_identical():
    rng = np.random.default_rng(0)
    cases = [
        (rng.standard_normal((12, 5, 7)), rng.standard_normal((12, 7, 3))),  # 3d @ 3d
        (rng.standard_normal((4, 6)), rng.standard_normal((16, 6, 5))),  # 2d @ 3d
        (rng.standard_normal((16, 4, 6)), rng.standard_normal((6, 5))),  # 3d @ 2d
    ]
    for a, b in cases:
        reference = kernels.matmul(a, b)
        for threads in (2, 3, 5):
            with kernels.use_kernel_threads(threads):
                sharded = kernels.matmul(a, b)
            assert np.array_equal(sharded, reference)
            assert sharded.dtype == reference.dtype


def test_sharded_matmul_float32_bit_identical():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((10, 4, 8)).astype(np.float32)
    b = rng.standard_normal((10, 8, 3)).astype(np.float32)
    reference = kernels.matmul(a, b)
    assert reference.dtype == np.float32
    with kernels.use_kernel_threads(4):
        assert np.array_equal(kernels.matmul(a, b), reference)


def test_small_batches_never_sharded():
    # Batches below the shard threshold take the single-call path even with
    # threads configured (the result is identical either way; this pins the
    # no-overhead contract for tiny batches).
    rng = np.random.default_rng(2)
    a = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 4, 5))
    with kernels.use_kernel_threads(8):
        np.testing.assert_array_equal(kernels.matmul(a, b), np.matmul(a, b))


def test_shard_bounds_cover_batch_exactly():
    for batch in (1, 7, 8, 13):
        for shards in (1, 2, 3, 8):
            bounds = kernels._shard_bounds(batch, min(shards, batch))
            assert bounds[0][0] == 0
            assert bounds[-1][1] == batch
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo


def test_set_kernel_threads_validation():
    with pytest.raises(ValueError):
        kernels.set_kernel_threads(0)
    with pytest.raises(ValueError):
        kernels.use_kernel_threads(0)


def test_threads_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "3")
    assert kernels._threads_from_env() == 3
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "")
    assert kernels._threads_from_env() == 1
    monkeypatch.setenv("REPRO_KERNEL_THREADS", "many")
    with pytest.raises(ValueError):
        kernels._threads_from_env()


# ---------------------------------------------------------------------- #
# workspace pool
# ---------------------------------------------------------------------- #


@pytest.fixture()
def fresh_pool():
    kernels.clear_workspace_pool()
    yield
    kernels.clear_workspace_pool()


def test_pool_keyed_by_shape_and_dtype(fresh_pool):
    f64 = kernels.take_workspace((4, 5), np.float64)
    f32 = kernels.take_workspace((4, 5), np.float32)
    assert f64.dtype == np.float64 and f32.dtype == np.float32
    kernels.release_workspace(f64)
    kernels.release_workspace(f32)
    # Same shape, different dtype: each take gets its own buffer back.
    assert kernels.take_workspace((4, 5), np.float32) is f32
    assert kernels.take_workspace((4, 5), np.float64) is f64


def test_pool_unsupported_buffers_not_pooled(fresh_pool):
    ints = np.empty((3, 3), dtype=np.int64)
    kernels.release_workspace(ints)
    strided = np.empty((6, 6))[::2, ::2]
    kernels.release_workspace(strided)
    assert kernels.workspace_pool_stats()["pooled_bytes"] == 0


def test_pool_caps_buffers_per_key(fresh_pool):
    buffers = [kernels.take_workspace((8,)) for _ in range(6)]
    for buffer in buffers:
        kernels.release_workspace(buffer)
    stats = kernels.workspace_pool_stats()
    assert stats["keys"][((8,), "float64")] == kernels._MAX_POOLED_PER_KEY


def test_pool_eviction_is_recency_ordered(fresh_pool, monkeypatch):
    # Cap the pool at ~3 small buffers so eviction is easy to trigger.
    buffer_bytes = np.empty((16,), dtype=np.float64).nbytes
    monkeypatch.setattr(kernels, "_MAX_POOLED_BYTES", 3 * buffer_bytes)

    hot = kernels.take_workspace((16,))
    cold_a = kernels.take_workspace((17,))
    cold_b = kernels.take_workspace((18,))
    for buffer in (cold_a, cold_b, hot):
        kernels.release_workspace(buffer)

    # Touch the hot key (take + release refresh its recency)...
    assert kernels.take_workspace((16,)) is hot
    kernels.release_workspace(hot)
    # ...then release new shapes until something must be evicted.
    kernels.release_workspace(np.empty((19,)))
    stats = kernels.workspace_pool_stats()
    # The least-recently-used keys (cold_a, then cold_b) were evicted first;
    # the hot key survived the drift.  Pre-fix behaviour evicted by insertion
    # order, which would have dropped the hot key instead.
    assert ((16,), "float64") in stats["keys"]
    assert ((17,), "float64") not in stats["keys"]


def test_pool_take_refreshes_recency_with_multiple_buffers(fresh_pool, monkeypatch):
    buffer_bytes = np.empty((16,), dtype=np.float64).nbytes
    monkeypatch.setattr(kernels, "_MAX_POOLED_BYTES", 4 * buffer_bytes)

    hot_a = kernels.take_workspace((16,))
    hot_b = kernels.take_workspace((16,))
    cold = kernels.take_workspace((17,))
    kernels.release_workspace(hot_a)
    kernels.release_workspace(hot_b)
    kernels.release_workspace(cold)
    # Taking one of the hot key's buffers (leaving one pooled) must move the
    # key to the back of the eviction order even though the key stays present.
    taken = kernels.take_workspace((16,))
    kernels.release_workspace(np.empty((18,)))
    kernels.release_workspace(np.empty((19,)))
    stats = kernels.workspace_pool_stats()
    assert ((16,), "float64") in stats["keys"]
    assert ((17,), "float64") not in stats["keys"]
    kernels.release_workspace(taken)


def test_pool_oversized_buffer_bypasses_pool(fresh_pool, monkeypatch):
    monkeypatch.setattr(kernels, "_MAX_POOLED_BYTES", 64)
    small = kernels.take_workspace((4,))
    kernels.release_workspace(small)
    before = kernels.workspace_pool_stats()
    kernels.release_workspace(np.empty((1024,)))
    # The oversized buffer was dropped without disturbing pooled entries.
    assert kernels.workspace_pool_stats() == before


# ---------------------------------------------------------------------- #
# golden float64 parity (pre-refactor reference outputs)
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def golden():
    return np.load(GOLDEN_PATH)


def assert_matches_golden(actual, expected):
    """The pinned float64 tolerance: summation order may change, values may not."""
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "tag, stride, padding, mode",
    [("s1_replicate", 1, 1, "replicate"), ("s2_zeros", 2, 1, "zeros")],
)
def test_conv2d_matches_pre_refactor(golden, tag, stride, padding, mode):
    x = Tensor(golden[f"conv_{tag}_x"], requires_grad=True)
    w = Tensor(golden[f"conv_{tag}_w"], requires_grad=True)
    b = Tensor(golden[f"conv_{tag}_b"], requires_grad=True)
    y = conv2d(x, w, b, stride=stride, padding=padding, padding_mode=mode)
    y.backward(golden[f"conv_{tag}_seed"])
    assert_matches_golden(y.data, golden[f"conv_{tag}_y"])
    assert_matches_golden(x.grad, golden[f"conv_{tag}_gx"])
    assert_matches_golden(w.grad, golden[f"conv_{tag}_gw"])
    assert_matches_golden(b.grad, golden[f"conv_{tag}_gb"])


def test_conv_transpose2d_matches_pre_refactor(golden):
    x = Tensor(golden["deconv_x"], requires_grad=True)
    w = Tensor(golden["deconv_w"], requires_grad=True)
    b = Tensor(golden["deconv_b"], requires_grad=True)
    y = conv_transpose2d(x, w, b, stride=2, padding=1)
    y.backward(golden["deconv_seed"])
    assert_matches_golden(y.data, golden["deconv_y"])
    assert_matches_golden(x.grad, golden["deconv_gx"])
    assert_matches_golden(w.grad, golden["deconv_gw"])
    assert_matches_golden(b.grad, golden["deconv_gb"])


def _golden_model():
    return WorstCaseNoiseNet(
        num_bumps=5,
        config=ModelConfig(
            distance_kernels=4, fusion_kernels=4, prediction_kernels=4, seed=3
        ),
    )


def test_model_forward_matches_pre_refactor(golden):
    model = _golden_model()
    with no_grad():
        pred = model.forward_batch(golden["model_currents"], golden["model_distance"])
    assert_matches_golden(pred.data, golden["model_pred"])


def test_model_ragged_forward_matches_pre_refactor(golden):
    model = _golden_model()
    ragged = [golden[f"model_ragged_{i}"] for i in range(4)]
    with no_grad():
        pred = model.forward_batch(ragged, golden["model_distance"])
    assert_matches_golden(pred.data, golden["model_ragged_pred"])


# ---------------------------------------------------------------------- #
# float32 vs float64 parity
# ---------------------------------------------------------------------- #


def test_float32_forward_matches_float64(golden):
    model64 = _golden_model()
    model32 = _golden_model().astype("float32")
    currents = golden["model_currents"]
    distance = golden["model_distance"]
    with no_grad():
        pred64 = model64.forward_batch(currents, distance)
        pred32 = model32.forward_batch(
            currents.astype(np.float32), distance.astype(np.float32)
        )
    assert pred64.data.dtype == np.float64
    assert pred32.data.dtype == np.float32
    np.testing.assert_allclose(pred32.data, pred64.data, rtol=1e-3, atol=1e-4)


def test_float32_ragged_forward_matches_float64(golden):
    model64 = _golden_model()
    model32 = _golden_model().astype("float32")
    ragged = [golden[f"model_ragged_{i}"] for i in range(4)]
    distance = golden["model_distance"]
    with no_grad():
        pred64 = model64.forward_batch(ragged, distance)
        pred32 = model32.forward_batch(
            [r.astype(np.float32) for r in ragged], distance.astype(np.float32)
        )
    assert pred32.data.dtype == np.float32
    np.testing.assert_allclose(pred32.data, pred64.data, rtol=1e-3, atol=1e-4)


def test_module_astype_round_trip():
    model = _golden_model()
    originals = {name: p.data.copy() for name, p in model.named_parameters()}
    model.astype("float32")
    for _, parameter in model.named_parameters():
        assert parameter.data.dtype == np.float32
    model.astype(np.float64)
    for name, parameter in model.named_parameters():
        assert parameter.data.dtype == np.float64
        # float64 -> float32 -> float64 loses mantissa bits; values stay close.
        np.testing.assert_allclose(parameter.data, originals[name], rtol=1e-6, atol=1e-7)


def test_tensor_astype_casts_gradients_back():
    x = Tensor(np.arange(4.0), requires_grad=True)
    y = (x.astype("float32") * 2.0).sum()
    assert y.data.dtype == np.float32
    y.backward()
    # The Cast adjoint restores the leaf's dtype, so the optimizer state
    # (float64) never silently mixes precisions.
    assert x.grad.dtype == np.float64
    np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
