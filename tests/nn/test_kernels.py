"""Tests for the kernel-dispatch layer (``repro.nn.kernels``).

Covers the two things the module owns — dtype policy and the backend
registry — plus buffer ownership (a padded input saved for backward is
never handed to a later forward), and two end-to-end guarantees: the default
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
    assert kernels.get_backend_name() == "numpy"


def test_register_backend_rejects_numpy_replacement():
    with pytest.raises(ValueError):
        kernels.register_backend("numpy", _NegatingBackend())
    with pytest.raises(ValueError):
        kernels.register_backend("", _NegatingBackend())


def test_set_backend_unknown_name():
    with pytest.raises(KeyError):
        kernels.set_backend("no-such-backend")


def test_set_backend_dispatches_process_wide():
    import threading

    kernels.register_backend("negating", _NegatingBackend())
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(3, 4)
    reference = np.matmul(a, b)
    seen = {}
    kernels.set_backend("negating")
    try:
        np.testing.assert_array_equal(kernels.matmul(a, b), -reference)
        worker = threading.Thread(target=lambda: seen.update(name=kernels.get_backend_name()))
        worker.start()
        worker.join()
    finally:
        kernels.set_backend("numpy")
    # Every thread dispatches to the active backend (perfbench's timing
    # backend relies on this to see the gateway's shard threads).
    assert seen["name"] == "negating"
    np.testing.assert_array_equal(kernels.matmul(a, b), reference)


def test_kernels_run_on_the_callers_thread():
    assert kernels.kernel_threads() == 1


# ---------------------------------------------------------------------- #
# buffer ownership
# ---------------------------------------------------------------------- #


def _mirrored_conv(x, weight):
    # Stride 1 with C_out <= C_in: the layer keeps its padded input.
    return conv2d(x, weight, stride=1, padding=1, padding_mode="replicate")


def test_saved_padded_input_survives_later_forwards():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 3, 5, 5)), requires_grad=True)
    weight = Tensor(rng.standard_normal((2, 3, 3, 3)), requires_grad=True)
    grad = rng.standard_normal((2, 2, 5, 5))
    reference_x = Tensor(x.data.copy(), requires_grad=True)
    reference_w = Tensor(weight.data.copy(), requires_grad=True)
    _mirrored_conv(reference_x, reference_w).backward(grad)

    y = _mirrored_conv(x, weight)
    saved = y._ctx.saved[0]
    snapshot = saved.copy()
    # Same-shape forwards, recording and not, before the backward runs: each
    # pads into its own buffer, never into the one the first layer owns.
    for _ in range(3):
        other = Tensor(rng.standard_normal(x.shape))
        assert _mirrored_conv(other, weight)._ctx.saved[0] is not saved
        with no_grad():
            _mirrored_conv(other, weight)
    np.testing.assert_array_equal(saved, snapshot)

    y.backward(grad)
    np.testing.assert_array_equal(x.grad, reference_x.grad)
    np.testing.assert_array_equal(weight.grad, reference_w.grad)


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
