"""Tests for the autograd tensor and its elementwise / reduction ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, as_tensor, cat, no_grad
from tests.nn.gradcheck import check_input_gradient


class TestTensorBasics:
    def test_construction_and_shape(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4
        assert not tensor.requires_grad

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_rejects_non_scalar_backward(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (tensor * 2).backward()

    def test_as_tensor_passthrough(self):
        tensor = Tensor(np.ones(2))
        assert as_tensor(tensor) is tensor
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)

    def test_no_grad_blocks_recording(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            output = (tensor * 2).mean()
        assert output._function is None

    def test_gradient_accumulates_across_backward_calls(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        tensor.mean().backward()
        tensor.mean().backward()
        np.testing.assert_allclose(tensor.grad, 2 * np.ones(3) / 3)

    def test_zero_grad(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        tensor.mean().backward()
        tensor.zero_grad()
        assert tensor.grad is None

    def test_backward_shape_mismatch_rejected(self):
        tensor = Tensor(np.ones(3), requires_grad=True)
        output = tensor * 2
        with pytest.raises(ValueError):
            output.backward(np.ones(4))

    def test_repr(self):
        assert "shape=(2,)" in repr(Tensor(np.ones(2)))


class TestArithmetic:
    def test_add_and_scalar(self):
        result = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(result.data, [2.0, 3.0])

    def test_radd_rsub_rmul(self):
        tensor = Tensor([2.0, 4.0])
        np.testing.assert_allclose((1.0 + tensor).data, [3.0, 5.0])
        np.testing.assert_allclose((10.0 - tensor).data, [8.0, 6.0])
        np.testing.assert_allclose((3.0 * tensor).data, [6.0, 12.0])

    def test_neg(self):
        tensor = Tensor([2.0, 3.0])
        np.testing.assert_allclose((-tensor).data, [-2.0, -3.0])

    def test_broadcast_add_gradient(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((1, 3))
        check_input_gradient(lambda t: t + b, a)
        check_input_gradient(lambda t: Tensor(a) + t, b)

    def test_mul_gradient(self, rng):
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((3, 5))
        check_input_gradient(lambda t: t * b, a)

    def test_matmul_gradient(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        check_input_gradient(lambda t: t @ b, a)
        check_input_gradient(lambda t: Tensor(a) @ t, b)

    def test_matmul_values(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose((a @ b).data, b.data)


class TestElementwiseFunctions:
    @pytest.mark.parametrize("method", ["relu", "abs"])
    def test_gradients(self, method, rng):
        array = rng.standard_normal((3, 4))
        check_input_gradient(lambda t: getattr(t, method)(), array)

    def test_sqrt_gradient_on_positive_input(self, rng):
        array = rng.random((3, 4)) + 0.5
        check_input_gradient(lambda t: t.sqrt(), array)

    def test_relu_values(self):
        np.testing.assert_allclose(Tensor([-1.0, 2.0]).relu().data, [0.0, 2.0])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_relu_under_no_grad_never_writes_its_input(self, dtype):
        array = np.array([[-1.5, 0.0, 2.0], [3.0, -0.25, -7.0]], dtype=dtype)
        before = array.copy()
        x = Tensor(array)
        with no_grad():
            y = x.relu()
        # The caller's array is untouched and the result does not alias it.
        assert x.data is array
        np.testing.assert_array_equal(array, before)
        assert not np.shares_memory(y.data, array)
        assert y.data.dtype == dtype
        np.testing.assert_array_equal(y.data, np.maximum(before, 0))

    @pytest.mark.parametrize("recording", [False, True])
    def test_relu_keeps_nan(self, recording):
        x = Tensor([np.nan, -1.0, 1.0], requires_grad=recording)
        if recording:
            y = x.relu()
        else:
            with no_grad():
                y = x.relu()
        assert np.isnan(y.data[0])
        np.testing.assert_array_equal(y.data[1:], [0.0, 1.0])

class TestReductions:
    def test_mean_matches_numpy(self, rng):
        array = rng.standard_normal((4, 5))
        np.testing.assert_allclose(Tensor(array).mean(axis=1).data, array.mean(axis=1))

    def test_max_min_values(self, rng):
        array = rng.standard_normal((4, 5))
        np.testing.assert_allclose(Tensor(array).max(axis=0).data, array.max(axis=0))
        np.testing.assert_allclose(Tensor(array).min(axis=1).data, array.min(axis=1))

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_mean_gradient(self, axis, rng):
        array = rng.standard_normal((3, 4))
        check_input_gradient(lambda t: t.mean(axis=axis), array)

    def test_max_gradient_no_ties(self, rng):
        array = rng.standard_normal((4, 6))
        check_input_gradient(lambda t: t.max(axis=0), array)
        check_input_gradient(lambda t: t.min(axis=1), array)

    def test_max_gradient_with_ties_splits_evenly(self):
        array = np.array([[1.0, 1.0, 0.0]])
        tensor = Tensor(array, requires_grad=True)
        tensor.max(axis=1).mean().backward()
        np.testing.assert_allclose(tensor.grad, [[0.5, 0.5, 0.0]])

    def test_std_gradient(self, rng):
        array = rng.standard_normal((5, 4))
        check_input_gradient(lambda t: t.std(axis=0), array, rtol=1e-3, atol=1e-5)

    def test_std_matches_numpy(self, rng):
        array = rng.standard_normal((50,))
        assert Tensor(array).std().item() == pytest.approx(array.std(), rel=1e-6)


class TestShapeOps:
    def test_reshape_and_gradient(self, rng):
        array = rng.standard_normal((2, 6))
        check_input_gradient(lambda t: t.reshape(3, 4), array)
        check_input_gradient(lambda t: t.reshape((12,)), array)

    def test_transpose_and_gradient(self, rng):
        array = rng.standard_normal((2, 3, 4))
        check_input_gradient(lambda t: t.transpose((2, 0, 1)), array)

    def test_getitem_slice_gradient(self, rng):
        array = rng.standard_normal((4, 5, 6))
        check_input_gradient(lambda t: t[:, 1:4, ::2], array)

    def test_getitem_values(self):
        tensor = Tensor(np.arange(10, dtype=float))
        np.testing.assert_allclose(tensor[2:5].data, [2.0, 3.0, 4.0])

    def test_cat_values_and_gradient(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((2, 2))
        joined = cat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(joined.data, np.concatenate([a, b], axis=1))
        check_input_gradient(lambda t: cat([t, Tensor(b)], axis=1), a)

    @given(rows=st.integers(1, 5), cols=st.integers(1, 5), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_mean_of_column_means_equals_total(self, rows, cols, seed):
        generator = np.random.default_rng(seed)
        array = generator.standard_normal((rows, cols))
        tensor = Tensor(array)
        assert tensor.mean().item() == pytest.approx(
            tensor.mean(axis=0).mean().item(), rel=1e-9, abs=1e-12
        )


class TestBroadcastTo:
    def test_values(self, rng):
        tensor = Tensor(rng.random((1, 1, 3, 3)))
        expanded = tensor.broadcast_to(4, 1, 3, 3)
        assert expanded.shape == (4, 1, 3, 3)
        for i in range(4):
            np.testing.assert_array_equal(expanded.data[i], tensor.data[0])

    def test_output_is_contiguous(self, rng):
        expanded = Tensor(rng.random((1, 3))).broadcast_to(5, 3)
        assert expanded.data.flags["C_CONTIGUOUS"]

    def test_gradient_sums_over_broadcast_axes(self, rng):
        array = rng.random((1, 3))
        check_input_gradient(lambda t: t.broadcast_to(4, 3), array)

    def test_tuple_shape_accepted(self, rng):
        expanded = Tensor(rng.random((2, 1))).broadcast_to((2, 5))
        assert expanded.shape == (2, 5)
