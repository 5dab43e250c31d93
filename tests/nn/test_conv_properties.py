"""Property tests for the convolution kernels and layers (derandomized).

Pins the invariants every convolution path must keep, whichever channel
side it unfolds: the adjoint pairs (im2col/col2im, pad/unpad,
conv/conv-transpose) and agreement of both layer classes, forward and
backward, with brute-force loop references.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, conv2d, conv_transpose2d
from repro.nn.conv import PADDING_MODES, col2im, im2col, pad_input, unpad_gradient

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

kernels_ = st.integers(1, 4)
strides = st.integers(1, 3)
channels = st.integers(1, 4)
sizes = st.integers(1, 7)
seeds = st.integers(0, 2**16)


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-10)


def reference_conv2d(x, weight, bias, stride, padding, mode):
    """Direct-loop convolution: one window dot product per output pixel."""
    x_padded = pad_input(x, padding, mode)
    out_channels, _, kernel, _ = weight.shape
    out_h = (x_padded.shape[2] - kernel) // stride + 1
    out_w = (x_padded.shape[3] - kernel) // stride + 1
    output = np.zeros((x.shape[0], out_channels, out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            patch = x_padded[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            output[:, :, i, j] = np.einsum("nckl,ockl->no", patch, weight)
    return output + bias.reshape(1, -1, 1, 1)


def reference_conv2d_grads(x, weight, grad, stride, padding, mode):
    """Input and weight gradients of :func:`reference_conv2d` by direct loops."""
    x_padded = pad_input(x, padding, mode)
    kernel = weight.shape[2]
    grad_padded = np.zeros_like(x_padded)
    grad_weight = np.zeros_like(weight)
    for i in range(grad.shape[2]):
        for j in range(grad.shape[3]):
            rows = slice(i * stride, i * stride + kernel)
            cols = slice(j * stride, j * stride + kernel)
            grad_padded[:, :, rows, cols] += np.einsum("no,ockl->nckl", grad[:, :, i, j], weight)
            grad_weight += np.einsum("no,nckl->ockl", grad[:, :, i, j], x_padded[:, :, rows, cols])
    return unpad_gradient(grad_padded, padding, mode), grad_weight


def reference_conv_transpose2d(x, weight, bias, stride, padding):
    """Direct-loop transposed convolution: scatter each input pixel's kernel."""
    batch, _, in_h, in_w = x.shape
    _, out_channels, kernel, _ = weight.shape
    full = np.zeros((batch, out_channels, (in_h - 1) * stride + kernel, (in_w - 1) * stride + kernel))
    for i in range(in_h):
        for j in range(in_w):
            full[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel] += np.einsum(
                "nc,cokl->nokl", x[:, :, i, j], weight
            )
    output = full[:, :, padding : full.shape[2] - padding, padding : full.shape[3] - padding]
    return output + bias.reshape(1, -1, 1, 1)


def reference_conv_transpose2d_grads(x, weight, grad, stride, padding):
    """Input and weight gradients of :func:`reference_conv_transpose2d`."""
    kernel = weight.shape[2]
    grad_full = pad_input(grad, padding, "zeros")
    grad_x = np.zeros_like(x)
    grad_weight = np.zeros_like(weight)
    for i in range(x.shape[2]):
        for j in range(x.shape[3]):
            window = grad_full[:, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
            grad_x[:, :, i, j] = np.einsum("nokl,cokl->nc", window, weight)
            grad_weight += np.einsum("nc,nokl->cokl", x[:, :, i, j], window)
    return grad_x, grad_weight


@PROPERTY_SETTINGS
@given(kernel=kernels_, stride=strides, chans=channels, height=sizes, width=sizes, seed=seeds)
def test_im2col_col2im_are_adjoint(kernel, stride, chans, height, width, seed):
    assume(height >= kernel and width >= kernel)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, chans, height, width))
    columns = im2col(x, kernel, stride)
    y = rng.standard_normal(columns.shape)
    _assert_close(_inner(columns, y), _inner(x, col2im(y, x.shape, kernel, stride)))


@PROPERTY_SETTINGS
@given(
    padding=st.integers(0, 3),
    mode=st.sampled_from(PADDING_MODES),
    height=sizes,
    width=sizes,
    seed=seeds,
)
def test_pad_unpad_are_adjoint(padding, mode, height, width, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, height, width))
    y = rng.standard_normal((2, 2, height + 2 * padding, width + 2 * padding))
    _assert_close(_inner(pad_input(x, padding, mode), y), _inner(x, unpad_gradient(y, padding, mode)))


@PROPERTY_SETTINGS
@given(
    kernel=kernels_,
    stride=strides,
    data=st.data(),
    in_channels=channels,
    out_channels=channels,
    out_h=st.integers(1, 5),
    out_w=st.integers(1, 5),
    seed=seeds,
)
def test_conv_and_conv_transpose_are_adjoint(
    kernel, stride, data, in_channels, out_channels, out_h, out_w, seed
):
    # <conv(x; W), y> == <x, conv_T(y; W)> whenever the transposed conv maps
    # the conv's output size back onto its input size exactly.
    padding = data.draw(st.integers(0, kernel - 1))
    height = (out_h - 1) * stride + kernel - 2 * padding
    width = (out_w - 1) * stride + kernel - 2 * padding
    assume(height >= 1 and width >= 1)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, in_channels, height, width))
    y = rng.standard_normal((2, out_channels, out_h, out_w))
    weight = rng.standard_normal((out_channels, in_channels, kernel, kernel))
    forward = conv2d(Tensor(x), Tensor(weight), stride=stride, padding=padding).data
    adjoint = conv_transpose2d(Tensor(y), Tensor(weight), stride=stride, padding=padding).data
    assert forward.shape == y.shape and adjoint.shape == x.shape
    _assert_close(_inner(forward, y), _inner(x, adjoint))


@PROPERTY_SETTINGS
@given(
    kernel=kernels_,
    stride=strides,
    data=st.data(),
    mode=st.sampled_from(PADDING_MODES),
    in_channels=channels,
    out_channels=channels,
    height=sizes,
    width=sizes,
    seed=seeds,
)
def test_conv2d_matches_loop_reference(
    kernel, stride, data, mode, in_channels, out_channels, height, width, seed
):
    padding = data.draw(st.integers(0, kernel - 1))
    assume(height + 2 * padding >= kernel and width + 2 * padding >= kernel)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, in_channels, height, width)), requires_grad=True)
    weight = Tensor(rng.standard_normal((out_channels, in_channels, kernel, kernel)), requires_grad=True)
    bias = Tensor(rng.standard_normal(out_channels), requires_grad=True)
    output = conv2d(x, weight, bias, stride=stride, padding=padding, padding_mode=mode)
    expected = reference_conv2d(x.data, weight.data, bias.data, stride, padding, mode)
    _assert_close(output.data, expected)

    grad = rng.standard_normal(expected.shape)
    output.backward(grad)
    grad_x, grad_weight = reference_conv2d_grads(x.data, weight.data, grad, stride, padding, mode)
    _assert_close(x.grad, grad_x)
    _assert_close(weight.grad, grad_weight)
    _assert_close(bias.grad, grad.sum(axis=(0, 2, 3)))


@PROPERTY_SETTINGS
@given(
    kernel=kernels_,
    stride=strides,
    padding=st.integers(0, 3),
    in_channels=channels,
    out_channels=channels,
    height=sizes,
    width=sizes,
    seed=seeds,
)
def test_conv_transpose2d_matches_loop_reference(
    kernel, stride, padding, in_channels, out_channels, height, width, seed
):
    assume((min(height, width) - 1) * stride + kernel - 2 * padding >= 1)
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, in_channels, height, width)), requires_grad=True)
    weight = Tensor(rng.standard_normal((in_channels, out_channels, kernel, kernel)), requires_grad=True)
    bias = Tensor(rng.standard_normal(out_channels), requires_grad=True)
    output = conv_transpose2d(x, weight, bias, stride=stride, padding=padding)
    expected = reference_conv_transpose2d(x.data, weight.data, bias.data, stride, padding)
    _assert_close(output.data, expected)

    grad = rng.standard_normal(expected.shape)
    output.backward(grad)
    grad_x, grad_weight = reference_conv_transpose2d_grads(x.data, weight.data, grad, stride, padding)
    _assert_close(x.grad, grad_x)
    _assert_close(weight.grad, grad_weight)
    _assert_close(bias.grad, grad.sum(axis=(0, 2, 3)))
