"""Tests for repro.nn.conv (im2col, Conv2d, ConvTranspose2d)."""

import numpy as np
import pytest

from repro.nn import Tensor, conv2d, conv_transpose2d, conv_output_size, conv_transpose_output_size
from repro.nn.conv import col2im, im2col, pad_input, unpad_gradient
from repro.nn.modules import Conv2d, ConvTranspose2d
from tests.nn.gradcheck import check_input_gradient, check_parameter_gradient


class TestPadding:
    def test_zero_padding_values(self):
        x = np.ones((1, 1, 2, 2))
        padded = pad_input(x, 1, "zeros")
        assert padded.shape == (1, 1, 4, 4)
        assert padded[0, 0, 0, 0] == 0.0
        assert padded[0, 0, 1, 1] == 1.0

    def test_replicate_padding_values(self):
        x = np.arange(4, dtype=float).reshape(1, 1, 2, 2)
        padded = pad_input(x, 1, "replicate")
        assert padded[0, 0, 0, 0] == x[0, 0, 0, 0]
        assert padded[0, 0, -1, -1] == x[0, 0, -1, -1]

    def test_zero_padding_is_a_no_op_for_zero_pad(self):
        x = np.ones((1, 1, 3, 3))
        assert pad_input(x, 0, "zeros") is x

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            pad_input(np.ones((1, 1, 2, 2)), 1, "reflect")

    def test_unpad_is_adjoint_of_pad(self, rng):
        # <pad(x), y> == <x, unpad(y)> for both padding modes.
        x = rng.standard_normal((2, 3, 4, 5))
        for mode in ("zeros", "replicate"):
            y = rng.standard_normal((2, 3, 6, 7))
            left = np.sum(pad_input(x, 1, mode) * y)
            right = np.sum(x * unpad_gradient(y, 1, mode))
            assert left == pytest.approx(right, rel=1e-12)


class TestIm2Col:
    def test_roundtrip_adjoint(self, rng):
        # <im2col(x), c> == <x, col2im(c)>.
        x = rng.standard_normal((2, 3, 6, 6))
        cols = im2col(x, kernel=3, stride=1)
        c = rng.standard_normal(cols.shape)
        left = np.sum(cols * c)
        right = np.sum(x * col2im(c, x.shape, kernel=3, stride=1))
        assert left == pytest.approx(right, rel=1e-12)

    def test_shapes(self, rng):
        x = rng.standard_normal((2, 3, 8, 10))
        cols = im2col(x, kernel=3, stride=2)
        out_h = (8 - 3) // 2 + 1
        out_w = (10 - 3) // 2 + 1
        assert cols.shape == (2, 3 * 9, out_h * out_w)

    def test_identity_kernel_convolution(self, rng):
        # A 1x1 convolution with identity weights reproduces the input.
        x = rng.standard_normal((1, 2, 4, 4))
        weight = np.zeros((2, 2, 1, 1))
        weight[0, 0, 0, 0] = 1.0
        weight[1, 1, 0, 0] = 1.0
        output = conv2d(Tensor(x), Tensor(weight), stride=1, padding=0)
        np.testing.assert_allclose(output.data, x)


class TestOutputSizes:
    def test_conv_output_size(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(9, 3, 2, 1) == 5

    def test_conv_transpose_output_size(self):
        assert conv_transpose_output_size(5, 4, 2, 1) == 10
        # Transposed conv inverts the downsampling size relation for even sizes.
        assert conv_transpose_output_size(conv_output_size(8, 3, 2, 1), 4, 2, 1) == 8


class TestConv2dGradients:
    @pytest.mark.parametrize("stride,padding,mode", [
        (1, 1, "zeros"),
        (1, 1, "replicate"),
        (2, 1, "replicate"),
        (1, 0, "zeros"),
        (2, 2, "zeros"),
    ])
    def test_input_gradient(self, stride, padding, mode, rng):
        x = rng.standard_normal((2, 3, 6, 7))
        layer = Conv2d(3, 4, kernel_size=3, stride=stride, padding=padding, padding_mode=mode, seed=0)
        check_input_gradient(lambda t: layer(t), x)

    def test_parameter_gradients(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)))
        layer = Conv2d(2, 3, kernel_size=3, stride=2, padding=1, padding_mode="replicate", seed=1)
        check_parameter_gradient(layer, lambda: layer(x))

    @pytest.mark.parametrize("mode", ["zeros", "replicate"])
    def test_input_gradient_narrow_output(self, mode, rng):
        # C_out < C_in at stride 1: the forward folds its output side and the
        # input gradient unfolds the output gradient.
        x = rng.standard_normal((2, 4, 5, 6))
        layer = Conv2d(4, 2, kernel_size=3, stride=1, padding=1, padding_mode=mode, seed=0)
        check_input_gradient(lambda t: layer(t), x)

    @pytest.mark.parametrize("mode", ["zeros", "replicate"])
    def test_parameter_gradients_narrow_output(self, mode, rng):
        x = Tensor(rng.standard_normal((2, 3, 5, 5)))
        layer = Conv2d(3, 1, kernel_size=3, stride=1, padding=1, padding_mode=mode, seed=1)
        check_parameter_gradient(layer, lambda: layer(x))

    def test_matches_direct_convolution(self, rng):
        # Compare against a brute-force convolution for a tiny case.
        x = rng.standard_normal((1, 1, 4, 4))
        weight = rng.standard_normal((1, 1, 3, 3))
        output = conv2d(Tensor(x), Tensor(weight), stride=1, padding=0).data
        expected = np.zeros((1, 1, 2, 2))
        for i in range(2):
            for j in range(2):
                expected[0, 0, i, j] = np.sum(x[0, 0, i:i + 3, j:j + 3] * weight[0, 0])
        np.testing.assert_allclose(output, expected, rtol=1e-12)

    def test_bias_added_per_channel(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        weight = np.zeros((2, 1, 1, 1))
        bias = np.array([1.5, -2.0])
        output = conv2d(Tensor(x), Tensor(weight), Tensor(bias), stride=1, padding=0).data
        np.testing.assert_allclose(output[0, 0], 1.5)
        np.testing.assert_allclose(output[0, 1], -2.0)

    def test_wrong_channel_count_rejected(self, rng):
        layer = Conv2d(3, 4, seed=0)
        with pytest.raises(ValueError):
            layer(Tensor(rng.standard_normal((1, 2, 5, 5))))


class TestConvTranspose2dGradients:
    @pytest.mark.parametrize("stride,padding,kernel", [(2, 1, 4), (1, 1, 3), (2, 0, 2)])
    def test_input_gradient(self, stride, padding, kernel, rng):
        x = rng.standard_normal((2, 3, 4, 5))
        layer = ConvTranspose2d(3, 2, kernel_size=kernel, stride=stride, padding=padding, seed=0)
        check_input_gradient(lambda t: layer(t), x)

    def test_parameter_gradients(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3)))
        layer = ConvTranspose2d(2, 2, kernel_size=4, stride=2, padding=1, seed=1)
        check_parameter_gradient(layer, lambda: layer(x))

    def test_upsamples_by_stride(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 5, 7)))
        layer = ConvTranspose2d(2, 3, kernel_size=4, stride=2, padding=1, seed=2)
        assert layer(x).shape == (1, 3, 10, 14)

    def test_adjoint_of_convolution(self, rng):
        # conv_transpose with weight W is the adjoint of conv with weight W
        # (swapped in/out channels): <conv(x), y> == <x, conv_T(y)>.
        x = rng.standard_normal((1, 2, 8, 8))
        y = rng.standard_normal((1, 3, 4, 4))
        weight = rng.standard_normal((3, 2, 4, 4))  # conv: 2 -> 3 channels
        conv_out = conv2d(Tensor(x), Tensor(weight), stride=2, padding=1).data
        # conv_transpose uses the (in, out, k, k) layout, which for the adjoint
        # of the convolution above is exactly the same weight array.
        transpose_out = conv_transpose2d(Tensor(y), Tensor(weight), stride=2, padding=1).data
        assert np.sum(conv_out * y) == pytest.approx(np.sum(x * transpose_out), rel=1e-9)

    def test_wrong_channel_count_rejected(self, rng):
        layer = ConvTranspose2d(3, 4, seed=0)
        with pytest.raises(ValueError):
            layer(Tensor(rng.standard_normal((1, 2, 5, 5))))
