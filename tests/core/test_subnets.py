"""Tests for repro.core.subnets."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ModelConfig
from repro.core import subnets
from repro.core.model import WorstCaseNoiseNet
from repro.core.subnets import (
    CurrentFusionNet,
    DistanceReductionNet,
    EncoderDecoder,
    NoisePredictionNet,
)
from repro.nn import Tensor, kernels, no_grad

PROPERTY_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


class TestEncoderDecoder:
    @pytest.mark.parametrize("height,width", [(8, 8), (9, 7), (13, 11), (16, 12)])
    def test_output_matches_input_size(self, height, width, rng):
        # Odd sizes exercise the crop-after-upsample path.
        network = EncoderDecoder(in_channels=2, out_channels=1, hidden_channels=4, depth=2, seed=0)
        output = network(Tensor(rng.random((1, 2, height, width))))
        assert output.shape == (1, 1, height, width)

    def test_depth_one(self, rng):
        network = EncoderDecoder(3, 2, 4, depth=1, seed=0)
        output = network(Tensor(rng.random((2, 3, 10, 10))))
        assert output.shape == (2, 2, 10, 10)

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            EncoderDecoder(1, 1, 4, depth=0)

    def test_gradients_reach_all_parameters(self, rng):
        network = EncoderDecoder(1, 1, 3, depth=2, seed=0)
        output = network(Tensor(rng.random((1, 1, 9, 9))))
        output.mean().backward()
        for name, parameter in network.named_parameters():
            assert parameter.grad is not None, f"no gradient for {name}"
            assert np.any(parameter.grad != 0) or parameter.grad.size == 0


class TestDistanceReductionNet:
    def test_reduces_bump_channels_to_one(self, rng):
        network = DistanceReductionNet(num_bumps=9, hidden_channels=4, seed=0)
        output = network(Tensor(rng.random((1, 9, 8, 8))))
        assert output.shape == (1, 1, 8, 8)

    def test_rejects_wrong_channel_count(self, rng):
        network = DistanceReductionNet(num_bumps=4, hidden_channels=4, seed=0)
        with pytest.raises(ValueError):
            network(Tensor(rng.random((1, 5, 8, 8))))

    def test_rejects_zero_bumps(self):
        with pytest.raises(ValueError):
            DistanceReductionNet(num_bumps=0)


class TestCurrentFusionNet:
    def test_handles_variable_length_input(self, rng):
        network = CurrentFusionNet(hidden_channels=4, seed=0)
        short = network(Tensor(rng.random((5, 1, 8, 8))))
        long = network(Tensor(rng.random((17, 1, 8, 8))))
        assert short.shape == (5, 1, 8, 8)
        assert long.shape == (17, 1, 8, 8)

    def test_odd_spatial_size(self, rng):
        network = CurrentFusionNet(hidden_channels=4, seed=0)
        output = network(Tensor(rng.random((3, 1, 9, 11))))
        assert output.shape == (3, 1, 9, 11)

    def test_rejects_multichannel_input(self, rng):
        network = CurrentFusionNet(seed=0)
        with pytest.raises(ValueError):
            network(Tensor(rng.random((3, 2, 8, 8))))

    def test_rejects_an_empty_stamp_stack(self):
        network = CurrentFusionNet(seed=0)
        with pytest.raises(ValueError), no_grad():
            network(Tensor(np.zeros((0, 1, 8, 8))))


def _layer_graph(network, maps):
    """The oracle: the fusion layers recorded one module at a time over the whole batch."""
    encoded = network.encoder(maps)
    upsampled = network.decoder_up(encoded, output_size=maps.shape[2:]).relu()
    return network.decoder_out(upsampled)


class TestFusionBlocking:
    """The block Function against the recorded layer graph (maps bit for bit)."""

    @PROPERTY_SETTINGS
    @given(
        dtype=st.sampled_from(["float64", "float32"]),
        edge=st.sampled_from([None, -1, 0, 1]),
        height=st.integers(2, 9),
        width=st.integers(2, 9),
        seed=st.integers(0, 2**16),
    )
    def test_blocked_equals_unblocked(self, dtype, edge, height, width, seed):
        network = CurrentFusionNet(hidden_channels=3, seed=seed).astype(dtype)
        block = network.block_size(height, width, dtype)
        count = 1 if edge is None else block + edge  # 1, block - 1, block, block + 1
        maps = np.random.default_rng(seed).standard_normal((count, 1, height, width)).astype(dtype)
        with no_grad():
            blocked = network(Tensor(maps)).data
        assert blocked.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(blocked, _layer_graph(network, Tensor(maps)).data)

    @PROPERTY_SETTINGS
    @given(
        dtype=st.sampled_from(["float64", "float32"]),
        lengths=st.lists(st.integers(1, 40), min_size=2, max_size=5),
        seed=st.integers(0, 2**16),
    )
    def test_ragged_batch_blocked_equals_unblocked(self, dtype, lengths, seed):
        # Ragged vectors through the whole model, with a budget of 7 maps a
        # block so that vectors straddle block boundaries.
        model = WorstCaseNoiseNet(
            num_bumps=3,
            config=ModelConfig(
                distance_kernels=2, fusion_kernels=3, prediction_kernels=2, seed=seed
            ),
        ).astype(dtype)
        rng = np.random.default_rng(seed)
        ragged = [rng.standard_normal((length, 6, 7)).astype(dtype) for length in lengths]
        distance = rng.standard_normal((3, 6, 7)).astype(dtype)
        per_map = 3 * (6 + 2) * (7 + 2) * np.dtype(dtype).itemsize  # hidden maps with halo
        with mock.patch.object(subnets, "FUSION_BLOCK_BYTES", 7 * per_map), no_grad():
            assert model.fusion_subnet.block_size(6, 7, dtype) == 7
            blocked = model.forward_batch(ragged, distance).data
        unblocked = model.forward_batch(ragged, distance).data
        np.testing.assert_array_equal(blocked, unblocked)

    @PROPERTY_SETTINGS
    @given(
        count=st.sampled_from([1, 4, 5, 6, 11]),
        requires_grad=st.booleans(),
        height=st.integers(2, 9),
        width=st.integers(2, 9),
        seed=st.integers(0, 2**16),
    )
    def test_adjoint_matches_layer_graph(self, count, requires_grad, height, width, seed):
        # A budget of 5 maps a block; 1, block - 1, block, block + 1 and
        # 2 * block + 1 maps.  The recorded maps equal the no_grad block loop
        # and the unblocked layer graph bit for bit; the gradients only
        # reassociate the batch sums.
        network = CurrentFusionNet(hidden_channels=3, seed=seed)
        per_map = 3 * (height + 2) * (width + 2) * 8  # hidden maps with halo
        rng = np.random.default_rng(seed)
        maps = rng.standard_normal((count, 1, height, width))
        upstream = rng.standard_normal((count, 1, height, width))

        def recorded(forward):
            network.zero_grad()
            inputs = Tensor(maps, requires_grad=requires_grad)
            output = forward(inputs)
            output.backward(upstream)
            grads = [inputs.grad] + [parameter.grad for parameter in network.parameters()]
            return output.data, grads

        with mock.patch.object(subnets, "FUSION_BLOCK_BYTES", 5 * per_map):
            assert network.block_size(height, width, np.float64) == 5
            blocked, blocked_grads = recorded(network)
            with no_grad():
                np.testing.assert_array_equal(blocked, network(Tensor(maps)).data)
        oracle, oracle_grads = recorded(lambda inputs: _layer_graph(network, inputs))
        np.testing.assert_array_equal(blocked, oracle)
        assert len(blocked_grads) == 9
        assert (blocked_grads[0] is not None) == requires_grad
        for got, want in zip(blocked_grads, oracle_grads):
            if want is None:
                assert got is None
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_recording_keeps_only_halo_workspaces(self, rng):
        # 12 maps in blocks of 5: the Function saves each block's padded
        # input and its three post-ReLU activations with their halos — no
        # unfolded columns, no ReLU masks — and one backward pass frees them.
        network = CurrentFusionNet(hidden_channels=3, seed=0)
        height, width, channels = 9, 7, 3
        per_map = channels * (height + 2) * (width + 2) * 8
        maps = rng.standard_normal((12, 1, height, width))
        with mock.patch.object(subnets, "FUSION_BLOCK_BYTES", 5 * per_map):
            output = network(Tensor(maps))
        saved = [buffer for _, *buffers in output._ctx.saved for buffer in buffers]
        encoded = (-(-height // 2) + 2) * (-(-width // 2) + 2)  # stride-2 maps with halo
        halo = (height + 2) * (width + 2)
        per_map_saved = 8 * (halo + 2 * channels * encoded + channels * halo)
        assert sum(buffer.nbytes for buffer in saved) == 12 * per_map_saved
        upstream = rng.standard_normal(output.shape)
        output.backward(upstream)
        assert output._ctx.saved == ()
        with pytest.raises(RuntimeError):
            output.backward(upstream)

    def test_first_layer_still_skips_its_input_gradient(self, rng):
        # A non-grad input needs no input gradient, so the stride-2 input
        # convolution folds none (no col2im).
        network = CurrentFusionNet(seed=0)
        maps = rng.standard_normal((23, 1, 9, 9))
        per_map = network.decoder_out.in_channels * 11 * 11 * 8
        with mock.patch.object(subnets, "FUSION_BLOCK_BYTES", 5 * per_map):
            assert network.block_size(9, 9, np.float64) == 5
            counts = []
            for requires_grad in (False, True):
                output = network(Tensor(maps, requires_grad=requires_grad))
                with mock.patch.object(kernels, "col2im", wraps=kernels.col2im) as col2im:
                    output.mean().backward()
                counts.append(col2im.call_count)
        # A grad-requiring input folds once per block, so the counter sees them.
        assert counts == [0, 5]

    def test_float32_blocks_hold_twice_the_maps(self):
        network = CurrentFusionNet(seed=0)
        block64 = network.block_size(25, 25, np.float64)
        assert network.block_size(25, 25, np.float32) in (2 * block64, 2 * block64 + 1)
        # A map larger than the whole budget still runs, one per block.
        assert network.block_size(4096, 4096, np.float64) == 1


class TestNoisePredictionNet:
    def test_output_shape(self, rng):
        network = NoisePredictionNet(hidden_channels=8, seed=0)
        output = network(Tensor(rng.random((1, 4, 10, 10))))
        assert output.shape == (1, 1, 10, 10)

    def test_rejects_wrong_channel_count(self, rng):
        network = NoisePredictionNet(seed=0)
        with pytest.raises(ValueError):
            network(Tensor(rng.random((1, 3, 8, 8))))
