"""Tests for repro.core.model (the three-subnet composite)."""

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import WorstCaseNoiseNet
from repro.nn import no_grad


@pytest.fixture(scope="module")
def model():
    return WorstCaseNoiseNet(num_bumps=9, config=ModelConfig(seed=0))


class TestWorstCaseNoiseNet:
    def test_forward_shape(self, model, rng):
        currents = rng.random((12, 8, 8))
        distance = rng.random((9, 8, 8))
        prediction = model(currents, distance)
        assert prediction.shape == (8, 8)

    def test_one_shot_full_map(self, model, rng):
        # The whole map comes out of a single forward call (no per-tile loop).
        prediction = model(rng.random((6, 10, 10)), rng.random((9, 10, 10)))
        assert prediction.shape == (10, 10)

    def test_handles_variable_trace_length(self, model, rng):
        distance = rng.random((9, 8, 8))
        short = model(rng.random((4, 8, 8)), distance)
        long = model(rng.random((25, 8, 8)), distance)
        assert short.shape == long.shape == (8, 8)

    def test_kernel_counts_follow_config(self):
        config = ModelConfig(distance_kernels=8, fusion_kernels=8, prediction_kernels=16)
        model = WorstCaseNoiseNet(num_bumps=4, config=config)
        assert model.distance_subnet.network.input_conv.out_channels == 8
        assert model.prediction_subnet.network.input_conv.out_channels == 16

    def test_architecture_summary(self, model):
        subnets = (model.distance_subnet, model.fusion_subnet, model.prediction_subnet)
        assert model.num_parameters() == sum(subnet.num_parameters() for subnet in subnets)
        # The paper emphasises a compact model: well under a million weights.
        assert model.num_parameters() < 100_000

    def test_deterministic_given_seed(self, rng):
        config = ModelConfig(seed=3)
        inputs = rng.random((5, 8, 8)), rng.random((4, 8, 8))
        a = WorstCaseNoiseNet(num_bumps=4, config=config)(*inputs)
        b = WorstCaseNoiseNet(num_bumps=4, config=config)(*inputs)
        np.testing.assert_allclose(a.data, b.data)

    def test_gradients_flow_to_all_subnets(self, model, rng):
        model.zero_grad()
        prediction = model(rng.random((5, 8, 8)), rng.random((9, 8, 8)))
        prediction.mean().backward()
        for subnet in (model.distance_subnet, model.fusion_subnet, model.prediction_subnet):
            grads = [p.grad for p in subnet.parameters()]
            assert all(g is not None for g in grads)
            assert any(np.any(g != 0) for g in grads)

    def test_fusion_statistics_order(self, model, rng):
        with no_grad():
            fused = model.fuse_currents(rng.random((10, 8, 8)))
        i_max, i_mean, i_msd = fused.numpy()[0]
        # I_max >= I_mean = (max + min) / 2 pointwise by construction.
        assert np.all(i_max >= i_mean - 1e-12)

    def test_input_shape_validation(self, model, rng):
        with pytest.raises(ValueError):
            model.reduce_distance(rng.random((9, 8)))
        with pytest.raises(ValueError):
            model.fuse_currents(rng.random((8, 8)))
