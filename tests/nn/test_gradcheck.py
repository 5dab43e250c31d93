"""Property-based gradient checks: seeded random shapes, no new deps.

Each test draws its shapes and data from a seeded RNG and compares the
autograd gradients against central finite differences, so every CI
run re-verifies the adjoints on a different — but reproducible — family of
problems.  Covers the convolution ops, the L1 loss, the model subnets,
and the ragged length-bucketing path of ``forward_batch`` (the one the
batched training engine differentiates through).
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import check_input_gradient, numerical_gradient, weighted_sum
from repro.core.config import ModelConfig
from repro.core.model import WorstCaseNoiseNet
from repro.core.subnets import CurrentFusionNet, DistanceReductionNet, NoisePredictionNet
from repro.nn import Conv2d, ConvTranspose2d, Tensor, l1_loss

#: Seeds drawn per property; each seed yields a different random problem.
SEEDS = (0, 1, 2)

#: Loose-but-honest tolerances for second-order central differences.
RTOL, ATOL = 1e-4, 1e-6


def _random_shape(rng: np.random.Generator) -> tuple[int, int, int, int]:
    """A random NCHW shape small enough for exhaustive finite differences."""
    return (
        int(rng.integers(1, 3)),
        int(rng.integers(1, 4)),
        int(rng.integers(4, 8)),
        int(rng.integers(4, 8)),
    )


class TestConvGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("padding_mode", ["replicate", "zeros"])
    def test_conv2d_input_gradient_random_shapes(self, seed, padding_mode):
        rng = np.random.default_rng(seed)
        batch, channels, height, width = _random_shape(rng)
        layer = Conv2d(
            channels, int(rng.integers(1, 4)), kernel_size=3, padding=1,
            padding_mode=padding_mode, seed=seed,
        )
        check_input_gradient(
            layer, rng.standard_normal((batch, channels, height, width)),
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d_parameter_gradients_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        batch, channels, height, width = _random_shape(rng)
        layer = Conv2d(channels, 2, kernel_size=3, padding=1, seed=seed)
        inputs = rng.standard_normal((batch, channels, height, width))
        weights = rng.standard_normal(layer(Tensor(inputs)).shape)

        layer.zero_grad()
        objective = weighted_sum(layer(Tensor(inputs)), weights)
        objective.backward()
        for name, parameter in layer.named_parameters():
            numeric = numerical_gradient(
                lambda: float(weighted_sum(layer(Tensor(inputs)), weights).data),
                parameter.data,
            )
            np.testing.assert_allclose(
                parameter.grad, numeric, rtol=RTOL, atol=ATOL, err_msg=f"parameter {name}"
            )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_transpose2d_input_gradient_random_shapes(self, seed):
        rng = np.random.default_rng(seed)
        batch, channels, height, width = _random_shape(rng)
        layer = ConvTranspose2d(channels, int(rng.integers(1, 3)), seed=seed)
        check_input_gradient(
            layer, rng.standard_normal((batch, channels, height, width)),
            rtol=RTOL, atol=ATOL,
        )


class TestLossGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("loss", [l1_loss])
    def test_loss_prediction_gradient_random_shapes(self, seed, loss):
        # Random predictions/targets never tie exactly, so the L1 kinks
        # are avoided with probability 1 and central differences are valid.
        rng = np.random.default_rng(seed)
        shape = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(1, 4))))
        target = rng.standard_normal(shape)
        prediction = rng.standard_normal(shape)

        tensor = Tensor(prediction, requires_grad=True)
        loss(tensor, target).backward()
        numeric = numerical_gradient(
            lambda: float(loss(Tensor(prediction), target).data), prediction
        )
        np.testing.assert_allclose(tensor.grad, numeric, rtol=RTOL, atol=ATOL)


class TestSubnetGradients:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_distance_subnet_input_gradient(self, seed):
        rng = np.random.default_rng(seed)
        bumps = int(rng.integers(2, 5))
        height, width = int(rng.integers(4, 8)), int(rng.integers(4, 8))
        subnet = DistanceReductionNet(
            num_bumps=bumps, hidden_channels=2, depth=1, seed=seed
        )
        check_input_gradient(
            lambda t: subnet(t.reshape(1, bumps, height, width)),
            rng.random((bumps, height, width)) + 0.1,
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fusion_subnet_input_gradient(self, seed):
        rng = np.random.default_rng(seed)
        stamps = int(rng.integers(2, 5))
        height, width = int(rng.integers(4, 7)), int(rng.integers(4, 7))
        subnet = CurrentFusionNet(hidden_channels=2, seed=seed)
        check_input_gradient(
            lambda t: subnet(t.reshape(stamps, 1, height, width)),
            rng.random((stamps, height, width)),
            rtol=RTOL, atol=ATOL,
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_prediction_subnet_input_gradient(self, seed):
        rng = np.random.default_rng(seed)
        height, width = int(rng.integers(4, 8)), int(rng.integers(4, 8))
        subnet = NoisePredictionNet(hidden_channels=2, depth=1, seed=seed)
        check_input_gradient(
            lambda t: subnet(t.reshape(1, 4, height, width)),
            rng.standard_normal((4, height, width)),
            rtol=RTOL, atol=ATOL,
        )


class TestForwardBatchGradients:
    """The batched training path, including ragged length-bucketing."""

    @staticmethod
    def _tiny_model(seed: int) -> WorstCaseNoiseNet:
        config = ModelConfig(
            distance_kernels=2, fusion_kernels=2, prediction_kernels=2,
            distance_depth=1, prediction_depth=1, seed=seed,
        )
        return WorstCaseNoiseNet(num_bumps=2, config=config)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense_batch_input_gradient(self, seed):
        rng = np.random.default_rng(seed)
        model = self._tiny_model(seed)
        batch, stamps = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        height, width = int(rng.integers(4, 7)), int(rng.integers(4, 7))
        distance = rng.random((2, height, width)) + 0.1
        currents = rng.random((batch, stamps, height, width))
        weights = rng.standard_normal((batch, height, width))

        def objective(array: np.ndarray) -> float:
            return float(weighted_sum(model.forward_batch(Tensor(array), distance), weights).data)

        tensor = Tensor(currents.copy(), requires_grad=True)
        loss = weighted_sum(model.forward_batch(tensor, distance), weights)
        loss.backward()
        numeric = numerical_gradient(lambda: objective(currents), currents)
        np.testing.assert_allclose(tensor.grad, numeric, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ragged_batch_input_gradient(self, seed):
        # Distinct stamp counts force the length-bucketing gather; the
        # gradient must flow back into each ragged member individually.
        rng = np.random.default_rng(seed)
        model = self._tiny_model(seed)
        height, width = int(rng.integers(4, 7)), int(rng.integers(4, 7))
        distance = rng.random((2, height, width)) + 0.1
        stamp_counts = [2, 3, 5]
        ragged = [rng.random((count, height, width)) for count in stamp_counts]
        weights = rng.standard_normal((len(ragged), height, width))
        probe = int(rng.integers(0, len(ragged)))

        tensors = [Tensor(member.copy(), requires_grad=True) for member in ragged]
        loss = weighted_sum(model.forward_batch(tensors, distance), weights)
        loss.backward()

        def objective() -> float:
            members = [Tensor(member) for member in ragged]
            return float(weighted_sum(model.forward_batch(members, distance), weights).data)

        numeric = numerical_gradient(objective, ragged[probe])
        assert tensors[probe].grad is not None
        np.testing.assert_allclose(tensors[probe].grad, numeric, rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ragged_batch_parameter_gradients_match_dense(self, seed):
        # A ragged batch whose members happen to share a stamp count must
        # produce the same parameter gradients as the dense path.
        rng = np.random.default_rng(seed)
        height, width = 5, 4
        distance = rng.random((2, height, width)) + 0.1
        currents = rng.random((3, 4, height, width))
        weights = rng.standard_normal((3, height, width))

        grads = []
        for batch in (currents, [currents[i] for i in range(len(currents))]):
            model = self._tiny_model(seed)
            model.zero_grad()
            loss = weighted_sum(model.forward_batch(batch, distance), weights)
            loss.backward()
            grads.append([p.grad.copy() for p in model.parameters()])
        for dense, ragged in zip(*grads):
            np.testing.assert_allclose(ragged, dense, rtol=1e-9, atol=1e-12)
