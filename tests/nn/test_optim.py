"""Tests for repro.nn.optim."""

import numpy as np
import pytest

from repro.nn import Adam, Conv2d, Linear, ReLU, Sequential, Tensor, l1_loss
from repro.nn.modules import Parameter


def _mse(prediction, target):
    """Mean squared error, composed from the tensor ops."""
    difference = prediction - target
    return (difference * difference).mean()


def _quadratic_problem():
    """A single parameter whose optimum is at 3.0."""
    parameter = Parameter(np.array([0.0]))

    def loss_fn():
        return _mse(parameter, np.array([3.0]))

    return parameter, loss_fn


class TestAdam:
    def test_converges_on_quadratic(self):
        parameter, loss_fn = _quadratic_problem()
        optimizer = Adam([parameter], learning_rate=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
        assert parameter.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_trains_small_conv_net(self, rng):
        # Fit y = 2x with a two-layer conv net; the loss must drop clearly.
        network = Sequential(
            Conv2d(1, 4, kernel_size=3, seed=0), ReLU(), Conv2d(4, 1, kernel_size=3, seed=1)
        )
        optimizer = Adam(network.parameters(), learning_rate=1e-2)
        inputs = rng.random((8, 1, 6, 6))
        targets = 2.0 * inputs
        first_loss = None
        for _ in range(60):
            optimizer.zero_grad()
            loss = l1_loss(network(Tensor(inputs)), targets)
            if first_loss is None:
                first_loss = loss.item()
            loss.backward()
            optimizer.step()
        assert loss.item() < 0.4 * first_loss

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))

    def test_rejects_empty_parameter_list(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_linear_regression_recovers_weights(self, rng):
        true_weight = np.array([[2.0, -1.0]])
        layer = Linear(2, 1, seed=0)
        optimizer = Adam(layer.parameters(), learning_rate=5e-2)
        inputs = rng.standard_normal((64, 2))
        targets = inputs @ true_weight.T
        for _ in range(300):
            optimizer.zero_grad()
            loss = _mse(layer(Tensor(inputs)), targets)
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_weight, atol=0.05)


def _make_params(seed: int) -> list[Parameter]:
    rng = np.random.default_rng(seed)
    shapes = [(4, 3, 3, 3), (4,), (8, 4, 3, 3), (8,), (1, 8)]
    return [Parameter(rng.standard_normal(shape)) for shape in shapes]


def _reference_adam_step(state: dict, parameters, learning_rate, betas=(0.9, 0.999),
                         epsilon=1e-8) -> None:
    """One per-parameter Adam step, the textbook formulation."""
    state.setdefault("m", [np.zeros_like(p.data) for p in parameters])
    state.setdefault("v", [np.zeros_like(p.data) for p in parameters])
    state["t"] = state.get("t", 0) + 1
    beta1, beta2 = betas
    bias_correction1 = 1.0 - beta1 ** state["t"]
    bias_correction2 = 1.0 - beta2 ** state["t"]
    for parameter, first, second in zip(parameters, state["m"], state["v"]):
        gradient = parameter.grad
        first *= beta1
        first += (1.0 - beta1) * gradient
        second *= beta2
        second += (1.0 - beta2) * gradient * gradient
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        parameter.data = parameter.data - learning_rate * corrected_first / (
            np.sqrt(corrected_second) + epsilon
        )


class TestFusedSteps:
    """The fused flat-buffer step must be bit-exact with the reference loop."""

    def test_fused_adam_bit_exact(self):
        fused_params = _make_params(seed=1)
        reference_params = _make_params(seed=1)
        optimizer = Adam(fused_params, learning_rate=1e-3)
        state: dict = {}
        grad_rng = np.random.default_rng(2)
        for _ in range(20):
            for fused, reference in zip(fused_params, reference_params):
                gradient = grad_rng.standard_normal(fused.data.shape)
                fused.grad = gradient.copy()
                reference.grad = gradient.copy()
            optimizer.step()
            _reference_adam_step(state, reference_params, learning_rate=1e-3)
        for fused, reference in zip(fused_params, reference_params):
            np.testing.assert_array_equal(fused.data, reference.data)

    def test_missing_grad_raises_and_leaves_state_untouched(self):
        params = _make_params(seed=5)
        optimizer = Adam(params, learning_rate=1e-2)
        grad_rng = np.random.default_rng(6)
        for parameter in params:
            parameter.grad = grad_rng.standard_normal(parameter.data.shape)
        optimizer.step()
        before = [parameter.data.copy() for parameter in params]
        step_count = optimizer._step_count
        moments = optimizer._first_moment.copy(), optimizer._second_moment.copy()

        params[2].grad = None
        with pytest.raises(ValueError, match=r"parameter 2 \(shape \(8, 4, 3, 3\)\)"):
            optimizer.step()
        for parameter, data in zip(params, before):
            np.testing.assert_array_equal(parameter.data, data)
        assert optimizer._step_count == step_count
        np.testing.assert_array_equal(optimizer._first_moment, moments[0])
        np.testing.assert_array_equal(optimizer._second_moment, moments[1])
