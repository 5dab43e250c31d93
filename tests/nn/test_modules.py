"""Tests for repro.nn.modules (module system, layers, state dicts)."""

import numpy as np
import pytest

from repro.nn import (
    Conv2d,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tensor,
)


class _ToyModel(Module):
    def __init__(self):
        super().__init__()
        self.conv = Conv2d(1, 2, kernel_size=3, seed=0)
        self.head = Sequential(ReLU(), Conv2d(2, 1, kernel_size=3, seed=1))

    def forward(self, x):
        return self.head(self.conv(x))


class TestModuleRegistration:
    def test_parameters_collected_recursively(self):
        model = _ToyModel()
        names = [name for name, _ in model.named_parameters()]
        assert "conv.weight" in names
        assert "head.layer1.weight" in names
        assert len(model.parameters()) == 4  # two convs, each weight + bias

    def test_num_parameters_counts_scalars(self):
        layer = Conv2d(1, 2, kernel_size=3, seed=0)
        assert layer.num_parameters() == 2 * 1 * 9 + 2

    def test_zero_grad_clears(self):
        model = _ToyModel()
        output = model(Tensor(np.random.default_rng(0).random((1, 1, 6, 6))))
        output.mean().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestStateDict:
    def test_roundtrip(self):
        model_a = _ToyModel()
        model_b = _ToyModel()
        # Perturb B so the load actually changes something.
        for parameter in model_b.parameters():
            parameter.data = parameter.data + 1.0
        model_b.load_state_dict(model_a.state_dict())
        for (name_a, param_a), (name_b, param_b) in zip(
            model_a.named_parameters(), model_b.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_allclose(param_a.data, param_b.data)

    def test_state_dict_is_a_copy(self):
        model = _ToyModel()
        state = model.state_dict()
        state["conv.weight"][...] = 99.0
        assert not np.allclose(model.conv.weight.data, 99.0)

    def test_missing_key_rejected(self):
        model = _ToyModel()
        state = model.state_dict()
        state.pop("conv.weight")
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

    def test_unexpected_key_rejected(self):
        model = _ToyModel()
        state = model.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(ValueError, match="unexpected"):
            model.load_state_dict(state)

    def test_shape_mismatch_rejected(self):
        model = _ToyModel()
        state = model.state_dict()
        state["conv.weight"] = np.zeros((1, 1, 3, 3))
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)


class TestLayers:
    def test_linear_shapes_and_bias(self, rng):
        layer = Linear(4, 3, seed=0)
        output = layer(Tensor(rng.standard_normal((5, 4))))
        assert output.shape == (5, 3)

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, seed=0)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_relu_module(self):
        assert ReLU()(Tensor([-1.0, 1.0])).data.tolist() == [0.0, 1.0]

    def test_sequential_iteration_and_len(self):
        seq = Sequential(ReLU(), ReLU())
        assert len(seq) == 2
        assert len(list(iter(seq))) == 2

    def test_conv_same_seed_same_weights(self):
        a = Conv2d(2, 3, seed=7)
        b = Conv2d(2, 3, seed=7)
        np.testing.assert_allclose(a.weight.data, b.weight.data)

    def test_conv_different_seed_different_weights(self):
        a = Conv2d(2, 3, seed=1)
        b = Conv2d(2, 3, seed=2)
        assert not np.allclose(a.weight.data, b.weight.data)

    def test_conv_rejects_bad_padding_mode(self):
        with pytest.raises(ValueError):
            Conv2d(1, 1, padding_mode="reflect")

    def test_parameter_is_tensor_with_grad(self):
        parameter = Parameter(np.zeros(3))
        assert parameter.requires_grad


class TestFreeze:
    def test_freeze_disables_gradients_and_training(self):
        model = _ToyModel()
        frozen = model.freeze()
        assert frozen is model
        assert all(not p.requires_grad for p in model.parameters())

    def test_frozen_forward_records_no_graph(self, rng):
        model = _ToyModel().freeze()
        output = model(Tensor(rng.random((1, 1, 6, 6))))
        assert not output.requires_grad
