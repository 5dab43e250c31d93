"""Tests for repro.nn.losses."""

import numpy as np
import pytest

from repro.nn import Tensor, l1_loss
from tests.nn.gradcheck import numerical_gradient


class TestL1Loss:
    def test_value(self):
        prediction = Tensor([1.0, 2.0, 3.0])
        target = np.array([1.0, 0.0, 6.0])
        assert l1_loss(prediction, target).item() == pytest.approx((0 + 2 + 3) / 3)

    def test_gradient(self, rng):
        prediction_array = rng.standard_normal((3, 4))
        target = rng.standard_normal((3, 4))
        prediction = Tensor(prediction_array, requires_grad=True)
        l1_loss(prediction, target).backward()
        numeric = numerical_gradient(
            lambda: float(l1_loss(Tensor(prediction_array), target).data), prediction_array
        )
        np.testing.assert_allclose(prediction.grad, numeric, atol=1e-6)

    def test_zero_at_perfect_prediction(self, rng):
        target = rng.standard_normal((4,))
        assert l1_loss(Tensor(target.copy()), target).item() == pytest.approx(0.0)
