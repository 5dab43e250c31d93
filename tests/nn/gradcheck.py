"""Numerical gradient checking helper shared by the nn tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn import Tensor


def weighted_sum(output: Tensor, weights) -> Tensor:
    """The scalar ``sum(output * weights)`` as a differentiable tensor.

    Written as a mean scaled back by the element count: the adjoint that
    reaches ``output`` is exactly ``weights`` (the mean's ``1/n`` and the
    scale's ``n`` cancel to 1.0 in floating point).
    """
    product = output * weights
    return product.mean() * float(product.size)


def numerical_gradient(scalar_fn: Callable[[], float], array: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of ``scalar_fn`` with respect to ``array``.

    ``scalar_fn`` must read ``array`` by reference (the helper perturbs it in
    place and restores it).
    """
    gradient = np.zeros_like(array)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        plus = scalar_fn()
        array[index] = original - eps
        minus = scalar_fn()
        array[index] = original
        gradient[index] = (plus - minus) / (2.0 * eps)
        iterator.iternext()
    return gradient


def check_input_gradient(
    build_output: Callable[[Tensor], Tensor],
    input_array: np.ndarray,
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> None:
    """Assert the analytic input gradient matches central differences.

    ``build_output`` maps an input tensor to an output tensor of any shape;
    the scalar objective is ``sum(output * weights)`` with fixed random
    weights so every output element contributes.
    """
    rng = np.random.default_rng(0)
    probe_input = Tensor(input_array.copy(), requires_grad=True)
    probe_output = build_output(probe_input)
    weights = rng.standard_normal(probe_output.shape)

    tensor = Tensor(input_array, requires_grad=True)
    objective = weighted_sum(build_output(tensor), weights)
    objective.backward()
    analytic = tensor.grad

    def scalar_fn() -> float:
        value = weighted_sum(build_output(Tensor(input_array)), weights)
        return float(value.data)

    numeric = numerical_gradient(scalar_fn, input_array)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


def check_parameter_gradient(
    module,
    build_output: Callable[[], Tensor],
    rtol: float = 1e-4,
    atol: float = 1e-6,
) -> None:
    """Assert analytic gradients of every module parameter match central differences."""
    rng = np.random.default_rng(1)
    weights = rng.standard_normal(build_output().shape)

    module.zero_grad()
    objective = weighted_sum(build_output(), weights)
    objective.backward()

    for name, parameter in module.named_parameters():
        def scalar_fn() -> float:
            return float(weighted_sum(build_output(), weights).data)

        numeric = numerical_gradient(scalar_fn, parameter.data)
        np.testing.assert_allclose(
            parameter.grad, numeric, rtol=rtol, atol=atol, err_msg=f"parameter {name}"
        )
