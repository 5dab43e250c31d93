"""Tests for reverse-mode backpropagation (repro.nn.tensor.Tensor.backward).

A derandomized property suite builds random small graphs — shared
subexpressions, leaves feeding several ops, diamond joins through ``cat``,
``broadcast_to`` and ``__getitem__`` — and checks every leaf gradient
against central differences.  The remaining cases pin graphs whose pieces
are built at different times, the ``needs_input_grad`` shortcut and the
one backward pass a convolution's saved buffers allow.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Conv2d, Linear, ReLU, Sequential, Tensor, cat
from tests.nn.gradcheck import check_parameter_gradient, numerical_gradient, weighted_sum

#: Every graph node has this shape, so any op can take any node as input.
SHAPE = (3, 3)

#: name -> (arity, op); each op maps ``SHAPE`` tensors to a ``SHAPE`` tensor.
OPS = {
    "add": (2, lambda a, b: a + b),
    "sub": (2, lambda a, b: a - b),
    "mul": (2, lambda a, b: a * b),
    "matmul": (2, lambda a, b: a @ b),
    "cat_rows": (2, lambda a, b: cat([a, b], axis=0)[1:4]),
    "cat_cols": (2, lambda a, b: cat([a, b], axis=1)[:, 2:5]),
    "neg": (1, lambda a: -a),
    "relu": (1, lambda a: a.relu()),
    "abs": (1, lambda a: a.abs()),
    "sqrt": (1, lambda a: (a * a + 1.0).sqrt()),
    "scale": (1, lambda a: a * np.arange(1.0, 10.0).reshape(SHAPE)),
    "row_mean": (1, lambda a: a.mean(axis=0, keepdims=True).broadcast_to(SHAPE)),
    "col_max": (1, lambda a: a.max(axis=1, keepdims=True).broadcast_to(SHAPE)),
    "row_min": (1, lambda a: a.min(axis=0).reshape(1, 3).broadcast_to(SHAPE)),
    "std": (1, lambda a: a.std(axis=1, keepdims=True).broadcast_to(SHAPE)),
    "gather": (1, lambda a: a[[2, 0, 0]]),
    "reverse": (1, lambda a: a.reshape(9)[::-1].reshape(SHAPE)),
    "transpose": (1, lambda a: a.transpose()),
}


@st.composite
def programs(draw):
    """A random graph: leaf count, ``(op, operand indices)`` steps, output joins."""
    num_leaves = draw(st.integers(1, 3))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(sorted(OPS)))
        pool = num_leaves + len(steps)
        operands = tuple(draw(st.integers(0, pool - 1)) for _ in range(OPS[name][0]))
        steps.append((name, operands))
    pool = num_leaves + len(steps)
    joins = draw(st.lists(st.integers(0, pool - 1), max_size=3))
    return num_leaves, steps, joins


def _run(program, leaves):
    """Evaluate ``program`` on ``leaves``: the last node plus every joined node."""
    _, steps, joins = program
    nodes = list(leaves)
    for name, operands in steps:
        nodes.append(OPS[name][1](*(nodes[index] for index in operands)))
    output = nodes[-1]
    for index in joins:
        output = output + nodes[index]
    return output


@settings(max_examples=150, deadline=None, derandomize=True)
@given(program=programs(), seed=st.integers(0, 2**16))
def test_backward_matches_central_differences_on_random_graphs(program, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.uniform(0.5, 1.5, SHAPE) * rng.choice([-1.0, 1.0], SHAPE) for _ in range(program[0])]
    weights = rng.standard_normal(SHAPE)

    leaves = [Tensor(array, requires_grad=True) for array in arrays]
    output = _run(program, leaves)
    if output.requires_grad:
        weighted_sum(output, weights).backward()

    def objective() -> float:
        return float(weighted_sum(_run(program, [Tensor(a) for a in arrays]), weights).data)

    for leaf, array in zip(leaves, arrays):
        analytic = leaf.grad if leaf.grad is not None else np.zeros(SHAPE)
        numeric = numerical_gradient(objective, array)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


def _loss(network, inputs):
    return network(Tensor(inputs)).abs().mean()


def _grads(network):
    return [parameter.grad.copy() for parameter in network.parameters()]


@pytest.fixture()
def network():
    return Sequential(
        Conv2d(1, 4, kernel_size=3, seed=0), ReLU(), Conv2d(4, 1, kernel_size=3, seed=1)
    )


class TestGraphsBuiltInPieces:
    def test_subgraph_built_before_the_rest_still_receives_gradients(self, network, rng):
        # A cached intermediate created before the rest of the graph: the
        # depth-first walk from the loss must still reach the weights behind it.
        prefix = Conv2d(1, 1, kernel_size=3, seed=2)
        inputs = rng.random((2, 1, 6, 6))
        check_parameter_gradient(prefix, lambda: network(prefix(Tensor(inputs))))

    def test_cached_subgraph_reused_by_two_losses_accumulates(self, rng):
        layer = Linear(3, 4, seed=0)
        inputs = rng.standard_normal((5, 3))

        def losses(cached):
            return cached.relu().mean(), (cached * cached).mean()

        cached = layer(Tensor(inputs))
        first, second = losses(cached)
        first.backward()
        second.backward()

        for parameter in layer.parameters():
            def objective() -> float:
                first, second = losses(layer(Tensor(inputs)))
                return first.item() + second.item()

            numeric = numerical_gradient(objective, parameter.data)
            np.testing.assert_allclose(parameter.grad, numeric, rtol=1e-5, atol=1e-7)

    def test_backward_on_an_interior_node_ignores_later_nodes(self, network, rng):
        inputs = rng.random((2, 1, 6, 6))
        _loss(network, inputs).backward()
        expected = _grads(network)

        network.zero_grad()
        loss = _loss(network, inputs)
        _ = loss * 2.0  # a newer node downstream of the loss
        loss.backward()
        for actual_grad, expected_grad in zip(_grads(network), expected):
            np.testing.assert_array_equal(actual_grad, expected_grad)


class TestNeedsInputGrad:
    def test_non_grad_input_gets_no_gradient_but_weights_do(self, network, rng):
        inputs = rng.random((2, 1, 6, 6))
        tensor = Tensor(inputs)  # requires_grad=False
        network(tensor).abs().mean().backward()
        assert tensor.grad is None
        for parameter in network.parameters():
            assert parameter.grad is not None

    def test_weight_grads_identical_with_and_without_input_grad(self, network, rng):
        inputs = rng.random((2, 1, 6, 6))
        _loss(network, inputs).backward()
        without_input = _grads(network)

        network.zero_grad()
        tensor = Tensor(inputs.copy(), requires_grad=True)
        network(tensor).abs().mean().backward()
        assert tensor.grad is not None
        for actual_grad, expected_grad in zip(_grads(network), without_input):
            np.testing.assert_array_equal(actual_grad, expected_grad)


class TestWorkspaceRecycling:
    def test_second_backward_through_conv_raises(self, network, rng):
        loss = _loss(network, rng.random((2, 1, 6, 6)))
        loss.backward()
        with pytest.raises(RuntimeError, match="workspace"):
            loss.backward()

    def test_repeated_steps_reuse_workspaces_and_stay_finite(self, network, rng):
        inputs = rng.random((2, 1, 6, 6))
        reference = None
        for _ in range(4):
            network.zero_grad()
            _loss(network, inputs).backward()
            grads = _grads(network)
            if reference is None:
                reference = grads
            for grad, expected in zip(grads, reference):
                np.testing.assert_array_equal(grad, expected)
