"""A small reverse-mode automatic-differentiation engine on numpy arrays.

The paper's model is implemented in PyTorch; PyTorch is not available in this
environment, so this module provides the minimal tensor/autograd substrate
the model needs: a :class:`Tensor` wrapping a numpy array, a :class:`Function`
base class for differentiable operations, and reverse-mode backpropagation
over the recorded graph.  The op set is exactly what this repository's
models run — a U-Net-style CNN with temporal reductions and the PowerNet
baseline — and every op's gradient is covered by numerical-gradient tests
in ``tests/nn``.

Tensors carry one of the kernel dtypes (``float64`` by default — the
bit-exact training/reference precision — or ``float32`` for the low-precision
inference path; see :mod:`repro.nn.kernels`).  Operations preserve their
operands' dtype: scalars and lists are coerced at the promoted dtype of the
tensor operands, so a float32 forward pass stays float32 end to end instead
of silently promoting to float64 at the first ``x * 0.5``.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from repro.nn import kernels

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike, dtype: Optional[np.dtype] = None) -> np.ndarray:
    """Convert any accepted operand into a kernel-dtype numpy array.

    Arrays already carrying a supported kernel dtype pass through unchanged
    (no copy) when no explicit ``dtype`` is requested; everything else —
    scalars, lists, integer or exotic-dtype arrays — is coerced to ``dtype``
    (default float64).
    """
    if isinstance(value, Tensor):
        return value.data
    if (
        dtype is None
        and isinstance(value, (np.ndarray, np.generic))
        and value.dtype in kernels.SUPPORTED_DTYPES
    ):
        # np.generic covers 0-d results of reductions (np.sum of a float32
        # array returns a numpy scalar): they keep their precision too.
        return np.asarray(value)
    return np.asarray(value, dtype=dtype if dtype is not None else np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Context:
    """Per-call scratch space a :class:`Function` uses to stash forward data."""

    __slots__ = ("saved", "attrs", "needs_input_grad")

    def __init__(self) -> None:
        self.saved: tuple = ()
        self.attrs: dict = {}
        #: One flag per positional input: whether a gradient will ever reach
        #: it (set by :meth:`Function.apply`).  Expensive backward rules can
        #: skip computing adjoints nobody consumes — e.g. the col2im fold for
        #: a first-layer convolution whose input is the minibatch itself.
        self.needs_input_grad: tuple = ()

    def save(self, *arrays) -> None:
        """Save arrays (or any values) needed by the backward pass."""
        self.saved = arrays


class Function:
    """Base class of differentiable operations.

    Subclasses implement ``forward(ctx, *arrays, **kwargs) -> np.ndarray`` and
    ``backward(ctx, grad) -> tuple[Optional[np.ndarray], ...]`` returning one
    gradient (or ``None``) per positional input, in order.
    """

    @staticmethod
    def forward(ctx: Context, *args, **kwargs) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):  # pragma: no cover - interface
        raise NotImplementedError

    @classmethod
    def apply(cls, *inputs: ArrayLike, **kwargs) -> "Tensor":
        """Run the forward pass and record the node for backpropagation.

        Non-tensor operands (Python scalars, lists) are coerced at the
        promoted dtype of the tensor/array operands, so e.g. ``x * 0.5`` on a
        float32 tensor stays float32 instead of promoting to float64 through
        a strongly-typed 0-d float64 scalar array.
        """
        common: Optional[np.dtype] = None
        for value in inputs:
            data = value.data if isinstance(value, Tensor) else value
            if isinstance(data, np.ndarray) and data.dtype in kernels.SUPPORTED_DTYPES:
                common = (
                    data.dtype if common is None else np.promote_types(common, data.dtype)
                )
        if common is None:
            common = kernels.DEFAULT_DTYPE
        tensors = [
            value if isinstance(value, Tensor) else Tensor(_as_array(value, dtype=common))
            for value in inputs
        ]
        ctx = Context()
        output_data = cls.forward(ctx, *[tensor.data for tensor in tensors], **kwargs)
        requires_grad = any(tensor.requires_grad for tensor in tensors) and grad_enabled()
        output = Tensor(output_data, requires_grad=requires_grad)
        if requires_grad:
            output._parents = tuple(tensors)
            output._function = cls
            output._ctx = ctx
            ctx.needs_input_grad = tuple(
                tensor.requires_grad or tensor._function is not None for tensor in tensors
            )
        return output


# Thread-local so a serving thread running under no_grad can never disable
# graph recording for a training step happening concurrently on another
# thread (each thread sees its own flag, defaulting to enabled).
_GRAD_STATE = threading.local()


def _accumulate_leaf(leaf: "Tensor", leaf_grad: np.ndarray) -> None:
    """Add one gradient contribution into a leaf's ``.grad``."""
    leaf.grad = leaf_grad if leaf.grad is None else leaf.grad + leaf_grad


def grad_enabled() -> bool:
    """Whether operations currently record the autograd graph (per thread)."""
    return getattr(_GRAD_STATE, "enabled", True)


class no_grad:
    """Context manager disabling graph recording (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._previous = grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        _GRAD_STATE.enabled = self._previous


class Tensor:
    """A numpy array plus the bookkeeping required for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_function", "_ctx")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._function: Optional[type[Function]] = None
        self._ctx: Optional[Context] = None

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        """Dtype of the underlying array (one of the kernel dtypes)."""
        return self.data.dtype

    def item(self) -> float:
        """The value of a single-element tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """The raw numpy array (shared, not copied)."""
        return self.data

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------ #
    # autograd
    # ------------------------------------------------------------------ #

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to 1 for scalar tensors (the usual loss case).
        Nodes are visited in the reverse topological order of a depth-first
        walk from this tensor, so every node's gradient is complete before
        it is pushed to its parents.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        gradients: dict[int, np.ndarray] = {id(self): grad}
        # Buffers allocated *by this accumulation loop* may be added into in
        # place; the first gradient reaching a node is adopted as-is (it can
        # alias a Function's scratch space, so it must not be mutated).
        owned: set[int] = set()

        for node in self._topological_order():
            node_grad = gradients.pop(id(node), None)
            if node_grad is None:
                continue
            if node._function is None:
                if node.requires_grad:
                    _accumulate_leaf(node, node_grad)
                continue
            input_grads = node._function.backward(node._ctx, node_grad)
            if not isinstance(input_grads, tuple):
                input_grads = (input_grads,)
            for parent, parent_grad in zip(node._parents, input_grads):
                if parent_grad is None:
                    continue
                if parent._function is None:
                    # Leaf tensor: accumulate straight into .grad.
                    if parent.requires_grad:
                        _accumulate_leaf(parent, parent_grad)
                    continue
                key = id(parent)
                existing = gradients.get(key)
                if existing is None:
                    gradients[key] = parent_grad
                elif key in owned:
                    existing += parent_grad
                else:
                    gradients[key] = existing + parent_grad
                    owned.add(key)

    def _topological_order(self) -> list["Tensor"]:
        """Nodes reachable from ``self`` in reverse topological order.

        A depth-first search; reversing its post-order yields an order where
        every node precedes all of its parents, which is what the backward
        accumulation loop consumes.
        """
        visited: set[int] = set()
        order: list[Tensor] = []
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return list(reversed(order))

    # ------------------------------------------------------------------ #
    # arithmetic operators (implemented by Functions defined below)
    # ------------------------------------------------------------------ #

    def __add__(self, other: ArrayLike) -> "Tensor":
        return Add.apply(self, other)

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return Add.apply(other, self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return Subtract.apply(self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Subtract.apply(other, self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return Multiply.apply(self, other)

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return Multiply.apply(other, self)

    def __neg__(self) -> "Tensor":
        return Multiply.apply(self, -1.0)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return MatMul.apply(self, other)

    def __getitem__(self, index) -> "Tensor":
        return GetItem.apply(self, index=index)

    # ------------------------------------------------------------------ #
    # math / shape methods
    # ------------------------------------------------------------------ #

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        return ReLU.apply(self)

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return Abs.apply(self)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return Sqrt.apply(self)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Mean over the given axes."""
        return Mean.apply(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axes (gradient flows to the first argmax)."""
        return Max.apply(self, axis=axis, keepdims=keepdims, mode="max")

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over the given axes (gradient flows to the first argmin)."""
        return Max.apply(self, axis=axis, keepdims=keepdims, mode="min")

    def reshape(self, *shape) -> "Tensor":
        """Reshape without copying data."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Reshape.apply(self, shape=shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        """Permute axes."""
        return Transpose.apply(self, axes=tuple(axes) if axes is not None else None)

    def broadcast_to(self, *shape) -> "Tensor":
        """Broadcast to a larger shape (numpy broadcasting rules)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return BroadcastTo.apply(self, shape=shape)

    def std(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """Population standard deviation, composed from differentiable primitives."""
        mean = self.mean(axis=axis, keepdims=True)
        centered = self - mean
        variance = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return (variance + eps).sqrt()


# ---------------------------------------------------------------------- #
# elementwise operations
# ---------------------------------------------------------------------- #


class Add(Function):
    """Elementwise addition with numpy broadcasting."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.attrs["shapes"] = (a.shape, b.shape)
        return a + b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape_a, shape_b = ctx.attrs["shapes"]
        return _unbroadcast(grad, shape_a), _unbroadcast(grad, shape_b)


class Subtract(Function):
    """Elementwise subtraction with numpy broadcasting."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.attrs["shapes"] = (a.shape, b.shape)
        return a - b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        shape_a, shape_b = ctx.attrs["shapes"]
        return _unbroadcast(grad, shape_a), _unbroadcast(-grad, shape_b)


class Multiply(Function):
    """Elementwise multiplication with numpy broadcasting."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a, b)
        return a * b

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved
        return _unbroadcast(grad * b, a.shape), _unbroadcast(grad * a, b.shape)


class ReLU(Function):
    """Rectified linear unit.

    ``np.maximum`` into a fresh array: the input is never written (it may be
    the caller's), NaN stays NaN, and only a recorded graph keeps the mask.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        if grad_enabled():
            ctx.save(a > 0)
        return np.maximum(a, 0)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (mask,) = ctx.saved
        return (grad * mask,)


class Abs(Function):
    """Absolute value (sub-gradient 0 at the origin)."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        ctx.save(np.sign(a))
        return np.abs(a)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (sign,) = ctx.saved
        return (grad * sign,)


class Sqrt(Function):
    """Elementwise square root."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray) -> np.ndarray:
        result = np.sqrt(a)
        ctx.save(result)
        return result

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        (result,) = ctx.saved
        return (grad / (2.0 * result),)


# ---------------------------------------------------------------------- #
# linear algebra
# ---------------------------------------------------------------------- #


class MatMul(Function):
    """Matrix multiplication (2-D by 2-D, or batched via numpy semantics).

    Dispatches through :func:`repro.nn.kernels.matmul`, so backend selection
    and batch sharding apply to both the forward product and the two
    backward contractions.
    """

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ctx.save(a, b)
        return kernels.matmul(a, b)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        a, b = ctx.saved
        grad_a = kernels.matmul(grad, np.swapaxes(b, -1, -2))
        grad_b = kernels.matmul(np.swapaxes(a, -1, -2), grad)
        return _unbroadcast(grad_a, a.shape), _unbroadcast(grad_b, b.shape)


# ---------------------------------------------------------------------- #
# reductions
# ---------------------------------------------------------------------- #


def _expand_reduced(grad: np.ndarray, original_shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back to the original shape."""
    if axis is None:
        return np.broadcast_to(grad, original_shape).copy()
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(original_shape) for a in axes)
        grad = np.expand_dims(grad, axes)
    return np.broadcast_to(grad, original_shape).copy()


class Mean(Function):
    """Arithmetic mean over axes."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
        result = a.mean(axis=axis, keepdims=keepdims)
        count = a.size / result.size
        ctx.attrs.update(shape=a.shape, axis=axis, keepdims=keepdims, count=count)
        return result

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        expanded = _expand_reduced(
            grad, ctx.attrs["shape"], ctx.attrs["axis"], ctx.attrs["keepdims"]
        )
        return (expanded / ctx.attrs["count"],)


class Max(Function):
    """Maximum or minimum over axes; gradient goes to the first extremum."""

    @staticmethod
    def forward(
        ctx: Context, a: np.ndarray, axis=None, keepdims: bool = False, mode: str = "max"
    ) -> np.ndarray:
        op = np.max if mode == "max" else np.min
        result = op(a, axis=axis, keepdims=True)
        if grad_enabled():
            mask = a == result
            # Split the gradient among ties to keep the operator's adjoint exact.
            counts = mask.sum(axis=axis, keepdims=True)
            ctx.save(mask, counts)
        ctx.attrs.update(shape=a.shape, axis=axis, keepdims=keepdims)
        return result if keepdims else np.squeeze(result, axis=axis) if axis is not None else result.reshape(())

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        mask, counts = ctx.saved
        expanded = _expand_reduced(grad, ctx.attrs["shape"], ctx.attrs["axis"], ctx.attrs["keepdims"])
        return (expanded * mask / counts,)


# ---------------------------------------------------------------------- #
# shape manipulation
# ---------------------------------------------------------------------- #


class Reshape(Function):
    """Reshape (view) operation."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: tuple[int, ...] = ()) -> np.ndarray:
        ctx.attrs["shape"] = a.shape
        return a.reshape(shape)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (grad.reshape(ctx.attrs["shape"]),)


class Transpose(Function):
    """Axis permutation."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, axes: Optional[tuple[int, ...]] = None) -> np.ndarray:
        ctx.attrs["axes"] = axes if axes is not None else tuple(reversed(range(a.ndim)))
        return np.transpose(a, axes)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        axes = ctx.attrs["axes"]
        inverse = np.argsort(axes)
        return (np.transpose(grad, inverse),)


class BroadcastTo(Function):
    """Broadcast to a target shape; backward sums over the broadcast axes."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, shape: tuple[int, ...] = ()) -> np.ndarray:
        ctx.attrs["shape"] = a.shape
        # Materialise the broadcast so downstream ops (e.g. im2col's stride
        # tricks) see an ordinary contiguous array rather than a view.
        return np.ascontiguousarray(np.broadcast_to(a, shape))

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        return (_unbroadcast(grad, ctx.attrs["shape"]),)


class GetItem(Function):
    """Basic and advanced indexing; backward scatter-adds into the source."""

    @staticmethod
    def forward(ctx: Context, a: np.ndarray, index=None) -> np.ndarray:
        ctx.attrs.update(shape=a.shape, index=index, dtype=a.dtype)
        return a[index]

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        out = np.zeros(ctx.attrs["shape"], dtype=ctx.attrs["dtype"])
        np.add.at(out, ctx.attrs["index"], grad)
        return (out,)


class Concatenate(Function):
    """Concatenation along an axis (variadic)."""

    @staticmethod
    def forward(ctx: Context, *arrays: np.ndarray, axis: int = 0) -> np.ndarray:
        ctx.attrs["axis"] = axis
        ctx.attrs["sizes"] = [array.shape[axis] for array in arrays]
        return np.concatenate(arrays, axis=axis)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        axis = ctx.attrs["axis"]
        sizes = ctx.attrs["sizes"]
        split_points = np.cumsum(sizes)[:-1]
        return tuple(np.split(grad, split_points, axis=axis))


# ---------------------------------------------------------------------- #
# module-level convenience functions
# ---------------------------------------------------------------------- #


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis."""
    return Concatenate.apply(*tensors, axis=axis)


def as_tensor(value: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Wrap a value in a :class:`Tensor` (no copy for numpy inputs)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)
