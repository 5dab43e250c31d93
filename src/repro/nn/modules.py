"""Neural-network module system built on the autograd tensor.

Mirrors the small subset of ``torch.nn`` the paper's model needs: a
:class:`Module` base with parameter registration and ``state_dict`` support,
:class:`Conv2d` (with replication or zero padding), :class:`ConvTranspose2d`,
:class:`ReLU`, :class:`Linear` and :class:`Sequential`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

import numpy as np

from repro.nn import init
from repro.nn.conv import PADDING_MODES, conv2d, conv_transpose2d
from repro.nn.tensor import Tensor
from repro.utils.random import RandomState


class Parameter(Tensor):
    """A trainable tensor (always requires gradients)."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for layers and models.

    Submodules and parameters assigned as attributes are registered
    automatically, so ``parameters()``, ``state_dict()`` and
    ``load_state_dict()`` work for arbitrarily nested models.
    """

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # -- attribute registration ----------------------------------------- #

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access ------------------------------------------------ #

    def parameters(self) -> list[Parameter]:
        """All trainable parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, parameter in self._parameters.items():
            yield (f"{prefix}{name}", parameter)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(parameter.size for parameter in self.parameters())

    def zero_grad(self) -> None:
        """Drop gradients of every parameter (sets them to ``None``).

        The next backward pass then *writes* each parameter's first gradient
        contribution instead of accumulating into zero-filled arrays — no
        per-step allocation churn (see :meth:`repro.nn.Adam.zero_grad`).
        """
        for parameter in self.parameters():
            parameter.zero_grad()

    def freeze(self) -> "Module":
        """Disable gradients on every parameter and return self.

        Served models never train again, so freezing them keeps forward
        passes from recording the autograd graph even outside ``no_grad``.
        """
        for parameter in self.parameters():
            parameter.requires_grad = False
        return self

    # -- state dict -------------------------------------------------------- #

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of every parameter keyed by its qualified name."""
        return OrderedDict(
            (name, parameter.data.copy()) for name, parameter in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        """Load parameter values saved by :meth:`state_dict`.

        Values are coerced to each parameter's *current* dtype, so a float32
        module loads float64 master weights without silently reverting to
        full precision (and the default-float64 case is unchanged).
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=parameter.data.dtype)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"parameter {name!r} has shape {parameter.data.shape}, "
                    f"state provides {value.shape}"
                )
            parameter.data = value.copy()

    def astype(self, dtype) -> "Module":
        """Cast every parameter in place to a kernel dtype and return self.

        The cast rebinds each parameter's ``data`` array (gradients are
        dropped), so anything caching array identities — e.g. a predictor's
        fingerprint memo — observes the change.  Training requires float64;
        cast to float32 only for inference.
        """
        from repro.nn import kernels

        dtype = kernels.canonical_dtype(dtype)
        for parameter in self.parameters():
            if parameter.data.dtype != dtype:
                parameter.data = parameter.data.astype(dtype)
                parameter.grad = None
        return self

    # -- forward ------------------------------------------------------------ #

    def forward(self, *args, **kwargs) -> Tensor:  # pragma: no cover - interface
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)


class Conv2d(Module):
    """2-D convolution layer (NCHW).

    Parameters
    ----------
    in_channels / out_channels / kernel_size / stride / padding:
        Usual convolution hyper-parameters (square kernels only).
    padding_mode:
        ``"replicate"`` (paper's choice for conv layers) or ``"zeros"``.
    bias:
        Whether to add a per-channel bias.
    seed:
        Seed for weight initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        padding_mode: str = "replicate",
        bias: bool = True,
        seed: RandomState = None,
    ):
        super().__init__()
        if padding_mode not in PADDING_MODES:
            raise ValueError(f"padding_mode must be one of {PADDING_MODES}, got {padding_mode!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.padding_mode = padding_mode
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kernel_size, kernel_size), fan_in, seed)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            padding_mode=self.padding_mode,
        )


class ConvTranspose2d(Module):
    """2-D transposed-convolution layer (NCHW), zero padding only."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 4,
        stride: int = 2,
        padding: int = 1,
        bias: bool = True,
        seed: RandomState = None,
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform((in_channels, out_channels, kernel_size, kernel_size), fan_in, seed)
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None

    def forward(self, x: Tensor, output_size: Optional[tuple[int, int]] = None) -> Tensor:
        """Upsample ``x``; ``output_size`` crops to ``(OH, OW)`` (see :func:`conv_transpose2d`)."""
        return conv_transpose2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            output_size=output_size,
        )


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True, seed: RandomState = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((out_features, in_features), in_features, out_features, seed)
        )
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        output = x @ self.weight.transpose()
        if self.bias is not None:
            output = output + self.bias
        return output


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self._layers = list(layers)
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x
