"""A compact numpy-only deep-learning library.

PyTorch (the paper's framework) is unavailable offline, so this subpackage
provides exactly the pieces this repository's models run: an autograd
tensor whose backward pass walks the graph depth-first, Conv2d /
ConvTranspose2d with replication or zero padding and pooled im2col
workspaces, Linear, ReLU, the paper's L1 loss, a fused Adam optimiser and
checkpointing.  Every operator's gradient is validated against numerical
differentiation in the test suite.
(Minibatch shuffling lives in the training engine itself —
:mod:`repro.core.training` — which batches whole minibatches through one
autograd graph per step.)

All dense kernels (matmul / im2col / col2im, the workspace pool and the dtype
policy) dispatch through :mod:`repro.nn.kernels`: float64 is the
bit-exact reference and training precision, float32 the opt-in inference
fast path, and accelerated backends can be registered behind the same entry
points.
"""

from repro.nn import kernels
from repro.nn.tensor import Tensor, as_tensor, cat, no_grad
from repro.nn.conv import (
    PADDING_MODES,
    conv2d,
    conv_transpose2d,
    conv_output_size,
    conv_transpose_output_size,
)
from repro.nn.kernels import col2im, im2col
from repro.nn.modules import (
    Conv2d,
    ConvTranspose2d,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.losses import l1_loss
from repro.nn.optim import Adam
from repro.nn.serialization import read_checkpoint, save_checkpoint
from repro.nn import init

__all__ = [
    "kernels",
    "Tensor",
    "as_tensor",
    "cat",
    "no_grad",
    "PADDING_MODES",
    "conv2d",
    "conv_transpose2d",
    "conv_output_size",
    "conv_transpose_output_size",
    "im2col",
    "col2im",
    "Conv2d",
    "ConvTranspose2d",
    "Linear",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "l1_loss",
    "Adam",
    "read_checkpoint",
    "save_checkpoint",
    "init",
]
