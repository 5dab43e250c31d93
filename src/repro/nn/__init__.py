"""A compact numpy-only deep-learning library.

PyTorch (the paper's framework) is unavailable offline, so this subpackage
provides the pieces the paper's model needs: an autograd tensor (with
tape-recorded graphs for hot training loops), Conv2d / ConvTranspose2d with
replication or zero padding and pooled im2col workspaces, ReLU, L1/MSE/Huber
losses, fused SGD/Adam optimisers and checkpointing.  Every operator's
gradient is validated against numerical differentiation in the test suite.
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
from repro.nn.tensor import Tensor, as_tensor, cat, stack, no_grad, record_graph
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
    Identity,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
)
from repro.nn.losses import huber_loss, l1_loss, mse_loss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.serialization import load_checkpoint, load_extras, save_checkpoint
from repro.nn import init

__all__ = [
    "kernels",
    "Tensor",
    "as_tensor",
    "cat",
    "stack",
    "no_grad",
    "record_graph",
    "PADDING_MODES",
    "conv2d",
    "conv_transpose2d",
    "conv_output_size",
    "conv_transpose_output_size",
    "im2col",
    "col2im",
    "Conv2d",
    "ConvTranspose2d",
    "Identity",
    "Linear",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "l1_loss",
    "mse_loss",
    "huber_loss",
    "SGD",
    "Adam",
    "Optimizer",
    "load_checkpoint",
    "load_extras",
    "save_checkpoint",
    "init",
]
