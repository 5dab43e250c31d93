"""Convolution primitives: im2col/col2im, Conv2d and ConvTranspose2d.

The paper's three subnets are built from strided convolutions (downsampling),
strided transposed convolutions (upsampling), and stride-1 convolutions with
*replication* padding for conv layers and *zero* padding for deconv layers
(Sec. 3.4.1).  Every layer is one batched GEMM plus one of the two data
movement kernels, ``im2col`` (unfold) or ``col2im`` (fold), and a stride-1
layer k×k-expands only the *narrower* of its two channel sides:

* a strided convolution, or one with at least as many output as input
  channels, unfolds the input and multiplies (the textbook im2col form);
* a stride-1 convolution with fewer output than input channels multiplies
  first, against flipped-tap weights, and folds the narrow result with a
  stride-1 ``col2im``;
* a transposed convolution is the sub-pixel (stride-phase) form: one
  ``im2col`` of small windows over the zero-padded input, one GEMM against
  per-phase weights, one interleaving write of the ``stride**2`` output
  phases — no scatter-add and no zero-filled target.

Backward follows the same rule.  A stride-1 convolution with ``C_out <=
C_in`` unfolds its output gradient once, with the flipped kernel, and gets
both its weight and input gradients from that one buffer; other
convolutions fold the input gradient with ``col2im``, and a transposed
convolution unfolds its output gradient.  ``docs/kernels.md`` ("Which side
a convolution unfolds") has the tap tables and the measured effect.

Array layout is NCHW throughout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import kernels
from repro.nn.kernels import release_workspace, take_workspace
from repro.nn.tensor import Context, Function, Tensor, grad_enabled

#: Padding modes supported by :class:`Conv2dFunction`.
PADDING_MODES = ("zeros", "replicate")

# The im2col workspace pool lives in :mod:`repro.nn.kernels` (keyed by
# (shape, dtype), recency-ordered eviction).  Ownership is exclusive between
# take and release, so a buffer saved for a backward pass can never be
# overwritten by a concurrent forward; a graph can consequently only be
# backpropagated once through a convolution (the standard contract — the
# workspace is recycled during backward).


def pad_input(x: np.ndarray, padding: int, mode: str) -> np.ndarray:
    """Pad the two spatial axes of an NCHW array."""
    if padding == 0:
        return x
    if mode == "zeros":
        return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    if mode == "replicate":
        return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)), mode="edge")
    raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def unpad_gradient(grad_padded: np.ndarray, padding: int, mode: str) -> np.ndarray:
    """Adjoint of :func:`pad_input`: fold border gradients back into the crop."""
    if padding == 0:
        return grad_padded
    core = grad_padded[:, :, padding:-padding, padding:-padding].copy()
    if mode == "zeros":
        return core
    if mode == "replicate":
        # Replication padding copies edge pixels outward, so the adjoint adds
        # the border gradients back onto the edge rows/columns they came from.
        top = grad_padded[:, :, :padding, padding:-padding].sum(axis=2)
        bottom = grad_padded[:, :, -padding:, padding:-padding].sum(axis=2)
        core[:, :, 0, :] += top
        core[:, :, -1, :] += bottom
        left = grad_padded[:, :, padding:-padding, :padding].sum(axis=3)
        right = grad_padded[:, :, padding:-padding, -padding:].sum(axis=3)
        core[:, :, :, 0] += left
        core[:, :, :, -1] += right
        # The four corner blocks replicate the corner pixels.
        core[:, :, 0, 0] += grad_padded[:, :, :padding, :padding].sum(axis=(2, 3))
        core[:, :, 0, -1] += grad_padded[:, :, :padding, -padding:].sum(axis=(2, 3))
        core[:, :, -1, 0] += grad_padded[:, :, -padding:, :padding].sum(axis=(2, 3))
        core[:, :, -1, -1] += grad_padded[:, :, -padding:, -padding:].sum(axis=(2, 3))
        return core
    raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution."""
    return (size + 2 * padding - kernel) // stride + 1


def conv_transpose_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a transposed convolution."""
    return (size - 1) * stride - 2 * padding + kernel


def im2col(
    x_padded: np.ndarray, kernel: int, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Unfold sliding windows into columns (via the active kernel backend).

    Parameters
    ----------
    x_padded:
        Padded input, shape ``(N, C, H, W)``.
    kernel / stride:
        Square kernel size and stride.
    out:
        Optional preallocated C-contiguous destination of shape
        ``(N, C * kernel * kernel, OH * OW)`` (e.g. a pooled workspace);
        allocated when omitted.

    Returns
    -------
    Array of shape ``(N, C * kernel * kernel, OH * OW)`` (``out`` if given).
    """
    return kernels.im2col(x_padded, kernel, stride, out=out)


def col2im(
    columns: np.ndarray,
    padded_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col` (via the active kernel backend)."""
    return kernels.col2im(columns, padded_shape, kernel, stride)


def _unfold(x_padded: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """:func:`im2col` into a pooled workspace (release it when done)."""
    batch, channels, height, width = x_padded.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    workspace = take_workspace(
        (batch, channels * kernel * kernel, out_h * out_w), dtype=x_padded.dtype
    )
    return im2col(x_padded, kernel, stride, out=workspace)


def _flipped_taps(weight: np.ndarray) -> np.ndarray:
    """``(O, C, k, k)`` conv weights with both kernel axes reversed, as ``(O*k*k, C)``.

    Row ``(o, a, b)`` holds tap ``(k-1-a, k-1-b)``, the layout a stride-1
    :func:`col2im` scatters from — and, transposed, the layout that turns a
    stride-1 :func:`im2col` of the output gradient into the input gradient.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    return (
        weight[:, :, ::-1, ::-1]
        .transpose(0, 2, 3, 1)
        .reshape(out_channels * kernel * kernel, in_channels)
    )


def _conv_fold_first(x_padded: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Stride-1 convolution that expands its (narrow) output side.

    GEMM the padded input against :func:`_flipped_taps` to get every output
    channel's ``k*k`` tap responses at every padded position, then fold them
    with a stride-1 :func:`col2im`.  The fold's image is ``k - 1`` larger
    than the input on each side; its centre is the valid convolution.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    batch, _, height, width = x_padded.shape
    responses = kernels.matmul(
        _flipped_taps(weight), x_padded.reshape(batch, in_channels, height * width)
    )
    image = col2im(
        responses, (batch, out_channels, height + kernel - 1, width + kernel - 1), kernel, 1
    )
    return np.ascontiguousarray(image[:, :, kernel - 1 : height, kernel - 1 : width])


def _mirrored_gradients(
    grad: np.ndarray, x_padded: np.ndarray, weight: np.ndarray, needs_input: bool
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Weight and padded-input gradients of a stride-1 convolution.

    The adjoint of a stride-1 convolution is the full convolution of the
    output gradient with the flipped kernel.  One unfold of the gradient,
    zero-padded by ``k - 1``, has a column per padded-input position; those
    columns meet the transposed :func:`_flipped_taps` for the input gradient
    and the padded input itself for the (flipped) weight gradient — so the
    narrow output side is the only one ever expanded.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    batch = grad.shape[0]
    columns = _unfold(pad_input(grad, kernel - 1, "zeros"), kernel, 1)  # (N, O*k*k, Hp*Wp)
    # (N, O*k*k, P) x (N, P, C) batched GEMM summed over the batch, then the
    # taps flipped back into the (O, C, k, k) layout.
    flipped = kernels.matmul(
        columns, x_padded.reshape(batch, in_channels, -1).swapaxes(1, 2)
    ).sum(axis=0)
    grad_weight = np.ascontiguousarray(
        flipped.reshape(out_channels, kernel, kernel, in_channels)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
    )
    grad_padded = None
    if needs_input:
        grad_padded = kernels.matmul(_flipped_taps(weight).T, columns).reshape(x_padded.shape)
    release_workspace(columns)
    return grad_weight, grad_padded


class Conv2dFunction(Function):
    """2-D convolution (NCHW) with stride, padding and padding-mode support.

    Stride-1 layers with ``C_out <= C_in`` keep the padded input for backward
    and differentiate through :func:`_mirrored_gradients`; every other layer
    keeps its unfolded columns and folds the input gradient with ``col2im``.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
        padding_mode: str = "zeros",
    ) -> np.ndarray:
        out_channels, in_channels, kernel, _ = weight.shape
        if x.ndim != 4 or x.shape[1] != in_channels:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight shape {weight.shape}"
            )
        x_padded = pad_input(x, padding, padding_mode)
        mirrored = stride == 1 and out_channels <= in_channels
        columns = None
        if stride == 1 and out_channels < in_channels:
            output = _conv_fold_first(x_padded, weight)
        else:
            out_h = conv_output_size(x.shape[2], kernel, stride, padding)
            out_w = conv_output_size(x.shape[3], kernel, stride, padding)
            columns = _unfold(x_padded, kernel, stride)
            # matmul broadcasts (O, F) @ (N, F, P) -> (N, O, P) straight into
            # batched GEMM; unlike einsum there is no per-call path search,
            # which matters when serving many small maps.
            output = kernels.matmul(weight.reshape(out_channels, -1), columns)
            output = output.reshape(x.shape[0], out_channels, out_h, out_w)
            if mirrored or not grad_enabled():
                # The unfolded columns are by far the largest forward buffer
                # and only the col2im backward needs them, so inference
                # (no_grad) and mirrored layers hand them straight back.
                release_workspace(columns)
        if bias is not None:
            output += bias.reshape(1, -1, 1, 1)
        if grad_enabled():
            ctx.save(x_padded if mirrored else columns, weight, x_padded.shape)
        ctx.attrs.update(
            stride=stride,
            padding=padding,
            padding_mode=padding_mode,
            has_bias=bias is not None,
            input_shape=x.shape,
        )
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        if ctx.attrs.get("workspace_recycled"):
            raise RuntimeError(
                "cannot backpropagate through the same convolution twice: "
                "its im2col workspace was recycled by the first backward pass"
            )
        saved, weight, padded_shape = ctx.saved
        ctx.saved = ()
        ctx.attrs["workspace_recycled"] = True
        stride = ctx.attrs["stride"]
        padding = ctx.attrs["padding"]
        padding_mode = ctx.attrs["padding_mode"]
        out_channels, in_channels, kernel, _ = weight.shape

        batch = grad.shape[0]
        grad_flat = grad.reshape(batch, out_channels, -1)  # (N, O, OH*OW)
        grad_bias = grad_flat.sum(axis=(0, 2)) if ctx.attrs["has_bias"] else None
        # Nobody consumes the input gradient of first-layer convolutions on
        # the minibatch itself — skip it entirely.
        needs = ctx.needs_input_grad
        needs_input = not (needs and not needs[0])

        if stride == 1 and out_channels <= in_channels:
            grad_weight, grad_padded = _mirrored_gradients(grad, saved, weight, needs_input)
        else:
            columns = saved
            # (N, O, P) x (N, P, F) batched GEMM summed over the batch — same
            # contraction as einsum("nop,nfp->of") without the per-call path
            # search overhead.
            grad_weight = (
                kernels.matmul(grad_flat, columns.swapaxes(1, 2)).sum(axis=0).reshape(weight.shape)
            )
            # The columns are no longer needed past the weight gradient; hand
            # the buffer back to the pool for the next step's forward pass.
            release_workspace(columns)
            del columns, saved
            grad_padded = None
            if needs_input:
                # Plain matmul (no out=) — numpy's out= variant takes a
                # slower buffered path; the transient result is parked in the
                # pool instead.
                grad_columns = kernels.matmul(weight.reshape(out_channels, -1).T, grad_flat)
                grad_padded = col2im(grad_columns, padded_shape, kernel, stride)
                release_workspace(grad_columns)
        if grad_padded is None:
            return None, grad_weight, grad_bias
        return unpad_gradient(grad_padded, padding, padding_mode), grad_weight, grad_bias


def _subpixel_taps(kernel: int, stride: int, padding: int) -> tuple[list[int], np.ndarray]:
    """Per-axis plan of the sub-pixel transposed convolution.

    Output index ``y = q * stride + phase`` sums ``x[q + offset - t] *
    w[residue + t * stride]`` over ``t``, where ``offset, residue =
    divmod(phase + padding, stride)``.  With the input zero-padded by
    ``window - 1`` in front (``window = ceil(kernel / stride)``), that sum is
    one ``window``-wide stride-1 window starting at ``q + offset``, whose
    tap ``u`` meets kernel tap ``residue + (window - 1 - u) * stride``.

    Returns the per-phase window offsets and the ``(stride, window)`` kernel
    tap table; taps ``>= kernel`` fall outside the kernel and weigh zero.
    """
    window = -(-kernel // stride)
    offsets = []
    taps = np.empty((stride, window), dtype=np.intp)
    for phase in range(stride):
        offset, residue = divmod(phase + padding, stride)
        offsets.append(offset)
        taps[phase] = residue + (window - 1 - np.arange(window)) * stride
    return offsets, taps


def _subpixel_weights(weight: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``(C_in, C_out, k, k)`` weights as the ``(s*s*C_out, C_in*T*T)`` phase matrix.

    Row ``(phase_row, phase_col, o)``, column ``(c, u, v)`` holds
    ``weight[c, o, taps[phase_row, u], taps[phase_col, v]]`` (zero past the
    kernel edge).
    """
    in_channels, out_channels, kernel, _ = weight.shape
    stride, window = taps.shape
    extent = stride * window
    if extent > kernel:
        weight = np.pad(weight, ((0, 0), (0, 0), (0, extent - kernel), (0, extent - kernel)))
    # (C_in, C_out, s, T, s, T) -> (s, s, C_out, C_in, T, T)
    phased = weight[:, :, taps[:, :, None, None], taps[None, None, :, :]]
    return phased.transpose(2, 4, 1, 0, 3, 5).reshape(
        stride * stride * out_channels, in_channels * window * window
    )


class ConvTranspose2dFunction(Function):
    """2-D transposed convolution (NCHW), the adjoint of :class:`Conv2dFunction`.

    Weight layout follows the PyTorch convention ``(C_in, C_out, k, k)``.
    Only zero padding is supported, matching the paper's deconvolution layers.
    The forward pass is the sub-pixel decomposition of :func:`_subpixel_taps`.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        in_channels, out_channels, kernel, _ = weight.shape
        if x.ndim != 4 or x.shape[1] != in_channels:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight shape {weight.shape}"
            )
        batch, _, in_h, in_w = x.shape
        out_h = conv_transpose_output_size(in_h, kernel, stride, padding)
        out_w = conv_transpose_output_size(in_w, kernel, stride, padding)

        offsets, taps = _subpixel_taps(kernel, stride, padding)
        window = taps.shape[1]
        # Pad behind far enough that every phase's last window exists.
        pad_h = max(0, max(offsets) + -(-out_h // stride) - in_h)
        pad_w = max(0, max(offsets) + -(-out_w // stride) - in_w)
        x_padded = np.pad(x, ((0, 0), (0, 0), (window - 1, pad_h), (window - 1, pad_w)))
        columns = _unfold(x_padded, window, 1)
        phases = kernels.matmul(_subpixel_weights(weight, taps), columns)
        release_workspace(columns)
        phase_maps = phases.reshape(batch, stride, stride, out_channels, in_h + pad_h, in_w + pad_w)

        # Every output pixel belongs to exactly one phase, so the target
        # needs no zero fill.
        output = np.empty((batch, out_channels, out_h, out_w), dtype=phases.dtype)
        for row in range(stride):
            rows = slice(offsets[row], offsets[row] + len(range(row, out_h, stride)))
            for col in range(stride):
                cols = slice(offsets[col], offsets[col] + len(range(col, out_w, stride)))
                output[:, :, row::stride, col::stride] = phase_maps[:, row, col, :, rows, cols]
        if bias is not None:
            output += bias.reshape(1, -1, 1, 1)
        if grad_enabled():
            ctx.save(x.reshape(batch, in_channels, in_h * in_w), weight)
        ctx.attrs.update(
            stride=stride, padding=padding, has_bias=bias is not None, input_shape=x.shape
        )
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x_flat, weight = ctx.saved
        stride = ctx.attrs["stride"]
        padding = ctx.attrs["padding"]
        in_channels, out_channels, kernel, _ = weight.shape
        grad_columns = _unfold(pad_input(grad, padding, "zeros"), kernel, stride)  # (N, O*k*k, H*W)

        weight_matrix = weight.reshape(in_channels, out_channels * kernel * kernel)
        needs = ctx.needs_input_grad
        if needs and not needs[0]:
            grad_x = None
        else:
            # Batched GEMM replacements for einsum("if,nfp->nip") — no
            # per-call contraction-path search.
            grad_x = kernels.matmul(weight_matrix, grad_columns).reshape(ctx.attrs["input_shape"])

        grad_weight = (
            kernels.matmul(x_flat, grad_columns.swapaxes(1, 2)).sum(axis=0).reshape(weight.shape)
        )
        release_workspace(grad_columns)
        grad_bias = grad.sum(axis=(0, 2, 3)) if ctx.attrs["has_bias"] else None
        return grad_x, grad_weight, grad_bias


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    padding_mode: str = "zeros",
) -> Tensor:
    """Functional 2-D convolution on :class:`~repro.nn.tensor.Tensor` inputs."""
    if bias is None:
        return Conv2dFunction.apply(
            x, weight, stride=stride, padding=padding, padding_mode=padding_mode
        )
    return Conv2dFunction.apply(
        x, weight, bias, stride=stride, padding=padding, padding_mode=padding_mode
    )


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """Functional 2-D transposed convolution on :class:`Tensor` inputs."""
    if bias is None:
        return ConvTranspose2dFunction.apply(x, weight, stride=stride, padding=padding)
    return ConvTranspose2dFunction.apply(x, weight, bias, stride=stride, padding=padding)
