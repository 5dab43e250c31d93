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
  first, against flipped-tap weights, and sums the shifted tap planes over
  the valid centre only (the centre of a stride-1 ``col2im`` fold);
* a transposed convolution is the sub-pixel (stride-phase) form: one
  ``im2col`` of small windows over the zero-padded input, one GEMM against
  per-phase weights, one interleaving write of the ``stride**2`` output
  phases — no scatter-add and no zero-filled target.  An ``output_size``
  crop writes only the phases that land inside it.

Backward follows the same rule, and a recording convolution keeps only its
padded input.  A stride-1 convolution with ``C_out <= C_in`` unfolds its
output gradient once, with the flipped kernel, and gets both its weight and
input gradients from that one buffer; other convolutions re-unfold the
padded input for the weight gradient and fold the input gradient with
``col2im``, and a transposed convolution unfolds its output gradient.
``docs/kernels.md`` ("Which side a convolution unfolds") has the tap
tables and the measured effect.

Padding is a halo: :func:`pad_input` writes the input by slices into the
interior of a pre-padded buffer and :func:`fill_halo` fills only the ring.
A producer (see ``CurrentFusionNet``) can write its output straight into
such an interior and skip the copy.

Array layout is NCHW throughout.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import kernels
from repro.nn.kernels import take_workspace
from repro.nn.tensor import Context, Function, Tensor, grad_enabled

#: Padding modes supported by :class:`Conv2dFunction`.
PADDING_MODES = ("zeros", "replicate")


def fill_halo(buffer: np.ndarray, pads: tuple[int, int, int, int], mode: str) -> None:
    """Fill the ring of a pre-padded NCHW buffer whose interior is already written.

    ``pads`` is ``(top, bottom, left, right)``.  ``"replicate"`` copies the
    interior's edge rows and columns outward (corners included, as
    ``np.pad(mode="edge")`` does); ``"zeros"`` zeroes the ring.  Only the
    ring is written, so a producer can write its output straight into the
    interior and hand the buffer to the next convolution without a copy.
    """
    top, bottom, left, right = pads
    height, width = buffer.shape[2], buffer.shape[3]
    rows = slice(top, height - bottom)
    if mode == "zeros":
        buffer[:, :, :top] = 0
        buffer[:, :, height - bottom :] = 0
        buffer[:, :, rows, :left] = 0
        buffer[:, :, rows, width - right :] = 0
    elif mode == "replicate":
        buffer[:, :, rows, :left] = buffer[:, :, rows, left : left + 1]
        buffer[:, :, rows, width - right :] = buffer[:, :, rows, width - right - 1 : width - right]
        buffer[:, :, :top] = buffer[:, :, top : top + 1]
        buffer[:, :, height - bottom :] = buffer[:, :, height - bottom - 1 : height - bottom]
    else:
        raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")


def halo_workspace(
    shape: tuple[int, int, int, int], pads: tuple[int, int, int, int], dtype
) -> tuple[np.ndarray, np.ndarray]:
    """A pre-padded buffer for ``shape`` maps and a view of its interior.

    The caller writes the interior and fills the ring with :func:`fill_halo`.
    """
    top, bottom, left, right = pads
    batch, channels, height, width = shape
    buffer = take_workspace(
        (batch, channels, top + height + bottom, left + width + right), dtype=dtype
    )
    return buffer, buffer[:, :, top : top + height, left : left + width]


def pad_workspace(x: np.ndarray, pads: tuple[int, int, int, int], mode: str) -> np.ndarray:
    """``x`` written by slices into a pre-padded buffer, ring filled."""
    buffer, interior = halo_workspace(x.shape, pads, x.dtype)
    interior[...] = x
    fill_halo(buffer, pads, mode)
    return buffer


def pad_input(x: np.ndarray, padding: int, mode: str) -> np.ndarray:
    """Pad the two spatial axes of an NCHW array.

    With ``padding > 0`` the result is a fresh buffer (``x`` written into
    its interior, the ring filled by :func:`fill_halo`); ``padding == 0``
    returns ``x``.
    """
    if padding == 0:
        return x
    if mode not in PADDING_MODES:
        raise ValueError(f"unknown padding mode {mode!r}; expected one of {PADDING_MODES}")
    return pad_workspace(x, (padding,) * 4, mode)


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


def _unfold(x_padded: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """:func:`kernels.im2col` into a fresh buffer."""
    batch, channels, height, width = x_padded.shape
    out_h = (height - kernel) // stride + 1
    out_w = (width - kernel) // stride + 1
    workspace = take_workspace(
        (batch, channels * kernel * kernel, out_h * out_w), dtype=x_padded.dtype
    )
    return kernels.im2col(x_padded, kernel, stride, out=workspace)


def _flipped_taps(weight: np.ndarray) -> np.ndarray:
    """``(O, C, k, k)`` conv weights with both kernel axes reversed, as ``(O*k*k, C)``.

    Row ``(o, a, b)`` holds tap ``(k-1-a, k-1-b)``, the layout a stride-1
    :func:`kernels.col2im` scatters from — and, transposed, the layout that
    turns a stride-1 :func:`kernels.im2col` of the output gradient into the
    input gradient.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    return (
        weight[:, :, ::-1, ::-1]
        .transpose(0, 2, 3, 1)
        .reshape(out_channels * kernel * kernel, in_channels)
    )


def _conv_fold_first(
    x_padded: np.ndarray, weight: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Stride-1 convolution that expands its (narrow) output side.

    GEMM the padded input against :func:`_flipped_taps` to get every output
    channel's ``k*k`` tap responses at every padded position, then sum the
    shifted tap planes over the valid centre only — the centre of a
    stride-1 :func:`kernels.col2im` fold, added in the fold's tap order, so
    the sums are the fold's to the bit.  ``out`` (e.g. a slice of a larger
    result) receives the sum when given.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    batch, _, height, width = x_padded.shape
    out_h, out_w = height - kernel + 1, width - kernel + 1
    responses = kernels.matmul(
        _flipped_taps(weight), x_padded.reshape(batch, in_channels, height * width)
    ).reshape(batch, out_channels, kernel, kernel, height, width)
    if out is None:
        out = np.empty((batch, out_channels, out_h, out_w), dtype=responses.dtype)
    for row in range(kernel):
        rows = slice(kernel - 1 - row, kernel - 1 - row + out_h)
        for col in range(kernel):
            tap = responses[:, :, row, col, rows, kernel - 1 - col : kernel - 1 - col + out_w]
            if row == col == 0:
                np.copyto(out, tap)
            else:
                out += tap
    return out


def conv2d_padded(
    x_padded: np.ndarray, weight: np.ndarray, stride: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Bias-free convolution of an already padded array.

    Stride-1 layers with ``C_out < C_in`` fold first (:func:`_conv_fold_first`);
    every other layer takes the textbook im2col form.  ``out`` receives the
    result when given.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    if stride == 1 and out_channels < in_channels:
        return _conv_fold_first(x_padded, weight, out)
    batch, _, height, width = x_padded.shape
    # matmul broadcasts (O, F) @ (N, F, P) -> (N, O, P) straight into
    # batched GEMM; unlike einsum there is no per-call path search, which
    # matters when serving many small maps.
    output = kernels.matmul(
        weight.reshape(out_channels, -1), _unfold(x_padded, kernel, stride)
    ).reshape(
        batch, out_channels, (height - kernel) // stride + 1, (width - kernel) // stride + 1
    )
    if out is None:
        return output
    np.copyto(out, output)
    return out


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
    return grad_weight, grad_padded


def saved_once(ctx: Context, name: str) -> tuple:
    """``ctx.saved`` for the one backward pass a node allows; a second one raises.

    The node lets go of its saved buffers, so the first backward pass frees
    each one as soon as it is consumed.
    """
    if ctx.attrs.get("workspace_freed"):
        raise RuntimeError(
            f"cannot backpropagate through the same {name} twice: "
            "its saved workspaces were freed by the first backward pass"
        )
    saved, ctx.saved = ctx.saved, ()
    ctx.attrs["workspace_freed"] = True
    return saved


def conv2d_gradients(
    grad, x_padded, weight, stride: int, padding: int, padding_mode: str, needs_input: bool = True
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Weight and input gradients of a convolution, from its padded input.

    Stride-1 layers with ``C_out <= C_in`` differentiate through
    :func:`_mirrored_gradients`; every other layer re-unfolds the padded
    input for its weight gradient and folds the input gradient with
    ``col2im``.  The input gradient is ``None`` unless ``needs_input``.
    """
    out_channels, in_channels, kernel, _ = weight.shape
    if stride == 1 and out_channels <= in_channels:
        grad_weight, grad_padded = _mirrored_gradients(grad, x_padded, weight, needs_input)
    else:
        grad_flat = grad.reshape(grad.shape[0], out_channels, -1)  # (N, O, OH*OW)
        # (N, O, P) x (N, P, F) batched GEMM summed over the batch — same
        # contraction as einsum("nop,nfp->of") without the per-call path search.
        grad_weight = kernels.matmul(
            grad_flat, _unfold(x_padded, kernel, stride).swapaxes(1, 2)
        ).sum(axis=0)
        grad_weight = grad_weight.reshape(weight.shape)
        grad_padded = None
        if needs_input:
            # Plain matmul (no out=) — numpy's out= variant takes a slower
            # buffered path.
            grad_columns = kernels.matmul(weight.reshape(out_channels, -1).T, grad_flat)
            grad_padded = kernels.col2im(grad_columns, x_padded.shape, kernel, stride)
            del grad_columns  # freed before the unpad copy
    if grad_padded is None:
        return grad_weight, None
    return grad_weight, unpad_gradient(grad_padded, padding, padding_mode)


class Conv2dFunction(Function):
    """2-D convolution (NCHW) with stride, padding and padding-mode support.

    A recording forward keeps only the padded input, which its backward pass
    frees; :func:`conv2d_gradients` derives both gradients from it, never
    from the ``k*k`` times larger unfolded columns.
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
        if x.ndim != 4 or x.shape[1] != weight.shape[1]:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight shape {weight.shape}"
            )
        x_padded = pad_input(x, padding, padding_mode)
        output = conv2d_padded(x_padded, weight, stride)
        if bias is not None:
            output += bias.reshape(1, -1, 1, 1)
        if grad_enabled():
            ctx.save(x_padded, weight)
        ctx.attrs.update(
            stride=stride, padding=padding, padding_mode=padding_mode, has_bias=bias is not None
        )
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x_padded, weight = saved_once(ctx, "convolution")
        stride, padding = ctx.attrs["stride"], ctx.attrs["padding"]
        padding_mode = ctx.attrs["padding_mode"]
        # Nobody consumes the input gradient of first-layer convolutions on
        # the minibatch itself — skip it entirely.
        grad_weight, grad_x = conv2d_gradients(
            grad, x_padded, weight, stride, padding, padding_mode, ctx.needs_input_grad[0]
        )
        grad_bias = grad.sum(axis=(0, 2, 3)) if ctx.attrs["has_bias"] else None
        return grad_x, grad_weight, grad_bias


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


def subpixel_plan(
    input_shape: tuple[int, ...],
    kernel: int,
    stride: int,
    padding: int,
    output_size: Optional[tuple[int, int]] = None,
) -> tuple[list[int], np.ndarray, tuple[int, int, int, int], tuple[int, int]]:
    """Geometry of a sub-pixel transposed convolution of ``(N, C, H, W)`` maps.

    ``output_size`` ``(OH, OW)`` crops the natural output
    (:func:`conv_transpose_output_size`) to its top-left ``OH x OW``
    corner; it must lie between 1 and the natural size.  Returns the window
    offsets and tap table of :func:`_subpixel_taps`, the ``(top, bottom,
    left, right)`` zero padding the input needs for every kept phase
    window to exist, and the output size.
    """
    in_h, in_w = input_shape[2], input_shape[3]
    natural = (
        conv_transpose_output_size(in_h, kernel, stride, padding),
        conv_transpose_output_size(in_w, kernel, stride, padding),
    )
    out_h, out_w = natural if output_size is None else (int(output_size[0]), int(output_size[1]))
    if not (1 <= out_h <= natural[0] and 1 <= out_w <= natural[1]):
        raise ValueError(
            f"output_size {output_size} must lie between 1 and the natural size {natural}"
        )
    offsets, taps = _subpixel_taps(kernel, stride, padding)
    front = taps.shape[1] - 1
    # Pad behind far enough that every phase's last kept window exists.
    pad_h = max(0, max(offsets) + -(-out_h // stride) - in_h)
    pad_w = max(0, max(offsets) + -(-out_w // stride) - in_w)
    return offsets, taps, (front, pad_h, front, pad_w), (out_h, out_w)


def subpixel_phases(x_padded: np.ndarray, weight: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Every output phase of a transposed convolution over its zero-padded input.

    One unfold of ``window``-wide stride-1 windows and one GEMM against
    :func:`_subpixel_weights`; returns ``(N, s, s, C_out, P, Q)``, phase
    ``(row, col)`` of output pixel ``(q * s + row, r * s + col)`` at
    ``[:, row, col, :, q + offsets[row], r + offsets[col]]``.  The array is
    a fresh GEMM result the caller owns (bias and activation may go in place).
    """
    stride, window = taps.shape
    batch, _, height, width = x_padded.shape
    phases = kernels.matmul(_subpixel_weights(weight, taps), _unfold(x_padded, window, 1))
    return phases.reshape(
        batch, stride, stride, weight.shape[1], height - window + 1, width - window + 1
    )


def write_phases(phase_maps: np.ndarray, offsets: list[int], out: np.ndarray) -> np.ndarray:
    """Interleave :func:`subpixel_phases` into ``out`` ``(N, C_out, OH, OW)``.

    Every output pixel belongs to exactly one phase, so ``out`` (a fresh
    array or the interior of a pre-padded workspace) needs no zero fill, and
    phases past ``OH x OW`` are never read.
    """
    stride = phase_maps.shape[1]
    out_h, out_w = out.shape[2], out.shape[3]
    for row in range(stride):
        rows = slice(offsets[row], offsets[row] + len(range(row, out_h, stride)))
        for col in range(stride):
            cols = slice(offsets[col], offsets[col] + len(range(col, out_w, stride)))
            out[:, :, row::stride, col::stride] = phase_maps[:, row, col, :, rows, cols]
    return out


def transposed_gradients(
    grad, x, weight, stride: int, padding: int, needs_input: bool
) -> tuple[Optional[np.ndarray], np.ndarray]:
    """Input and weight gradients of a transposed convolution of ``x``: one unfold, two GEMMs."""
    in_channels, out_channels, kernel, _ = weight.shape
    batch, _, in_h, in_w = x.shape
    # A cropped output's gradient is zero past the crop: pad it behind out
    # to the natural size, so the unfold sees every input pixel.
    extra_h = conv_transpose_output_size(in_h, kernel, stride, padding) - grad.shape[2]
    extra_w = conv_transpose_output_size(in_w, kernel, stride, padding) - grad.shape[3]
    pads = (padding, padding + extra_h, padding, padding + extra_w)
    grad_columns = _unfold(pad_workspace(grad, pads, "zeros"), kernel, stride)  # (N, O*k*k, H*W)
    grad_x = None
    if needs_input:
        # Batched GEMM replacements for einsum("if,nfp->nip") — no per-call
        # contraction-path search.
        grad_x = kernels.matmul(weight.reshape(in_channels, -1), grad_columns).reshape(x.shape)
    x_flat = x.reshape(batch, in_channels, in_h * in_w)
    grad_weight = kernels.matmul(x_flat, grad_columns.swapaxes(1, 2)).sum(axis=0)
    return grad_x, grad_weight.reshape(weight.shape)


class ConvTranspose2dFunction(Function):
    """2-D transposed convolution (NCHW), the adjoint of :class:`Conv2dFunction`.

    Weight layout follows the PyTorch convention ``(C_in, C_out, k, k)``.
    Only zero padding is supported, matching the paper's deconvolution layers.
    The forward pass is the sub-pixel decomposition of :func:`_subpixel_taps`;
    ``output_size`` crops the output (see :func:`subpixel_plan`) by never
    computing the phases outside it, and the backward pass zero-extends the
    cropped gradient back to the natural size.
    """

    @staticmethod
    def forward(
        ctx: Context,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray] = None,
        stride: int = 1,
        padding: int = 0,
        output_size: Optional[tuple[int, int]] = None,
    ) -> np.ndarray:
        in_channels, out_channels, kernel, _ = weight.shape
        if x.ndim != 4 or x.shape[1] != in_channels:
            raise ValueError(
                f"input shape {x.shape} incompatible with weight shape {weight.shape}"
            )
        batch = x.shape[0]
        offsets, taps, pads, (out_h, out_w) = subpixel_plan(
            x.shape, kernel, stride, padding, output_size
        )
        phase_maps = subpixel_phases(pad_workspace(x, pads, "zeros"), weight, taps)
        output = np.empty((batch, out_channels, out_h, out_w), dtype=phase_maps.dtype)
        write_phases(phase_maps, offsets, output)
        if bias is not None:
            output += bias.reshape(1, -1, 1, 1)
        if grad_enabled():
            ctx.save(x, weight)
        ctx.attrs.update(stride=stride, padding=padding, has_bias=bias is not None)
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        x, weight = ctx.saved
        grad_x, grad_weight = transposed_gradients(
            grad, x, weight, ctx.attrs["stride"], ctx.attrs["padding"], ctx.needs_input_grad[0]
        )
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
    output_size: Optional[tuple[int, int]] = None,
) -> Tensor:
    """Functional 2-D transposed convolution on :class:`Tensor` inputs.

    ``output_size`` ``(OH, OW)``, at most the natural size, returns the
    top-left crop of the output without computing what the crop drops.
    """
    inputs = (x, weight) if bias is None else (x, weight, bias)
    return ConvTranspose2dFunction.apply(
        *inputs, stride=stride, padding=padding, output_size=output_size
    )
