"""The three subnets of the worst-case noise prediction model (Sec. 3.4).

* :class:`DistanceReductionNet` — U-Net-like encoder/decoder that squeezes
  the ``B``-channel distance tensor down to a single reduced distance map
  (Sec. 3.4.1).
* :class:`CurrentFusionNet` — a small 4-layer encoder/decoder applied to each
  (compressed) current map independently; the temporal reduction to
  ``I_max`` / ``I_mean`` / ``I_msd`` happens in the parent model (Sec. 3.4.2).
* :class:`NoisePredictionNet` — U-Net-like network mapping the concatenated
  ``4 x m x n`` feature tensor to the predicted worst-case noise map
  (Sec. 3.4.3).

Following the paper, convolution layers use replication padding and ReLU,
deconvolution (transposed-convolution) layers use zero padding, downsampling
and upsampling layers use stride 2 and are each followed by a stride-1
convolution, skip connections join same-size encoder/decoder features, and
the output layer has a single kernel and no activation.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Conv2d, ConvTranspose2d, Module, ReLU, Sequential, Tensor, as_tensor, cat
from repro.nn.conv import (
    conv2d_gradients,
    conv2d_padded,
    fill_halo,
    halo_workspace,
    pad_workspace,
    saved_once,
    subpixel_phases,
    subpixel_plan,
    transposed_gradients,
    write_phases,
)
from repro.nn.tensor import Context, Function, grad_enabled
from repro.utils.random import ensure_rng

#: Byte budget of one block of the fusion subnet, inference and training
#: alike: the bytes its widest activation (the decoder's hidden maps with
#: their one-pixel halo) may take.  1.5 MiB keeps a block's working set near
#: a 2 MiB L2 cache; a float32 map is half the bytes, so a float32 block
#: holds twice the maps.
FUSION_BLOCK_BYTES = 3 << 19


def _conv(in_channels: int, out_channels: int, kernel: int, stride: int, seed) -> Conv2d:
    """Stride-``stride`` convolution with replication padding (paper's choice)."""
    return Conv2d(
        in_channels,
        out_channels,
        kernel_size=kernel,
        stride=stride,
        padding=kernel // 2,
        padding_mode="replicate",
        seed=seed,
    )


def _deconv(in_channels: int, out_channels: int, seed) -> ConvTranspose2d:
    """Stride-2 transposed convolution with zero padding (paper's choice)."""
    return ConvTranspose2d(
        in_channels, out_channels, kernel_size=4, stride=2, padding=1, seed=seed
    )


class EncoderDecoder(Module):
    """A U-Net-like encoder/decoder with skip connections.

    Parameters
    ----------
    in_channels / out_channels:
        Channel counts of the input tensor and the (single-kernel) output.
    hidden_channels:
        Kernels per internal layer (``C1``/``C3`` in the paper).
    depth:
        Number of downsampling (and matching upsampling) levels.
    kernel_size:
        Square kernel size of all stride-1 convolutions.
    seed:
        Weight-initialisation seed.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        hidden_channels: int,
        depth: int = 2,
        kernel_size: int = 3,
        seed: int = 0,
    ):
        super().__init__()
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        rng = ensure_rng(seed)
        self.depth = depth

        self.input_conv = _conv(in_channels, hidden_channels, kernel_size, 1, rng)
        self.input_relu = ReLU()

        self._down_samplers: list[Sequential] = []
        self._up_samplers: list[ConvTranspose2d] = []
        self._up_refiners: list[Sequential] = []
        for level in range(depth):
            down = Sequential(
                _conv(hidden_channels, hidden_channels, kernel_size, 2, rng),
                ReLU(),
                _conv(hidden_channels, hidden_channels, kernel_size, 1, rng),
                ReLU(),
            )
            self._down_samplers.append(down)
            setattr(self, f"down{level}", down)
        for level in range(depth):
            up = _deconv(hidden_channels, hidden_channels, rng)
            refine = Sequential(
                # The refine conv sees the upsampled features concatenated
                # with the same-size skip features.
                _conv(2 * hidden_channels, hidden_channels, kernel_size, 1, rng),
                ReLU(),
            )
            self._up_samplers.append(up)
            self._up_refiners.append(refine)
            setattr(self, f"up{level}", up)
            setattr(self, f"refine{level}", refine)
        self.output_conv = _conv(hidden_channels, out_channels, kernel_size, 1, rng)

    def forward(self, x: Tensor) -> Tensor:
        """Encode-decode one ``(N, C_in, m, n)`` batch to ``(N, C_out, m, n)``."""
        features = self.input_relu(self.input_conv(x))
        skips: list[Tensor] = [features]
        for down in self._down_samplers:
            features = down(features)
            skips.append(features)

        # The deepest feature map is both the last skip and the decoder input.
        skips.pop()
        for up, refine in zip(self._up_samplers, self._up_refiners):
            skip = skips.pop()
            # Upsampled maps can overshoot an odd skip size by one; the
            # deconv never computes the overshoot.
            upsampled = up(features, output_size=skip.shape[2:]).relu()
            features = refine(cat([upsampled, skip], axis=1))
        return self.output_conv(features)


class DistanceReductionNet(Module):
    """Distance-dimension-reduction subnet (Sec. 3.4.1).

    Maps the normalised distance tensor ``(1, B, m, n)`` to the reduced
    single-channel map ``(1, 1, m, n)``.
    """

    def __init__(self, num_bumps: int, hidden_channels: int = 8, depth: int = 2, kernel_size: int = 3, seed: int = 0):
        super().__init__()
        if num_bumps < 1:
            raise ValueError(f"num_bumps must be >= 1, got {num_bumps}")
        self.num_bumps = num_bumps
        self.network = EncoderDecoder(
            in_channels=num_bumps,
            out_channels=1,
            hidden_channels=hidden_channels,
            depth=depth,
            kernel_size=kernel_size,
            seed=seed,
        )

    def forward(self, distance: Tensor) -> Tensor:
        """Reduce a ``(N, B, m, n)`` distance tensor to ``(N, 1, m, n)``."""
        if distance.ndim != 4 or distance.shape[1] != self.num_bumps:
            raise ValueError(
                f"distance tensor must have shape (N, {self.num_bumps}, m, n), got {distance.shape}"
            )
        return self.network(distance)


class CurrentFusionNet(Module):
    """Current-map-fusion subnet (Sec. 3.4.2).

    A small 4-layer encoder/decoder applied to every retained time stamp
    independently (the stamps are treated as a batch, so the subnet handles
    vectors of any length with shared weights).  The input has one channel;
    the output is again a single-channel map per stamp.

    The layers run as one :class:`FusionFunction`: one loop over blocks of
    :meth:`block_size` stamps whose activations carry their padding halo,
    and a hand-written adjoint that walks each block's layers in reverse.
    A recording forward keeps each block's halo buffers for the adjoint;
    the maps are the same to the bit with or without ``no_grad``.
    """

    def __init__(self, hidden_channels: int = 8, kernel_size: int = 3, seed: int = 0):
        super().__init__()
        rng = ensure_rng(seed)
        self.encoder = Sequential(
            _conv(1, hidden_channels, kernel_size, 2, rng),
            ReLU(),
            _conv(hidden_channels, hidden_channels, kernel_size, 1, rng),
            ReLU(),
        )
        self.decoder_up = _deconv(hidden_channels, hidden_channels, rng)
        self.decoder_out = _conv(hidden_channels, 1, kernel_size, 1, rng)

    def block_size(self, height: int, width: int, dtype) -> int:
        """Maps per block (at least one) under :data:`FUSION_BLOCK_BYTES`.

        The budget is divided by one map's widest activation: the decoder's
        hidden maps with their halo, at ``dtype``'s item size.
        """
        head = self.decoder_out
        per_map = (
            head.in_channels
            * (height + 2 * head.padding)
            * (width + 2 * head.padding)
            * np.dtype(dtype).itemsize
        )
        return max(1, FUSION_BLOCK_BYTES // per_map)

    def forward(self, current_maps: Tensor) -> Tensor:
        """Map per-stamp maps ``(T, 1, m, n)`` to per-stamp responses ``(T, 1, m, n)``."""
        current_maps = as_tensor(current_maps)
        if current_maps.ndim != 4 or current_maps.shape[1] != 1 or len(current_maps) == 0:
            raise ValueError(
                f"current maps must have shape (T, 1, m, n) with T >= 1, got {current_maps.shape}"
            )
        down, _, refine, _ = self.encoder
        layers = (down, refine, self.decoder_up, self.decoder_out)
        parameters = [tensor for layer in layers for tensor in (layer.weight, layer.bias)]
        dtype = np.result_type(current_maps.data, *(tensor.data for tensor in parameters))
        _, _, height, width = current_maps.shape
        return FusionFunction.apply(
            current_maps, *parameters, layers=layers, step=self.block_size(height, width, dtype)
        )


class FusionFunction(Function):
    """The fusion subnet's four layers over blocks of ``step`` stamps, with their adjoint.

    Inputs: the ``(T, 1, m, n)`` maps, then the weight and bias of each of
    ``layers`` (input conv, refine conv, deconvolution, output conv; only
    their geometry is read).  Every op works per map (a batched GEMM runs
    one GEMM per item), so blocking changes no map; the adjoint sums the
    weight and bias gradients block by block, which only reassociates them.
    """

    @staticmethod
    def forward(ctx: Context, maps: np.ndarray, *parameters, layers, step: int) -> np.ndarray:
        """Run the blocks; every activation carries its halo.

        A producer writes bias and ReLU straight into the interior of the
        next layer's pre-padded buffer and only the ring is filled — edge
        copies ahead of a convolution, zeros ahead of the deconvolution,
        whose bias and ReLU go onto its own phase array before the phases
        land in place.  Under ``no_grad`` a block's buffers are freed when
        the next block replaces them; a recording forward keeps them for
        backward.
        """
        down, refine, up, head = layers
        down_w, down_b, refine_w, refine_b, up_w, up_b, head_w, head_b = parameters
        total, _, height, width = maps.shape
        output = np.empty(
            (total, head.out_channels, height, width), dtype=np.result_type(maps, *parameters)
        )
        halo = (head.padding,) * 4  # the refine and output convs pad alike
        blocks = []
        for start in range(0, total, step):
            stamps = slice(start, start + step)
            padded = pad_workspace(maps[stamps], (down.padding,) * 4, down.padding_mode)
            hidden = conv2d_padded(padded, down_w, down.stride)
            downsampled = _relu_into_halo(hidden, down_b, halo, refine.padding_mode)
            hidden = conv2d_padded(downsampled, refine_w, refine.stride)
            offsets, taps, pads, _ = subpixel_plan(
                hidden.shape, up.kernel_size, up.stride, up.padding, (height, width)
            )
            refined = _relu_into_halo(hidden, refine_b, pads, "zeros")
            phases = subpixel_phases(refined, up_w, taps)  # (n, s, s, C, P, Q)
            phases += up_b.reshape(1, 1, 1, -1, 1, 1)
            np.maximum(phases, 0, out=phases)
            upsampled, interior = halo_workspace(
                (phases.shape[0], phases.shape[3], height, width), halo, output.dtype
            )
            write_phases(phases, offsets, interior)
            fill_halo(upsampled, halo, head.padding_mode)
            block = conv2d_padded(upsampled, head_w, head.stride, out=output[stamps])
            block += head_b.reshape(1, -1, 1, 1)
            if grad_enabled():
                blocks.append((stamps, padded, downsampled, refined, upsampled))
        ctx.save(*blocks)
        ctx.attrs.update(layers=layers, parameters=parameters, pads=pads, maps=maps)
        return output

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray):
        """Walk each block's layers in reverse, dropping its buffers once consumed."""
        blocks = list(saved_once(ctx, "fusion subnet"))
        down, refine, up, head = ctx.attrs["layers"]
        pads, maps, parameters = ctx.attrs["pads"], ctx.attrs["maps"], ctx.attrs["parameters"]
        down_w, _, refine_w, _, up_w, _, head_w, _ = parameters
        halo = (head.padding,) * 4
        # The maps are usually the minibatch itself: fold no input gradient then.
        needs_input = ctx.needs_input_grad[0]
        grad_maps = np.empty_like(maps) if needs_input else None
        totals = [np.zeros_like(parameter) for parameter in parameters]
        while blocks:
            stamps, padded, downsampled, refined, upsampled = blocks.pop()
            grad_head = grad[stamps]
            head_dw, grad_up = conv2d_gradients(
                grad_head, upsampled, head_w, head.stride, head.padding, head.padding_mode
            )
            grad_up = _relu_adjoint(grad_up, upsampled, halo)
            grad_refine, up_dw = transposed_gradients(
                grad_up, _interior(refined, pads), up_w, up.stride, up.padding, True
            )
            grad_refine = _relu_adjoint(grad_refine, refined, pads)
            refine_dw, grad_down = conv2d_gradients(
                grad_refine, downsampled, refine_w, refine.stride, refine.padding, refine.padding_mode
            )
            grad_down = _relu_adjoint(grad_down, downsampled, halo)
            down_dw, grad_input = conv2d_gradients(
                grad_down, padded, down_w, down.stride, down.padding, down.padding_mode, needs_input
            )
            if needs_input:
                grad_maps[stamps] = grad_input
            for total, part in zip(totals[::2], (down_dw, refine_dw, up_dw, head_dw)):
                total += part
            # A bias gradient sums its layer's output gradient.
            for total, part in zip(totals[1::2], (grad_down, grad_refine, grad_up, grad_head)):
                total += part.sum(axis=(0, 2, 3))
        return (grad_maps, *totals)


def _interior(buffer: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    """The interior view of a pre-padded NCHW buffer."""
    top, bottom, left, right = pads
    return buffer[:, :, top : buffer.shape[2] - bottom, left : buffer.shape[3] - right]


def _relu_adjoint(grad: np.ndarray, activation: np.ndarray, pads) -> np.ndarray:
    """Mask ``grad`` in place by a saved post-ReLU interior."""
    grad *= _interior(activation, pads) > 0
    return grad


def _relu_into_halo(
    raw: np.ndarray, bias: np.ndarray, pads: tuple[int, int, int, int], mode: str
) -> np.ndarray:
    """``relu(raw + bias)`` written into a pre-padded buffer, ring filled."""
    buffer, interior = halo_workspace(raw.shape, pads, raw.dtype)
    np.add(raw, bias.reshape(1, -1, 1, 1), out=interior)
    np.maximum(interior, 0, out=interior)
    fill_halo(buffer, pads, mode)
    return buffer


class NoisePredictionNet(Module):
    """Worst-case noise prediction subnet (Sec. 3.4.3).

    Consumes the ``4 x m x n`` concatenation of the reduced distance map and
    the three fused current statistics, and outputs the predicted noise map.
    """

    def __init__(self, hidden_channels: int = 16, depth: int = 2, kernel_size: int = 3, seed: int = 0):
        super().__init__()
        self.network = EncoderDecoder(
            in_channels=4,
            out_channels=1,
            hidden_channels=hidden_channels,
            depth=depth,
            kernel_size=kernel_size,
            seed=seed,
        )

    def forward(self, features: Tensor) -> Tensor:
        """Predict ``(N, 1, m, n)`` noise maps from the ``(N, 4, m, n)`` features."""
        if features.ndim != 4 or features.shape[1] != 4:
            raise ValueError(f"features must have shape (N, 4, m, n), got {features.shape}")
        return self.network(features)
