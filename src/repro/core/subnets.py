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
    conv2d_padded,
    fill_halo,
    halo_workspace,
    pad_workspace,
    subpixel_phases,
    subpixel_plan,
    write_phases,
)
from repro.nn.kernels import release_workspace
from repro.nn.tensor import grad_enabled
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

    The stamps run in blocks of :meth:`block_size` maps: under ``no_grad``
    through the fused loop of :meth:`_forward_blocks`, with a recorded graph
    through the layers, one graph per block, whose outputs are concatenated.
    Both give the same maps to the bit; a backward pass sums the weight and
    bias gradients block by block, which only reassociates the batch sums.
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
        if current_maps.ndim != 4 or current_maps.shape[1] != 1:
            raise ValueError(
                f"current maps must have shape (T, 1, m, n), got {current_maps.shape}"
            )
        if not grad_enabled():
            return Tensor(self._forward_blocks(current_maps.data))
        total, _, height, width = current_maps.shape
        step = self.block_size(height, width, self._result_dtype(current_maps.data))
        blocks = []
        for start in range(0, total, step):
            # Slicing a non-grad input records no node, so the first layer
            # still skips its input gradient.
            encoded = self.encoder(current_maps[start : start + step])
            upsampled = self.decoder_up(encoded, output_size=(height, width)).relu()
            blocks.append(self.decoder_out(upsampled))
        return blocks[0] if len(blocks) == 1 else cat(blocks, axis=0)

    def _result_dtype(self, maps: np.ndarray) -> np.dtype:
        """The dtype the layers compute in: ``maps`` promoted with the weights."""
        return np.result_type(maps, *(parameter.data for parameter in self.parameters()))

    def _forward_blocks(self, maps: np.ndarray) -> np.ndarray:
        """The inference forward, one cache-sized block of stamps at a time.

        Every op works per map (a batched GEMM runs one GEMM per item), so
        blocking changes no sum.  Within a block each activation carries its
        halo: the producer writes bias and ReLU straight into the interior
        of the next layer's pooled pre-padded workspace and only the ring is
        filled — edge copies ahead of a convolution, zeros ahead of the
        deconvolution, whose bias and ReLU go onto its own phase array
        before the phases land in place.  The workspaces are handed back
        after each block, so the next block reuses the same cache-warm
        buffers.
        """
        down, _, refine, _ = self.encoder
        up, head = self.decoder_up, self.decoder_out
        total, _, height, width = maps.shape
        dtype = self._result_dtype(maps)
        output = np.empty((total, head.out_channels, height, width), dtype=dtype)
        head_halo = (head.padding,) * 4
        step = self.block_size(height, width, dtype)
        for start in range(0, total, step):
            stamps = slice(start, start + step)
            padded = pad_workspace(maps[stamps], (down.padding,) * 4, down.padding_mode)
            hidden = _relu_into_halo(
                conv2d_padded(padded, down.weight.data, down.stride),
                down.bias.data,
                (refine.padding,) * 4,
                refine.padding_mode,
            )
            release_workspace(padded)
            encoded = conv2d_padded(hidden, refine.weight.data, refine.stride)
            release_workspace(hidden)
            offsets, taps, pads, _ = subpixel_plan(
                encoded.shape, up.kernel_size, up.stride, up.padding, (height, width)
            )
            hidden = _relu_into_halo(encoded, refine.bias.data, pads, "zeros")
            phases = subpixel_phases(hidden, up.weight.data, taps)  # (n, s, s, C, P, Q)
            release_workspace(hidden)
            phases += up.bias.data.reshape(1, 1, 1, -1, 1, 1)
            np.maximum(phases, 0, out=phases)
            hidden, interior = halo_workspace(
                (phases.shape[0], phases.shape[3], height, width), head_halo, dtype
            )
            write_phases(phases, offsets, interior)
            fill_halo(hidden, head_halo, head.padding_mode)
            block = conv2d_padded(hidden, head.weight.data, head.stride, out=output[stamps])
            release_workspace(hidden)
            block += head.bias.data.reshape(1, -1, 1, 1)
        return output


def _relu_into_halo(
    raw: np.ndarray, bias: np.ndarray, pads: tuple[int, int, int, int], mode: str
) -> np.ndarray:
    """``relu(raw + bias)`` written into a pooled pre-padded workspace, ring filled."""
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
