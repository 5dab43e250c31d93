"""The complete worst-case dynamic PDN noise prediction model (Fig. 3).

:class:`WorstCaseNoiseNet` wires the three subnets together:

1. the distance tensor ``(B, m, n)`` is reduced to a single-channel map,
2. each retained current map is passed through the (weight-shared) fusion
   subnet, and the per-tile statistics ``I_max``, ``I_mean`` and ``I_msd``
   are taken over the time axis,
3. the four maps are concatenated and the noise-prediction subnet produces
   the worst-case noise map ``V in R^{m x n}``.

The whole noise map of a design is produced with a single forward pass —
this "one-time execution" property is the paper's main efficiency argument
against tile-by-tile approaches such as PowerNet.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import ModelConfig
from repro.core.subnets import CurrentFusionNet, DistanceReductionNet, NoisePredictionNet
from repro.nn import Module, Tensor, as_tensor, cat

ArrayOrTensor = Union[np.ndarray, Tensor]

#: A batch of test vectors: either a dense ``(N, T, m, n)`` stack (all vectors
#: share the stamp count) or a sequence of ``(T_i, m, n)`` ragged stacks.
CurrentBatch = Union[ArrayOrTensor, Sequence[ArrayOrTensor]]


class WorstCaseNoiseNet(Module):
    """Three-subnet CNN predicting the worst-case dynamic noise map.

    Parameters
    ----------
    num_bumps:
        Number of power bumps ``B`` (input channels of the distance subnet).
    config:
        Architecture hyper-parameters (``C1``, ``C2``, ``C3``, depths).
    """

    def __init__(self, num_bumps: int, config: ModelConfig = ModelConfig()):
        super().__init__()
        self.config = config
        self.num_bumps = num_bumps
        self.distance_subnet = DistanceReductionNet(
            num_bumps=num_bumps,
            hidden_channels=config.distance_kernels,
            depth=config.distance_depth,
            kernel_size=config.kernel_size,
            seed=config.seed,
        )
        self.fusion_subnet = CurrentFusionNet(
            hidden_channels=config.fusion_kernels,
            kernel_size=config.kernel_size,
            seed=config.seed + 1,
        )
        self.prediction_subnet = NoisePredictionNet(
            hidden_channels=config.prediction_kernels,
            depth=config.prediction_depth,
            kernel_size=config.kernel_size,
            seed=config.seed + 2,
        )

    # ------------------------------------------------------------------ #
    # forward pieces
    # ------------------------------------------------------------------ #

    def reduce_distance(self, distance: ArrayOrTensor) -> Tensor:
        """Reduced distance map ``(1, 1, m, n)`` from a ``(B, m, n)`` tensor."""
        tensor = as_tensor(distance)
        if tensor.ndim != 3:
            raise ValueError(f"distance must have shape (B, m, n), got {tensor.shape}")
        batched = tensor.reshape(1, *tensor.shape)
        return self.distance_subnet(batched)

    def fuse_currents(self, current_maps: ArrayOrTensor) -> Tensor:
        """Fused current statistics ``(1, 3, m, n)`` from ``(T, m, n)`` maps.

        The fusion subnet runs on every stamp with shared weights; the
        statistics (max, (max+min)/2, mu+3sigma) are taken across stamps.
        """
        tensor = as_tensor(current_maps)
        if tensor.ndim != 3:
            raise ValueError(f"current maps must have shape (T, m, n), got {tensor.shape}")
        num_steps, height, width = tensor.shape
        as_batch = tensor.reshape(num_steps, 1, height, width)
        fused = self.fusion_subnet(as_batch)  # (T, 1, m, n)
        # Single source of truth for the statistics formulas: the same helper
        # serves the batched path, so forward() and forward_batch() can never
        # drift apart.
        return self._temporal_statistics(
            fused.reshape(1, num_steps, height, width), axis=1
        )

    def fuse_currents_batch(self, current_maps: CurrentBatch) -> Tensor:
        """Fused current statistics ``(N, 3, m, n)`` for a batch of vectors.

        Accepts either a dense ``(N, T, m, n)`` array (every vector retains
        the same number of stamps) or a sequence of ``(T_i, m, n)`` stacks
        (ragged batch, e.g. per-vector Algorithm-1 compression).  All stamps
        of all vectors go through the weight-shared fusion subnet in one call,
        which runs them in cache-sized blocks regardless of vector edges; the
        temporal statistics are then reduced per vector.
        """
        tensors, lengths = self._coerce_current_batch(current_maps)
        height, width = tensors[0].shape[1], tensors[0].shape[2]
        flat = tensors[0] if len(tensors) == 1 else cat(tensors, axis=0)
        total = flat.shape[0]
        fused = self.fusion_subnet(flat.reshape(total, 1, height, width))
        fused = fused.reshape(total, height, width)

        if len(set(lengths)) == 1:
            # Uniform stamp counts: reduce along the stamp axis vectorized.
            per_vector = fused.reshape(len(lengths), lengths[0], height, width)
            return self._temporal_statistics(per_vector, axis=1)
        # Ragged batch: bucket vectors by stamp count so each bucket still
        # reduces vectorized, then restore the submission order.
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        buckets: dict[int, list[int]] = {}
        for index, length in enumerate(lengths):
            buckets.setdefault(length, []).append(index)
        pieces = []
        order: list[int] = []
        for length, indices in buckets.items():
            rows = np.concatenate(
                [np.arange(offsets[i], offsets[i] + length) for i in indices]
            )
            segment = fused[rows]
            stats = self._temporal_statistics(
                segment.reshape(len(indices), length, height, width), axis=1
            )
            pieces.append(stats)
            order.extend(indices)
        stacked = pieces[0] if len(pieces) == 1 else cat(pieces, axis=0)
        if order == sorted(order):
            return stacked
        return stacked[np.argsort(order)]

    @staticmethod
    def _temporal_statistics(per_vector: Tensor, axis: int) -> Tensor:
        """``I_max`` / ``I_mean`` / ``I_msd`` along ``axis``, stacked as channels."""
        maximum = per_vector.max(axis=axis, keepdims=True)
        minimum = per_vector.min(axis=axis, keepdims=True)
        mean = per_vector.mean(axis=axis, keepdims=True)
        std = per_vector.std(axis=axis, keepdims=True)
        i_max = maximum
        i_mean = 0.5 * (maximum + minimum)
        i_msd = mean + 3.0 * std
        return cat([i_max, i_mean, i_msd], axis=axis)

    def _coerce_current_batch(self, current_maps: CurrentBatch) -> tuple[list[Tensor], list[int]]:
        """Normalise a batch argument into per-vector tensors plus lengths."""
        if isinstance(current_maps, (Tensor, np.ndarray)):
            tensor = as_tensor(current_maps)
            if tensor.ndim != 4:
                raise ValueError(
                    f"batched current maps must have shape (N, T, m, n), got {tensor.shape}"
                )
            batch, num_steps, height, width = tensor.shape
            return [tensor.reshape(batch * num_steps, height, width)], [num_steps] * batch
        tensors = [as_tensor(maps) for maps in current_maps]
        if not tensors:
            raise ValueError("current-map batch is empty")
        for tensor in tensors:
            if tensor.ndim != 3:
                raise ValueError(
                    f"each vector's current maps must have shape (T, m, n), got {tensor.shape}"
                )
            if tensor.shape[1:] != tensors[0].shape[1:]:
                raise ValueError(
                    "all vectors in a batch must share the tile shape; got "
                    f"{tensor.shape[1:]} and {tensors[0].shape[1:]}"
                )
        return tensors, [tensor.shape[0] for tensor in tensors]

    def forward_batch(
        self,
        current_maps: CurrentBatch,
        distance: ArrayOrTensor,
        reduced_distance: Optional[ArrayOrTensor] = None,
    ) -> Tensor:
        """Predict (normalised) noise maps for N vectors in one pass, ``(N, m, n)``.

        The distance tensor is shared by the whole batch (all vectors excite
        the same design), so the distance subnet runs exactly once and its
        reduced map is broadcast across the batch — unlike N calls of
        :meth:`forward`, which would re-reduce it every time.  Serving layers
        that predict for a fixed design over and over can precompute
        ``reduced_distance`` (the :meth:`reduce_distance` output,
        ``(1, 1, m, n)``) and skip even that single reduction.

        The pass is fully gradient-capable: every op on the path (including
        the ragged length-bucketing gather and the distance broadcast) has a
        registered adjoint, so the batched training engine pushes a whole
        minibatch through this method as **one** autograd graph per step —
        the same code serving runs under ``no_grad``.  Training must pass
        ``distance`` (not a cached ``reduced_distance``) so gradients reach
        the distance subnet's weights.
        """
        fused_currents = self.fuse_currents_batch(current_maps)  # (N, 3, m, n)
        batch, _, height, width = fused_currents.shape
        if reduced_distance is None:
            reduced_distance = self.reduce_distance(distance)  # (1, 1, m, n)
        else:
            reduced_distance = as_tensor(reduced_distance)
        reduced_distance = reduced_distance.broadcast_to(batch, 1, height, width)
        features = cat([fused_currents, reduced_distance], axis=1)  # (N, 4, m, n)
        prediction = self.prediction_subnet(features)  # (N, 1, m, n)
        return prediction.reshape(batch, height, width)

    def forward(self, current_maps: ArrayOrTensor, distance: ArrayOrTensor) -> Tensor:
        """Predict the (normalised) worst-case noise map, shape ``(m, n)``.

        Parameters
        ----------
        current_maps:
            Normalised, temporally compressed current maps ``(T, m, n)``.
        distance:
            Normalised distance tensor ``(B, m, n)``.
        """
        reduced_distance = self.reduce_distance(distance)  # (1, 1, m, n)
        fused_currents = self.fuse_currents(current_maps)  # (1, 3, m, n)
        features = cat([fused_currents, reduced_distance], axis=1)  # (1, 4, m, n)
        prediction = self.prediction_subnet(features)  # (1, 1, m, n)
        height, width = prediction.shape[2], prediction.shape[3]
        return prediction.reshape(height, width)

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #

    def architecture_summary(self) -> dict:
        """Parameter counts per subnet (useful for logging and tests)."""
        return {
            "distance_subnet": self.distance_subnet.num_parameters(),
            "fusion_subnet": self.fusion_subnet.num_parameters(),
            "prediction_subnet": self.prediction_subnet.num_parameters(),
            "total": self.num_parameters(),
        }
