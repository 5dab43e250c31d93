"""Feature extraction and normalisation (Sec. 3.3 of the paper).

Two features only, both cheap to obtain from the standard sign-off inputs:

* the **load-current tile maps** (the same excitation the commercial tool
  consumes, summed per tile), optionally temporally compressed by
  Algorithm 1, and
* the **distance-to-bump tensor** ``D in R^{B x m x n}`` — the Euclidean
  distance from every tile centre to every power bump.

This module also provides the per-design :class:`FeatureNormalizer` (the CNN
trains on normalised tensors, predictions are mapped back to volts) and the
closed-form per-tile current statistics (``I_max``, ``I_mean``, ``I_msd``)
used by ablations and baselines that skip the learned fusion subnet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.pdn.designs import Design
from repro.pdn.geometry import distance_to_bumps
from repro.features.spatial import load_current_maps
from repro.features.temporal import TemporalCompressionResult, compress_current_maps
from repro.sim.waveform import CurrentTrace
from repro.utils import check_positive


def distance_feature(design: Design) -> np.ndarray:
    """Distance-to-bump tensor ``D`` with shape ``(B, m, n)`` in um."""
    return distance_to_bumps(design.tile_grid, design.bump_locations)


def normalized_distance_feature(design: Design) -> np.ndarray:
    """Distance tensor scaled by the die diagonal (values in ``[0, ~1]``)."""
    diagonal = float(np.hypot(design.die.width, design.die.height))
    return distance_feature(design) / diagonal


def current_summary_maps(current_maps: np.ndarray) -> np.ndarray:
    """Closed-form per-tile current statistics, shape ``(3, m, n)``.

    Channel 0: maximum current over time (``I_max``); channel 1: mean of the
    maximum and minimum (``I_mean``); channel 2: ``mu + 3*sigma`` over time
    (``I_msd``) — the three statistics the current-map-fusion subnet produces
    (Sec. 3.4.2).  Useful as a non-learned stand-in for that subnet.
    """
    current_maps = np.asarray(current_maps, dtype=float)
    if current_maps.ndim != 3:
        raise ValueError(f"current_maps must have shape (T, m, n), got {current_maps.shape}")
    maximum = current_maps.max(axis=0)
    minimum = current_maps.min(axis=0)
    mean = current_maps.mean(axis=0)
    std = current_maps.std(axis=0)
    return np.stack([maximum, 0.5 * (maximum + minimum), mean + 3.0 * std])


@dataclass
class FeatureNormalizer:
    """Per-design scaling applied before the CNN and inverted afterwards.

    Attributes
    ----------
    current_scale:
        Divisor applied to current maps (A); chosen as a high percentile of
        the per-tile currents seen during training so maps land mostly in
        ``[0, 1]``.
    distance_scale:
        Divisor applied to the distance tensor (um); the die diagonal.
    noise_scale:
        Divisor applied to the target noise maps (V); a high percentile of
        the training worst-case noise.
    """

    current_scale: float = 1.0
    distance_scale: float = 1.0
    noise_scale: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.current_scale, "current_scale")
        check_positive(self.distance_scale, "distance_scale")
        check_positive(self.noise_scale, "noise_scale")

    def normalize_currents(self, maps: np.ndarray) -> np.ndarray:
        """Scale current maps into the network's input range.

        Shape-agnostic: works on a single ``(T, m, n)`` stack as well as on a
        batched ``(N, T, m, n)`` array.
        """
        return np.asarray(maps, dtype=float) / self.current_scale

    def normalize_current_batch(
        self, maps_batch: Union[np.ndarray, Sequence[np.ndarray]]
    ) -> Union[np.ndarray, list[np.ndarray]]:
        """Scale a batch of current-map stacks (leading sample dimension).

        Accepts a dense ``(N, T, m, n)`` array or a ragged sequence of
        ``(T_i, m, n)`` stacks; the return type mirrors the input.
        """
        if isinstance(maps_batch, np.ndarray):
            if maps_batch.ndim != 4:
                raise ValueError(
                    f"batched current maps must have shape (N, T, m, n), got {maps_batch.shape}"
                )
            return self.normalize_currents(maps_batch)
        return [self.normalize_currents(maps) for maps in maps_batch]

    def normalize_distance(self, tensor: np.ndarray) -> np.ndarray:
        """Scale the distance tensor into the network's input range."""
        return np.asarray(tensor, dtype=float) / self.distance_scale

    def normalize_noise(self, noise: np.ndarray) -> np.ndarray:
        """Scale a noise map (V) into the network's output range."""
        return np.asarray(noise, dtype=float) / self.noise_scale

    def denormalize_noise(self, noise: np.ndarray) -> np.ndarray:
        """Map a network output back to volts.

        Dtype-preserving for float inputs: a float32 serving pass yields a
        float32 noise map (the scale factor is a weak Python scalar), while
        non-float inputs are still coerced to float64.
        """
        noise = np.asarray(noise)
        if noise.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            noise = noise.astype(float)
        return noise * self.noise_scale

    def to_dict(self) -> dict:
        """Serialisable representation (stored with model checkpoints)."""
        return {
            "current_scale": self.current_scale,
            "distance_scale": self.distance_scale,
            "noise_scale": self.noise_scale,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FeatureNormalizer":
        """Rebuild a normaliser from :meth:`to_dict` output."""
        return cls(
            current_scale=float(payload["current_scale"]),
            distance_scale=float(payload["distance_scale"]),
            noise_scale=float(payload["noise_scale"]),
        )


def fit_normalizer(
    design: Design,
    current_map_stack: np.ndarray,
    noise_map_stack: Optional[np.ndarray] = None,
    percentile: float = 99.0,
) -> FeatureNormalizer:
    """Fit a :class:`FeatureNormalizer` from training data.

    Parameters
    ----------
    design:
        The design (sets the distance scale from the die diagonal).
    current_map_stack:
        Any stack of current tile maps (the percentile of its positive values
        becomes the current scale).
    noise_map_stack:
        Ground-truth noise maps; when omitted the noise scale falls back to
        20% of Vdd, a generous bound on realistic worst-case noise.
    percentile:
        Percentile used for the current/noise scales (robust to outliers).
    """
    current_values = np.asarray(current_map_stack, dtype=float).ravel()
    positive = current_values[current_values > 0]
    current_scale = float(np.percentile(positive, percentile)) if positive.size else 1.0
    if current_scale <= 0:
        current_scale = 1.0

    if noise_map_stack is not None:
        noise_values = np.asarray(noise_map_stack, dtype=float).ravel()
        noise_scale = float(np.percentile(noise_values, percentile))
        if noise_scale <= 0:
            noise_scale = 0.2 * design.spec.vdd
    else:
        noise_scale = 0.2 * design.spec.vdd

    return FeatureNormalizer(
        current_scale=current_scale,
        distance_scale=float(np.hypot(design.die.width, design.die.height)),
        noise_scale=noise_scale,
    )


@dataclass
class VectorFeatures:
    """Model-ready features extracted from one test vector.

    Attributes
    ----------
    current_maps:
        (Compressed) load-current tile maps, shape ``(T', m, n)``, in amperes
        (unnormalised — normalisation happens inside the predictor so the
        same features can be reused across models).
    compression:
        Bookkeeping from Algorithm 1 (None when compression was disabled).
    name:
        The originating trace name.
    """

    current_maps: np.ndarray
    compression: Optional[TemporalCompressionResult] = None
    name: str = ""

    @property
    def num_steps(self) -> int:
        """Number of retained time stamps."""
        return int(self.current_maps.shape[0])

    @property
    def tile_shape(self) -> tuple[int, int]:
        """Tile-map shape ``(m, n)``."""
        return self.current_maps.shape[1], self.current_maps.shape[2]

    def summary_maps(self) -> np.ndarray:
        """Closed-form ``(3, m, n)`` current statistics of the retained stamps."""
        return current_summary_maps(self.current_maps)


def extract_vector_features(
    trace: CurrentTrace,
    design: Design,
    compression_rate: Optional[float] = 0.3,
) -> VectorFeatures:
    """Spatially tile and temporally compress one test vector.

    Parameters
    ----------
    trace:
        The switching-current test vector.
    design:
        The design it excites.
    compression_rate:
        Algorithm-1 retention rate; ``None`` (or ``1.0``) disables temporal
        compression.
    """
    maps = load_current_maps(trace, design)
    return _features_from_maps(maps, trace.name, compression_rate)


def _features_from_maps(
    maps: np.ndarray,
    name: str,
    compression_rate: Optional[float],
) -> VectorFeatures:
    """Apply Algorithm-1 compression to pre-tiled maps of one vector."""
    if compression_rate is None or compression_rate >= 1.0:
        return VectorFeatures(current_maps=maps, compression=None, name=name)
    result = compress_current_maps(maps, compression_rate)
    return VectorFeatures(
        current_maps=result.compressed_maps, compression=result, name=name
    )


def extract_vector_features_batch(
    traces: Sequence[CurrentTrace],
    design: Design,
    compression_rate: Optional[float] = 0.3,
) -> list[VectorFeatures]:
    """Extract features for a batch of vectors sharing one design.

    Every trace is validated before any work starts; each is then tiled on
    its own (:func:`~repro.features.spatial.load_current_maps`, so its maps
    are bit-identical to :func:`extract_vector_features`) and temporally
    compressed, since Algorithm 1 ranks each vector's own time stamps.
    Tiling trace by trace keeps the working set to one trace's currents
    and maps on top of the returned features — no stacked copy of the
    batch's currents is ever made.  This is the feature path of the dataset
    factory (:mod:`repro.datagen`).

    Parameters
    ----------
    traces:
        Test vectors, all exciting ``design`` (lengths may differ).
    design:
        The shared design.
    compression_rate:
        Algorithm-1 retention rate, as in :func:`extract_vector_features`.

    Returns
    -------
    One :class:`VectorFeatures` per trace, in input order.
    """
    traces = list(traces)
    for trace in traces:
        if trace.num_loads != design.num_loads:
            raise ValueError(
                f"trace has {trace.num_loads} loads but design {design.name!r} "
                f"has {design.num_loads}"
            )
    return [
        extract_vector_features(trace, design, compression_rate)
        for trace in traces
    ]
