"""Inference: fast worst-case noise prediction for new test vectors.

Once trained, the predictor replaces the transient simulator in the
worst-case validation loop: given a new test vector it tiles the currents,
applies Algorithm 1, runs one forward pass of the CNN and returns the
predicted noise map in volts, together with its wall-clock runtime so the
speedup over the simulator can be reported (Table 2).
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.config import ModelConfig
from repro.core.model import WorstCaseNoiseNet
from repro.features.extraction import (
    FeatureNormalizer,
    VectorFeatures,
    extract_vector_features,
)
from repro.features.temporal import RATE_STEP
from repro.nn import kernels, no_grad, save_checkpoint
from repro.nn.serialization import read_checkpoint
from repro.pdn.designs import Design
from repro.sim.waveform import CurrentTrace
from repro.utils import FixedKeys, check_non_negative, check_positive, require_key
from repro.workloads.dataset import NoiseDataset

#: Checkpoint metadata keys with one fixed value (written so that a
#: checkpoint records the Algorithm-1 sweep step its features used).
_FIXED_METADATA = FixedKeys(rate_step=RATE_STEP)


@dataclass
class PredictionResult:
    """Prediction for one test vector."""

    noise_map: np.ndarray
    runtime_seconds: float
    name: str = ""

    @property
    def worst_noise(self) -> float:
        """Predicted global worst-case noise (V)."""
        return float(np.max(self.noise_map))

    def hotspot_map(self, threshold: float) -> np.ndarray:
        """Boolean hotspot map at an absolute threshold (V).

        A threshold of exactly 0 V is valid (every tile with any predicted
        droop counts as a hotspot); negative thresholds are rejected.
        """
        check_non_negative(threshold, "threshold")
        return self.noise_map > threshold


class NoisePredictor:
    """Wraps a trained model with its normaliser and design context.

    Parameters
    ----------
    model:
        Trained :class:`~repro.core.model.WorstCaseNoiseNet`.
    normalizer:
        The feature normaliser fitted during training.
    distance:
        The design's distance tensor ``(B, m, n)`` in um.
    compression_rate:
        Algorithm-1 retention rate applied to incoming traces.
    dtype:
        Serving precision (a :mod:`repro.nn.kernels` dtype).  ``"float64"``
        (default) is the bit-exact reference; ``"float32"`` casts the model
        in place and runs the forward pass end to end in single precision
        (half the memory traffic).  Predicted noise maps are always returned as
        float64 volts.
    """

    def __init__(
        self,
        model: WorstCaseNoiseNet,
        normalizer: FeatureNormalizer,
        distance: np.ndarray,
        compression_rate: Optional[float] = 0.3,
        dtype: Union[str, np.dtype] = "float64",
    ):
        self.dtype = kernels.canonical_dtype(dtype)
        self.model = model.astype(self.dtype)
        self.normalizer = normalizer
        self.distance = np.asarray(distance, dtype=float)
        if self.distance.ndim != 3:
            raise ValueError(f"distance must have shape (B, m, n), got {self.distance.shape}")
        if self.distance.shape[0] != model.num_bumps:
            raise ValueError(
                f"distance tensor has {self.distance.shape[0]} bumps, model expects {model.num_bumps}"
            )
        self.compression_rate = compression_rate
        self._normalized_distance = np.asarray(
            normalizer.normalize_distance(self.distance), dtype=self.dtype
        )
        self._fingerprint: Optional[tuple] = None
        self._reduced_distance: Optional[tuple] = None

    @property
    def serving_dtype(self) -> str:
        """Serving precision as a canonical string (``"float32"``/``"float64"``)."""
        return self.dtype.name

    def _cast_input(self, normalized):
        """Coerce a normalised input (array or ragged list) to the serving dtype.

        A no-op (no copy) at float64; the float32 path pays one cast per
        input and then stays single-precision through the whole network.
        """
        if isinstance(normalized, list):
            return [np.asarray(item, dtype=self.dtype) for item in normalized]
        return np.asarray(normalized, dtype=self.dtype)

    def _weights_token(self) -> tuple:
        """Cheap validity token for the memoised derived values.

        Every weight update in this code base (optimisers, ``load_state_dict``,
        manual assignment) rebinds ``parameter.data`` to a fresh array, so the
        tuple of array *objects* changes whenever the model changes; memos
        validate the arrays by identity instead of rehashing the weights on
        every request (strong references mean a recycled ``id`` can never make
        a stale memo look current).  Normaliser scales and Algorithm-1
        settings are compared by value, so rebinding those also invalidates.
        In-place surgery on a weight buffer (``param.data[:] = ...``) is the
        one update style the token cannot see; nothing in this code base does
        that.
        """
        arrays = tuple(parameter.data for parameter in self.model.parameters())
        settings = (
            self.normalizer.current_scale,
            self.normalizer.distance_scale,
            self.normalizer.noise_scale,
            self.compression_rate,
            self.serving_dtype,
        )
        return (arrays, settings)

    @staticmethod
    def _token_current(memo: Optional[tuple], token: tuple) -> bool:
        """Whether a ``(token, value)`` memo matches the live token."""
        if memo is None:
            return False
        old_arrays, old_settings = memo[0]
        arrays, settings = token
        if old_settings != settings or len(old_arrays) != len(arrays):
            return False
        return all(old is new for old, new in zip(old_arrays, arrays))

    @property
    def fingerprint(self) -> str:
        """Content hash of weights, normaliser, distance and settings.

        Serving layers use this as the predictor *version*: any retrain,
        renormalisation, settings change *or serving-precision change* yields
        a different fingerprint, so cached predictions can never be served
        across model updates or across precisions (the same checkpoint served
        at float32 and float64 produces different, separately-cached results).
        """
        token = self._weights_token()
        if not self._token_current(self._fingerprint, token):
            digest = hashlib.sha256()
            for name, value in self.model.state_dict().items():
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            digest.update(json.dumps(self.normalizer.to_dict(), sort_keys=True).encode())
            digest.update(repr(self.compression_rate).encode())
            digest.update(self.serving_dtype.encode())
            digest.update(np.ascontiguousarray(self.distance).tobytes())
            self._fingerprint = (token, digest.hexdigest())
        return self._fingerprint[1]

    # ------------------------------------------------------------------ #
    # prediction entry points
    # ------------------------------------------------------------------ #

    def predict_features(self, features: VectorFeatures) -> PredictionResult:
        """Predict from pre-extracted features (a :meth:`predict_batch` of one).

        Each call reduces the distance map afresh inside its timed region, so
        ``runtime_seconds`` is the paper's one-vector-at-a-time cost rather
        than the amortised serving cost.
        """
        return self.predict_batch([features], reuse_distance=False)[0]

    def predict_trace(self, trace: CurrentTrace, design: Design) -> PredictionResult:
        """Predict from a raw test vector (tiling + compression + CNN)."""
        started = time.perf_counter()
        features = extract_vector_features(
            trace, design, compression_rate=self.compression_rate
        )
        result = self.predict_features(features)
        return PredictionResult(
            noise_map=result.noise_map,
            runtime_seconds=time.perf_counter() - started,
            name=trace.name,
        )

    def _cached_reduced_distance(self) -> np.ndarray:
        """Reduced distance map memoised against the current weights.

        The reduced map depends only on the distance-subnet weights and the
        fixed design distance tensor, so it is recomputed exactly when the
        weights change (see :meth:`_weights_token`).
        """
        token = self._weights_token()
        if not self._token_current(self._reduced_distance, token):
            with no_grad():
                reduced = self.model.reduce_distance(self._normalized_distance).numpy()
            self._reduced_distance = (token, reduced)
        return self._reduced_distance[1]

    def predict_batch(
        self,
        features: Sequence[VectorFeatures],
        max_batch: int = 64,
        reuse_distance: bool = True,
    ) -> list[PredictionResult]:
        """Predict a batch of vectors with one forward pass per ``max_batch``.

        All stamps of up to ``max_batch`` vectors run through the CNN
        together (see :meth:`WorstCaseNoiseNet.forward_batch`), which
        amortises the per-call overhead.  The reduced distance map is
        memoised across calls; ``reuse_distance=False`` instead reduces it
        inside every chunk's timed region.  Per-vector ``runtime_seconds``
        is the chunk wall-clock divided by the chunk size.
        """
        check_positive(max_batch, "max_batch")
        results: list[PredictionResult] = []
        for start in range(0, len(features), int(max_batch)):
            chunk = features[start : start + int(max_batch)]
            started = time.perf_counter()
            normalized = self._cast_input(
                self.normalizer.normalize_current_batch(
                    [item.current_maps for item in chunk]
                )
            )
            with no_grad():
                prediction = self.model.forward_batch(
                    normalized,
                    self._normalized_distance,
                    reduced_distance=(
                        self._cached_reduced_distance() if reuse_distance else None
                    ),
                )
            maps = self.normalizer.denormalize_noise(prediction.numpy())
            per_vector = (time.perf_counter() - started) / len(chunk)
            for index, item in enumerate(chunk):
                results.append(
                    PredictionResult(
                        noise_map=maps[index],
                        runtime_seconds=per_vector,
                        name=item.name,
                    )
                )
        return results

    def predict_dataset(
        self,
        dataset: NoiseDataset,
        indices: Optional[Sequence[int]] = None,
        max_batch: int = 64,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predict every selected dataset sample (batched forward passes).

        Returns ``(maps, runtimes)`` with ``maps`` of shape
        ``(num_selected, m, n)`` in volts.  ``max_batch`` bounds how many
        vectors share one forward pass; set it to 1 to recover the original
        per-vector loop.
        """
        if indices is None:
            indices = range(len(dataset))
        selected = [dataset.samples[int(index)].features for index in indices]
        if not selected:
            return np.zeros((0,) + dataset.tile_shape), np.zeros(0)
        results = self.predict_batch(selected, max_batch=max_batch)
        maps = np.stack([result.noise_map for result in results])
        runtimes = np.array([result.runtime_seconds for result in results])
        return maps, runtimes

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def save(self, path: Union[str, Path]) -> None:
        """Save weights, normaliser, settings and distance tensor to one ``.npz``.

        Weights are stored as float64 master copies regardless of the serving
        dtype (the upcast is lossless); the serving dtype itself is recorded
        in the metadata so :meth:`load` restores the same precision.
        """
        metadata = {
            "normalizer": self.normalizer.to_dict(),
            "compression_rate": self.compression_rate,
            "serving_dtype": self.serving_dtype,
            "num_bumps": self.model.num_bumps,
            "model_config": {
                "distance_kernels": self.model.config.distance_kernels,
                "fusion_kernels": self.model.config.fusion_kernels,
                "prediction_kernels": self.model.config.prediction_kernels,
                "kernel_size": self.model.config.kernel_size,
                "distance_depth": self.model.config.distance_depth,
                "prediction_depth": self.model.config.prediction_depth,
                "seed": self.model.config.seed,
            },
            "distance_shape": list(self.distance.shape),
        }
        _FIXED_METADATA.write(metadata)
        save_checkpoint(
            self.model, Path(path), metadata=metadata, extras={"distance": self.distance}
        )

    @classmethod
    def load(
        cls, path: Union[str, Path], dtype: Optional[Union[str, np.dtype]] = None
    ) -> "NoisePredictor":
        """Restore a predictor saved with :meth:`save`.

        Checkpoints are self-contained: weights, metadata and the distance
        tensor live in the one archive, which is opened and read once.
        ``dtype`` overrides the serving precision; otherwise the
        checkpoint's recorded ``serving_dtype`` is used.  Raises
        ``ValueError`` when a metadata key is missing, when the metadata
        records an Algorithm-1 sweep step other than the fixed one, or when
        the stored distance tensor's shape differs from the recorded
        ``distance_shape``.
        """
        path = Path(path)
        state, metadata, extras = read_checkpoint(path)
        if metadata is None:
            raise ValueError(f"checkpoint {path} is missing predictor metadata")
        config = ModelConfig(**metadata["model_config"])
        model = WorstCaseNoiseNet(num_bumps=int(metadata["num_bumps"]), config=config)
        model.load_state_dict(state)
        if "distance" not in extras:
            raise ValueError(f"checkpoint {path} stores no distance tensor")
        source = f"checkpoint {path}"
        _FIXED_METADATA.pop(metadata, source)
        recorded_shape = tuple(require_key(metadata, "distance_shape", source))
        if extras["distance"].shape != recorded_shape:
            raise ValueError(
                f"checkpoint {path} stores a distance tensor of shape "
                f"{extras['distance'].shape}, its metadata records {recorded_shape}"
            )
        serving_dtype = require_key(metadata, "serving_dtype", source)
        return cls(
            model=model,
            normalizer=FeatureNormalizer.from_dict(metadata["normalizer"]),
            distance=extras["distance"],
            compression_rate=metadata["compression_rate"],
            dtype=dtype if dtype is not None else serving_dtype,
        )
