"""Per-tile feature-engineering baselines.

These baselines represent the "engineered per-node/per-cell features plus a
classical regressor" family the paper discusses in Sec. 2 (XGBIR [10],
IncPIRD [12], the ECO predictors [14, 15]).  They predict each tile's
worst-case noise independently from a hand-built feature vector:

* the tile's own current statistics (``I_max``, ``I_mean``, ``I_msd``),
* neighbourhood current sums at two radii (spatial context),
* distance statistics to the power bumps (min / mean),
* global per-vector current statistics (max / mean / std of the total
  current over time).

Two regressors are provided on top of the same features: gradient-boosted
trees (:class:`TileGBTBaseline`, the XGBoost stand-in) and ordinary ridge
regression (:class:`TileRidgeBaseline`, a sanity floor).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.trees import GradientBoostedTrees
from repro.features.extraction import current_summary_maps
from repro import obs
from repro.utils import check_positive
from repro.workloads.dataset import DatasetSplit, NoiseDataset


def _neighborhood_sum(tile_map: np.ndarray, radius: int) -> np.ndarray:
    """Sum of a map over a ``(2r+1)^2`` neighbourhood around every tile."""
    if radius < 1:
        return tile_map.copy()
    padded = np.pad(tile_map, radius, mode="edge")
    output = np.zeros_like(tile_map)
    size = 2 * radius + 1
    for row_offset in range(size):
        for col_offset in range(size):
            output += padded[
                row_offset:row_offset + tile_map.shape[0],
                col_offset:col_offset + tile_map.shape[1],
            ]
    return output


def tile_feature_matrix(dataset: NoiseDataset, index: int) -> np.ndarray:
    """Per-tile feature matrix of one sample, shape ``(m * n, num_features)``."""
    sample = dataset.samples[index]
    summary = current_summary_maps(sample.features.current_maps)  # (3, m, n)
    i_max, i_mean, i_msd = summary

    neighbour_small = _neighborhood_sum(i_max, radius=1)
    neighbour_large = _neighborhood_sum(i_max, radius=3)

    distance = dataset.distance  # (B, m, n)
    distance_min = distance.min(axis=0)
    distance_mean = distance.mean(axis=0)

    totals = sample.features.current_maps.sum(axis=(1, 2))
    global_stats = np.array([totals.max(), totals.mean(), totals.std()])

    num_tiles = i_max.size
    columns = [
        i_max.ravel(),
        i_mean.ravel(),
        i_msd.ravel(),
        neighbour_small.ravel(),
        neighbour_large.ravel(),
        distance_min.ravel(),
        distance_mean.ravel(),
        np.full(num_tiles, global_stats[0]),
        np.full(num_tiles, global_stats[1]),
        np.full(num_tiles, global_stats[2]),
    ]
    return np.column_stack(columns)


def _dataset_matrices(
    dataset: NoiseDataset, indices: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked feature/target matrices for the selected samples."""
    features = []
    targets = []
    for index in indices:
        features.append(tile_feature_matrix(dataset, int(index)))
        targets.append(dataset.samples[int(index)].target.ravel())
    return np.vstack(features), np.concatenate(targets)


class TileGBTBaseline:
    """Gradient-boosted-tree regressor over per-tile engineered features."""

    def __init__(
        self,
        num_trees: int = 80,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        subsample: float = 0.8,
        seed: int = 0,
    ):
        self._model = GradientBoostedTrees(
            num_trees=num_trees,
            learning_rate=learning_rate,
            max_depth=max_depth,
            subsample=subsample,
            seed=seed,
        )

    def fit(self, dataset: NoiseDataset, split: DatasetSplit) -> "TileGBTBaseline":
        """Fit on the training partition."""
        features, targets = _dataset_matrices(dataset, split.train)
        self._model.fit(features, targets)
        return self

    def predict_sample(self, dataset: NoiseDataset, index: int) -> tuple[np.ndarray, float]:
        """Predict one sample's noise map; returns ``(map, runtime_seconds)``."""
        with obs.get_tracer().span("baselines.gbt.predict") as span:
            features = tile_feature_matrix(dataset, index)
            prediction = self._model.predict(features).reshape(dataset.tile_shape)
        return prediction, span.duration_s

    def predict_many(
        self, dataset: NoiseDataset, indices: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predict several samples; returns stacked maps and runtimes."""
        maps, runtimes = [], []
        for index in indices:
            prediction, runtime = self.predict_sample(dataset, int(index))
            maps.append(prediction)
            runtimes.append(runtime)
        return np.stack(maps), np.array(runtimes)


class TileRidgeBaseline:
    """Ridge regression over the same per-tile features (a simple floor)."""

    def __init__(self, regularization: float = 1e-3):
        check_positive(regularization, "regularization")
        self.regularization = regularization
        self._weights: Optional[np.ndarray] = None
        self._feature_mean: Optional[np.ndarray] = None
        self._feature_std: Optional[np.ndarray] = None

    def fit(self, dataset: NoiseDataset, split: DatasetSplit) -> "TileRidgeBaseline":
        """Fit on the training partition."""
        features, targets = _dataset_matrices(dataset, split.train)
        self._feature_mean = features.mean(axis=0)
        self._feature_std = features.std(axis=0) + 1e-12
        normalized = (features - self._feature_mean) / self._feature_std
        design = np.column_stack([normalized, np.ones(normalized.shape[0])])
        gram = design.T @ design + self.regularization * np.eye(design.shape[1])
        self._weights = np.linalg.solve(gram, design.T @ targets)
        return self

    def predict_sample(self, dataset: NoiseDataset, index: int) -> tuple[np.ndarray, float]:
        """Predict one sample's noise map; returns ``(map, runtime_seconds)``."""
        if self._weights is None:
            raise RuntimeError("predict_sample() called before fit()")
        with obs.get_tracer().span("baselines.ridge.predict") as span:
            features = tile_feature_matrix(dataset, index)
            normalized = (features - self._feature_mean) / self._feature_std
            design = np.column_stack([normalized, np.ones(normalized.shape[0])])
            prediction = (design @ self._weights).reshape(dataset.tile_shape)
        return prediction, span.duration_s

    def predict_many(
        self, dataset: NoiseDataset, indices: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Predict several samples; returns stacked maps and runtimes."""
        maps, runtimes = [], []
        for index in indices:
            prediction, runtime = self.predict_sample(dataset, int(index))
            maps.append(prediction)
            runtimes.append(runtime)
        return np.stack(maps), np.array(runtimes)
