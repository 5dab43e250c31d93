"""Gradient-boosted regression trees, implemented from scratch.

The static-IR-drop predictors the paper discusses in Sec. 2 (XGBIR [10],
IncPIRD [12]) are XGBoost models over per-node/per-cell engineered features.
XGBoost is not available offline, so this module provides a compact
gradient-boosted-tree regressor with the pieces those works rely on:
squared-error boosting, depth-limited regression trees grown on quantile
candidate splits, shrinkage, and subsampling.  It backs the
:class:`~repro.baselines.tile_features.TileFeatureBaseline` used in the
feature-engineering ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils import check_positive, check_probability
from repro.utils.random import RandomState, ensure_rng


@dataclass
class _TreeNode:
    """One node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_TreeNode"] = None
    right: Optional["_TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class RegressionTree:
    """A depth-limited least-squares regression tree.

    Split candidates are feature quantiles (like histogram-based XGBoost), and
    splits are chosen by maximum variance reduction.
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        num_candidate_splits: int = 16,
    ):
        check_positive(max_depth, "max_depth")
        check_positive(min_samples_leaf, "min_samples_leaf")
        check_positive(num_candidate_splits, "num_candidate_splits")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.num_candidate_splits = num_candidate_splits
        self._root: Optional[_TreeNode] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "RegressionTree":
        """Fit the tree to ``features`` (n, d) and ``targets`` (n,)."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        if features.ndim != 2 or targets.ndim != 1 or features.shape[0] != targets.shape[0]:
            raise ValueError("features must be (n, d) and targets (n,) with matching n")
        self._root = self._grow(features, targets, depth=0)
        return self

    def _grow(self, features: np.ndarray, targets: np.ndarray, depth: int) -> _TreeNode:
        node_value = float(targets.mean()) if targets.size else 0.0
        if (
            depth >= self.max_depth
            or targets.size < 2 * self.min_samples_leaf
            or np.allclose(targets, targets[0])
        ):
            return _TreeNode(value=node_value)

        best_gain = 0.0
        best: Optional[tuple[int, float, np.ndarray]] = None
        total_sum = targets.sum()
        total_count = targets.size
        base_score = (total_sum**2) / total_count

        for feature_index in range(features.shape[1]):
            column = features[:, feature_index]
            quantiles = np.quantile(
                column, np.linspace(0.05, 0.95, self.num_candidate_splits)
            )
            for threshold in np.unique(quantiles):
                mask = column <= threshold
                left_count = int(mask.sum())
                right_count = total_count - left_count
                if left_count < self.min_samples_leaf or right_count < self.min_samples_leaf:
                    continue
                left_sum = targets[mask].sum()
                right_sum = total_sum - left_sum
                score = (left_sum**2) / left_count + (right_sum**2) / right_count
                gain = score - base_score
                if gain > best_gain:
                    best_gain = gain
                    best = (feature_index, float(threshold), mask)

        if best is None:
            return _TreeNode(value=node_value)
        feature_index, threshold, mask = best
        left = self._grow(features[mask], targets[mask], depth + 1)
        right = self._grow(features[~mask], targets[~mask], depth + 1)
        return _TreeNode(
            value=node_value, feature=feature_index, threshold=threshold, left=left, right=right
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d)."""
        if self._root is None:
            raise RuntimeError("predict() called before fit()")
        features = np.asarray(features, dtype=float)
        output = np.empty(features.shape[0])
        for row_index, row in enumerate(features):
            node = self._root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            output[row_index] = node.value
        return output

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def _depth(node: Optional[_TreeNode]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)


class GradientBoostedTrees:
    """Least-squares gradient boosting over :class:`RegressionTree` learners.

    Parameters
    ----------
    num_trees / learning_rate / max_depth / min_samples_leaf:
        Usual boosting hyper-parameters.
    subsample:
        Row-subsampling fraction per boosting round.
    seed:
        Seed for the subsampling.
    """

    def __init__(
        self,
        num_trees: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        seed: RandomState = 0,
    ):
        check_positive(num_trees, "num_trees")
        check_positive(learning_rate, "learning_rate")
        check_probability(subsample, "subsample")
        if subsample <= 0:
            raise ValueError("subsample must be in (0, 1]")
        self.num_trees = num_trees
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self._rng = ensure_rng(seed)
        self._trees: list[RegressionTree] = []
        self._base_prediction = 0.0

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "GradientBoostedTrees":
        """Fit the boosted ensemble."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        self._trees = []
        self._base_prediction = float(targets.mean())
        prediction = np.full(targets.shape, self._base_prediction)
        num_rows = targets.shape[0]
        for _ in range(self.num_trees):
            residual = targets - prediction
            if self.subsample < 1.0:
                chosen = self._rng.choice(
                    num_rows, size=max(1, int(self.subsample * num_rows)), replace=False
                )
            else:
                chosen = np.arange(num_rows)
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
            )
            tree.fit(features[chosen], residual[chosen])
            update = tree.predict(features)
            prediction = prediction + self.learning_rate * update
            self._trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` (n, d)."""
        if not self._trees:
            raise RuntimeError("predict() called before fit()")
        features = np.asarray(features, dtype=float)
        prediction = np.full(features.shape[0], self._base_prediction)
        for tree in self._trees:
            prediction = prediction + self.learning_rate * tree.predict(features)
        return prediction

    @property
    def num_fitted_trees(self) -> int:
        """Number of boosting rounds performed."""
        return len(self._trees)
