"""Tests for repro.baselines.trees."""

import numpy as np
import pytest

from repro.baselines.trees import GradientBoostedTrees, RegressionTree


@pytest.fixture()
def piecewise_data(rng):
    """Targets that a shallow tree can represent exactly."""
    features = rng.random((400, 2))
    targets = np.where(features[:, 0] > 0.5, 2.0, -1.0) + np.where(features[:, 1] > 0.3, 0.5, 0.0)
    return features, targets


class TestRegressionTree:
    def test_fits_piecewise_constant_function(self, piecewise_data):
        features, targets = piecewise_data
        tree = RegressionTree(max_depth=3, min_samples_leaf=5)
        tree.fit(features, targets)
        prediction = tree.predict(features)
        assert np.mean(np.abs(prediction - targets)) < 0.1

    def test_depth_limit_respected(self, piecewise_data):
        features, targets = piecewise_data
        tree = RegressionTree(max_depth=2).fit(features, targets)
        assert tree.depth <= 2

    def test_constant_targets_give_single_leaf(self, rng):
        features = rng.random((50, 3))
        tree = RegressionTree().fit(features, np.full(50, 7.0))
        np.testing.assert_allclose(tree.predict(features), 7.0)

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.ones((2, 2)))

    def test_input_validation(self, rng):
        tree = RegressionTree()
        with pytest.raises(ValueError):
            tree.fit(rng.random((10, 2)), rng.random(9))

    def test_min_samples_leaf_respected(self, rng):
        features = rng.random((30, 1))
        targets = rng.random(30)
        tree = RegressionTree(max_depth=10, min_samples_leaf=15).fit(features, targets)
        # With such a large leaf requirement only one split (or none) fits.
        assert tree.depth <= 1


class TestGradientBoostedTrees:
    def test_improves_over_mean_predictor(self, rng):
        features = rng.random((500, 3))
        targets = np.sin(4 * features[:, 0]) + features[:, 1] ** 2
        model = GradientBoostedTrees(num_trees=40, learning_rate=0.2, max_depth=3, seed=0)
        model.fit(features, targets)
        prediction = model.predict(features)
        baseline_error = np.mean(np.abs(targets - targets.mean()))
        model_error = np.mean(np.abs(targets - prediction))
        assert model_error < 0.4 * baseline_error

    def test_more_trees_fit_better(self, rng):
        features = rng.random((300, 2))
        targets = 3 * features[:, 0] - features[:, 1]
        small = GradientBoostedTrees(num_trees=5, learning_rate=0.1, seed=0).fit(features, targets)
        large = GradientBoostedTrees(num_trees=60, learning_rate=0.1, seed=0).fit(features, targets)
        small_error = np.mean(np.abs(small.predict(features) - targets))
        large_error = np.mean(np.abs(large.predict(features) - targets))
        assert large_error < small_error

    def test_subsampling_still_learns(self, rng):
        features = rng.random((300, 2))
        targets = features[:, 0]
        model = GradientBoostedTrees(num_trees=30, subsample=0.5, seed=1).fit(features, targets)
        error = np.mean(np.abs(model.predict(features) - targets))
        assert error < 0.1

    def test_predict_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            GradientBoostedTrees().predict(np.ones((2, 2)))

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees(num_trees=0)
        with pytest.raises(ValueError):
            GradientBoostedTrees(subsample=0.0)
