"""Tests for repro.utils.validation."""

import numpy as np
import pytest

from repro.utils.validation import (
    check_finite,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckFinite:
    def test_passes_finite(self):
        array = np.array([1.0, 2.0])
        assert check_finite(array, "x") is not None

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x contains"):
            check_finite(np.array([1.0, np.nan]), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_finite(np.array([np.inf]), "x")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5, "v") == 0.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "v")

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, "v", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "v", strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")


class TestCheckNonNegative:
    def test_zero_allowed(self):
        assert check_non_negative(0.0) == 0.0

    def test_positive_allowed(self):
        assert check_non_negative(1.5) == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            check_non_negative(-0.1, name="threshold")
