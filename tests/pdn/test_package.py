"""Tests for repro.pdn.package."""

import numpy as np
import pytest

from repro.pdn.package import PackageModel


class TestPackageModel:
    def test_defaults_valid(self):
        package = PackageModel()
        assert package.bump_resistance > 0
        assert package.bump_inductance > 0

    def test_rejects_negative_bulk(self):
        with pytest.raises(ValueError):
            PackageModel(bulk_decap=-1.0)

    def test_rejects_zero_inductance(self):
        with pytest.raises(ValueError):
            PackageModel(bump_inductance=0.0)

    def test_resonance_frequency_formula(self):
        package = PackageModel(bump_inductance=1e-9)
        c = 1e-9
        expected = 1.0 / (2 * np.pi * np.sqrt(1e-9 * c))
        assert package.resonance_frequency(c) == pytest.approx(expected)

    def test_resonance_decreases_with_decap(self):
        package = PackageModel()
        assert package.resonance_frequency(1e-9) < package.resonance_frequency(1e-10)
