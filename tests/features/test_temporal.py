"""Tests for repro.features.temporal (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features.temporal import compress_current_maps


def _random_maps(rng, num_steps=60, shape=(4, 4)):
    return rng.random((num_steps,) + shape)


class TestCompressCurrentMaps:
    def test_keeps_requested_fraction(self, rng):
        maps = _random_maps(rng, 100)
        result = compress_current_maps(maps, compression_rate=0.3)
        assert result.num_selected == 30
        assert result.compressed_maps.shape == (30, 4, 4)

    def test_indices_sorted_and_unique(self, rng):
        maps = _random_maps(rng, 80)
        result = compress_current_maps(maps, 0.4)
        indices = result.selected_indices
        assert np.all(np.diff(indices) > 0)
        assert indices.min() >= 0 and indices.max() < 80

    def test_full_rate_keeps_everything(self, rng):
        maps = _random_maps(rng, 50)
        result = compress_current_maps(maps, 1.0)
        assert result.num_selected == 50
        np.testing.assert_allclose(result.compressed_maps, maps)

    def test_keeps_the_largest_total_current_stamp(self, rng):
        # The worst-case-relevant heavy-switching stamps must never be dropped.
        maps = _random_maps(rng, 100)
        totals = maps.reshape(100, -1).sum(axis=1)
        result = compress_current_maps(maps, 0.2)
        assert int(np.argmax(totals)) in result.selected_indices

    def test_statistic_matching_beats_naive_top_selection(self, rng):
        # The selected subset's mu+3sigma should be at least as close to the
        # original as simply taking the top-r fraction.
        maps = _random_maps(rng, 200)
        totals = maps.reshape(200, -1).sum(axis=1)
        original = totals.mean() + 3 * totals.std()
        result = compress_current_maps(maps, 0.3)
        top = np.sort(totals)[-60:]
        naive_error = abs(original - (top.mean() + 3 * top.std()))
        assert result.statistic_error <= naive_error + 1e-9

    def test_rejects_invalid_rate(self, rng):
        maps = _random_maps(rng, 10)
        with pytest.raises(ValueError):
            compress_current_maps(maps, 0.0)
        with pytest.raises(ValueError):
            compress_current_maps(maps, 1.5)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            compress_current_maps(np.ones((5, 4)), 0.5)

    def test_lower_tail_rate_bounded_by_rate(self, rng):
        maps = _random_maps(rng, 100)
        result = compress_current_maps(maps, 0.25)
        assert 0.0 <= result.lower_tail_rate <= 0.25 + 1e-9

    @given(
        num_steps=st.integers(5, 120),
        rate=st.floats(0.05, 1.0),
        seed=st.integers(0, 300),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_any_input(self, num_steps, rate, seed):
        generator = np.random.default_rng(seed)
        maps = generator.random((num_steps, 3, 3))
        result = compress_current_maps(maps, rate)
        # Selected indices are a subset of the original stamps, without
        # duplicates, and the compressed maps are exactly those stamps.
        indices = result.selected_indices
        assert len(np.unique(indices)) == len(indices)
        assert 1 <= result.num_selected <= num_steps
        np.testing.assert_allclose(result.compressed_maps, maps[indices])
        expected_keep = max(1, int(round(rate * num_steps)))
        assert result.num_selected == min(expected_keep, num_steps)
