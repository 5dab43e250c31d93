"""Tests for repro.workloads.dataset."""

import numpy as np
import pytest

from repro.workloads.dataset import NoiseDataset, build_dataset, expansion_split


class TestBuildDataset:
    def test_sample_count_and_shapes(self, tiny_design, tiny_dataset):
        assert len(tiny_dataset) == 10
        assert tiny_dataset.tile_shape == tiny_design.tile_grid.shape
        assert tiny_dataset.distance.shape[0] == tiny_design.grid.num_bumps
        sample = tiny_dataset.samples[0]
        assert sample.target.shape == tiny_design.tile_grid.shape
        assert sample.hotspot_map.shape == tiny_design.tile_grid.shape
        assert sample.sim_runtime > 0

    def test_compression_applied_to_features(self, tiny_dataset, tiny_traces):
        sample = tiny_dataset.samples[0]
        assert sample.features.num_steps == int(round(0.4 * tiny_traces[0].num_steps))

    def test_targets_stack(self, tiny_dataset):
        targets = tiny_dataset.targets()
        assert targets.shape == (len(tiny_dataset),) + tiny_dataset.tile_shape
        assert targets.min() >= 0

    def test_hotspots_consistent_with_threshold(self, tiny_dataset):
        for sample in tiny_dataset.samples:
            np.testing.assert_array_equal(
                sample.hotspot_map, sample.target > tiny_dataset.hotspot_threshold
            )

    def test_total_sim_runtime(self, tiny_dataset):
        assert tiny_dataset.total_sim_runtime == pytest.approx(
            sum(s.sim_runtime for s in tiny_dataset.samples)
        )

    def test_empty_traces_rejected(self, tiny_design):
        with pytest.raises(ValueError):
            build_dataset(tiny_design, [])

    def test_mixed_dt_rejected(self, tiny_design, tiny_traces):
        from repro.sim.waveform import CurrentTrace

        other = CurrentTrace(tiny_traces[0].currents, dt=2e-11)
        with pytest.raises(ValueError):
            build_dataset(tiny_design, [tiny_traces[0], other])

    def test_subset_view(self, tiny_dataset):
        subset = tiny_dataset.subset([0, 2, 4])
        assert len(subset) == 3
        assert subset.samples[1] is tiny_dataset.samples[2]


class TestDatasetPersistence:
    def test_save_load_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        tiny_dataset.save(path)
        loaded = NoiseDataset.load(path)
        assert len(loaded) == len(tiny_dataset)
        assert loaded.design_name == tiny_dataset.design_name
        assert loaded.tile_shape == tiny_dataset.tile_shape
        np.testing.assert_allclose(loaded.distance, tiny_dataset.distance)
        np.testing.assert_allclose(loaded.targets(), tiny_dataset.targets())
        np.testing.assert_allclose(
            loaded.samples[3].features.current_maps,
            tiny_dataset.samples[3].features.current_maps,
        )
        assert loaded.samples[0].name == tiny_dataset.samples[0].name


class TestExpansionSplit:
    def test_partitions_cover_dataset(self, tiny_dataset, tiny_split):
        tiny_split.assert_disjoint(len(tiny_dataset))

    def test_train_fraction_close_to_target(self, tiny_dataset):
        split = expansion_split(tiny_dataset, train_fraction=0.6, seed=1)
        assert abs(len(split.train) - 0.6 * len(tiny_dataset)) <= 2

    def test_validation_test_ratio(self, tiny_dataset):
        split = expansion_split(tiny_dataset, train_fraction=0.5, validation_ratio=0.3, seed=2)
        remaining = len(tiny_dataset) - len(split.train)
        assert len(split.validation) == int(round(0.3 * remaining))

    def test_deterministic_for_seed(self, tiny_dataset):
        a = expansion_split(tiny_dataset, seed=3)
        b = expansion_split(tiny_dataset, seed=3)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.test, b.test)

    def test_requires_at_least_three_samples(self, tiny_dataset):
        small = tiny_dataset.subset([0, 1])
        with pytest.raises(ValueError):
            expansion_split(small)

    def test_selected_training_samples_are_diverse(self, tiny_dataset):
        # The expansion strategy picks samples that are far apart: the pairwise
        # minimum distance within the training set should not collapse to zero.
        split = expansion_split(tiny_dataset, train_fraction=0.5, seed=0)
        summaries = tiny_dataset.summary_features()[split.train].reshape(len(split.train), -1)
        distances = np.linalg.norm(summaries[:, None, :] - summaries[None, :, :], axis=-1)
        off_diagonal = distances[~np.eye(len(split.train), dtype=bool)]
        assert off_diagonal.min() > 0


class TestBatchedBuild:
    def test_batched_matches_per_vector(self, tiny_design, tiny_traces, tiny_dataset):
        batched = build_dataset(
            tiny_design, tiny_traces, compression_rate=0.4, sim_batch_size=4
        )
        assert len(batched) == len(tiny_dataset)
        for ours, theirs in zip(batched.samples, tiny_dataset.samples):
            assert ours.name == theirs.name
            np.testing.assert_allclose(ours.target, theirs.target, rtol=1e-12, atol=1e-16)
            np.testing.assert_allclose(
                ours.features.current_maps, theirs.features.current_maps,
                rtol=1e-12, atol=1e-16,
            )
            np.testing.assert_array_equal(ours.hotspot_map, theirs.hotspot_map)

    def test_batched_runtime_is_average(self, tiny_design, tiny_traces):
        batched = build_dataset(
            tiny_design, tiny_traces[:4], compression_rate=0.4, sim_batch_size=4
        )
        # The block's even share, plus each vector's (small) tile reduction.
        runtimes = np.array([sample.sim_runtime for sample in batched.samples])
        assert np.all(runtimes > 0)
        assert np.ptp(runtimes) < runtimes.min()

    def test_unbatched_runtime_is_per_vector(self, tiny_design, tiny_traces):
        dataset = build_dataset(tiny_design, tiny_traces[:4], compression_rate=0.4)
        runtimes = {sample.sim_runtime for sample in dataset.samples}
        assert len(runtimes) == 4 and min(runtimes) > 0


class TestMergeDatasets:
    def test_merge_preserves_order(self, tiny_dataset):
        from repro.workloads.dataset import merge_datasets

        first = tiny_dataset.subset(range(0, 4))
        second = tiny_dataset.subset(range(4, len(tiny_dataset)))
        merged = merge_datasets([first, second])
        assert len(merged) == len(tiny_dataset)
        for ours, theirs in zip(merged.samples, tiny_dataset.samples):
            assert ours is theirs

    def test_merge_rejects_other_design(self, tiny_dataset):
        from dataclasses import replace
        from repro.workloads.dataset import merge_datasets

        other = tiny_dataset.subset(range(2))
        other.design_name = "not-the-same"
        with pytest.raises(ValueError):
            merge_datasets([tiny_dataset, other])

    def test_merge_rejects_mismatched_distance(self, tiny_dataset):
        from repro.workloads.dataset import merge_datasets

        other = tiny_dataset.subset(range(2))
        other.distance = other.distance + 1.0
        with pytest.raises(ValueError):
            merge_datasets([tiny_dataset, other])

    def test_merge_requires_input(self):
        from repro.workloads.dataset import merge_datasets

        with pytest.raises(ValueError):
            merge_datasets([])


class TestUncompressedSave:
    def test_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "plain.npz"
        tiny_dataset.save(path, compress=False)
        loaded = NoiseDataset.load(path)
        assert len(loaded) == len(tiny_dataset)
        np.testing.assert_array_equal(
            loaded.samples[0].features.current_maps,
            tiny_dataset.samples[0].features.current_maps,
        )
