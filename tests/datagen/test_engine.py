"""Tests for repro.datagen.engine — determinism, resume, claims, loaders."""

import numpy as np
import pytest

from repro.datagen import (
    CorpusDesignSpec,
    CorpusSpec,
    ShardStore,
    dataset_content_hash,
    generate_corpus,
    load_corpus,
    load_design_dataset,
)
from repro.datagen.engine import shard_vectors
from repro.pdn.designs import design_from_name
from repro.workloads.dataset import build_dataset
from repro.workloads.vectors import TestVectorGenerator


def small_spec(**overrides) -> CorpusSpec:
    fields = dict(
        label="small", design="small@8", num_vectors=6, num_steps=40,
        shard_size=2, seed=7,
    )
    fields.update({k: v for k, v in overrides.items() if k != "sim_batch_size"})
    spec_kwargs = {}
    if "sim_batch_size" in overrides:
        spec_kwargs["sim_batch_size"] = overrides["sim_batch_size"]
    return CorpusSpec(designs=(CorpusDesignSpec(**fields),), **spec_kwargs)


class TestShardVectors:
    def test_matches_generate_suite_positions(self):
        spec = small_spec().designs[0]
        design = design_from_name(spec.design)
        suite = TestVectorGenerator(design, spec.vector_config()).generate_suite(
            spec.num_vectors, seed=spec.seed
        )
        collected = []
        for index in range(spec.num_shards):
            collected.extend(shard_vectors(design, spec, index))
        assert len(collected) == len(suite)
        for ours, reference in zip(collected, suite):
            assert ours.name == reference.name
            np.testing.assert_array_equal(ours.currents, reference.currents)

    def test_independent_of_shard_order(self):
        spec = small_spec().designs[0]
        design = design_from_name(spec.design)
        late_first = shard_vectors(design, spec, 2)
        early = shard_vectors(design, spec, 0)
        again_late = shard_vectors(design, spec, 2)
        for a, b in zip(late_first, again_late):
            np.testing.assert_array_equal(a.currents, b.currents)
        assert early[0].name != late_first[0].name


class TestGenerateCorpus:
    def test_generates_all_shards(self, tmp_path):
        spec = small_spec()
        report = generate_corpus(spec, tmp_path, num_workers=0)
        assert report.complete
        assert report.shards_generated == 3
        assert report.samples_generated == 6
        dataset = load_design_dataset(tmp_path, "small", verify=True)
        assert len(dataset) == 6
        assert [s.name for s in dataset.samples] == [
            f"unit-test-v{i:04d}" for i in range(6)
        ]

    def test_rerun_skips_everything(self, tmp_path):
        spec = small_spec()
        generate_corpus(spec, tmp_path, num_workers=0)
        rerun = generate_corpus(spec, tmp_path, num_workers=0)
        assert rerun.shards_generated == 0
        assert rerun.shards_skipped == 3

    def test_interrupted_then_resumed_is_identical(self, tmp_path):
        spec = small_spec()
        full_root = tmp_path / "full"
        resumed_root = tmp_path / "resumed"
        full = generate_corpus(spec, full_root, num_workers=0)

        # "Kill" the run after one shard, then resume it.
        first = generate_corpus(spec, resumed_root, num_workers=0, max_shards=1)
        assert not first.complete and first.shards_generated == 1
        second = generate_corpus(spec, resumed_root, num_workers=0)
        assert second.complete
        assert second.shards_skipped == 1

        assert [r.to_dict() for r in second.manifest.records] == [
            r.to_dict() for r in full.manifest.records
        ]
        assert dataset_content_hash(load_design_dataset(resumed_root, "small")) == (
            dataset_content_hash(load_design_dataset(full_root, "small"))
        )

    def test_reproducible_across_chunkings(self, tmp_path):
        by_two = generate_corpus(small_spec(), tmp_path / "a", num_workers=0)
        by_three = generate_corpus(
            small_spec(shard_size=3), tmp_path / "b", num_workers=0
        )
        assert by_two.manifest.config_hash != by_three.manifest.config_hash
        first = load_design_dataset(tmp_path / "a", "small")
        second = load_design_dataset(tmp_path / "b", "small")
        for a, b in zip(first.samples, second.samples):
            assert a.name == b.name
            np.testing.assert_array_equal(
                a.features.current_maps, b.features.current_maps
            )
            np.testing.assert_allclose(a.target, b.target, rtol=1e-10, atol=1e-14)

    def test_spec_mismatch_rejected(self, tmp_path):
        generate_corpus(small_spec(), tmp_path, num_workers=0)
        with pytest.raises(ValueError):
            generate_corpus(small_spec(seed=8), tmp_path, num_workers=0)

    def test_resume_false_regenerates(self, tmp_path):
        generate_corpus(small_spec(), tmp_path, num_workers=0)
        fresh = generate_corpus(small_spec(seed=8), tmp_path, num_workers=0, resume=False)
        assert fresh.complete
        assert fresh.shards_generated == 3

    def test_claimed_shard_is_deferred(self, tmp_path):
        spec = small_spec()
        store = ShardStore(tmp_path)
        store.claim("small", 1)
        # generate_corpus clears stale claims up front (it assumes it is the
        # only live run), so re-claim after manifest setup by interrupting:
        report = generate_corpus(spec, tmp_path, num_workers=0, max_shards=0)
        assert report.shards_generated == 0
        store.claim("small", 1)
        from repro.datagen.engine import _generate_shard, _worker_init, _ShardTask

        _worker_init(design_from_name)
        task = _ShardTask(
            root=str(tmp_path), label="small", index=1,
            design_spec=spec.designs[0], sim_batch_size=spec.sim_batch_size,
        )
        outcome = _generate_shard(task)
        assert outcome["deferred"] is True
        assert not store.has_shard("small", 1)

    def test_matches_sequential_pipeline_within_tolerance(self, tmp_path):
        spec = small_spec(sim_batch_size=4)
        generate_corpus(spec, tmp_path, num_workers=0)
        factory = load_design_dataset(tmp_path, "small")
        design_spec = spec.designs[0]
        design = design_from_name(design_spec.design)
        traces = TestVectorGenerator(design, design_spec.vector_config()).generate_suite(
            design_spec.num_vectors, seed=design_spec.seed
        )
        baseline = build_dataset(
            design, traces,
            compression_rate=design_spec.compression_rate,
        )
        for ours, theirs in zip(factory.samples, baseline.samples):
            assert ours.name == theirs.name
            np.testing.assert_array_equal(
                ours.features.current_maps.shape, theirs.features.current_maps.shape
            )
            np.testing.assert_allclose(ours.target, theirs.target, rtol=1e-9, atol=1e-13)
            np.testing.assert_allclose(
                ours.features.current_maps, theirs.features.current_maps,
                rtol=1e-12, atol=1e-15,
            )

    def test_load_corpus_returns_every_design(self, tmp_path):
        spec = CorpusSpec(
            designs=(
                CorpusDesignSpec(label="a", design="small@8", num_vectors=2,
                                 num_steps=30, shard_size=2),
                CorpusDesignSpec(label="b", design="small@10", num_vectors=2,
                                 num_steps=30, shard_size=2),
            )
        )
        generate_corpus(spec, tmp_path, num_workers=0)
        corpus = load_corpus(tmp_path, verify=True)
        assert sorted(corpus) == ["a", "b"]
        assert corpus["a"].tile_shape == (8, 8)
        assert corpus["b"].tile_shape == (10, 10)

    def test_worker_pool_matches_inline(self, tmp_path):
        spec = small_spec()
        inline_root = tmp_path / "inline"
        pool_root = tmp_path / "pool"
        generate_corpus(spec, inline_root, num_workers=0)
        report = generate_corpus(spec, pool_root, num_workers=2)
        assert report.complete
        assert dataset_content_hash(load_design_dataset(pool_root, "small")) == (
            dataset_content_hash(load_design_dataset(inline_root, "small"))
        )
