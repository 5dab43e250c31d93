"""Tests for repro.datagen.shards (store, manifest, claims, hashing)."""

import json

import numpy as np
import pytest

from repro.datagen.shards import (
    CorpusManifest,
    ShardRecord,
    ShardStore,
    dataset_content_hash,
    git_revision,
    load_design_dataset,
)
from repro.datagen.engine import generate_corpus
from repro.datagen.spec import CorpusDesignSpec, CorpusSpec
from repro.utils import artifacts


@pytest.fixture()
def spec():
    return CorpusSpec(
        designs=(
            CorpusDesignSpec(
                label="small", design="small@8", num_vectors=6, num_steps=40, shard_size=3
            ),
        )
    )


class TestContentHash:
    def test_ignores_sim_runtime(self, tiny_dataset):
        before = dataset_content_hash(tiny_dataset)
        copy = tiny_dataset.subset(range(len(tiny_dataset)))
        for sample in copy.samples:
            sample.sim_runtime = 123.456
        # Samples are shared between subset views; hash both ways to prove
        # runtime never enters the digest.
        assert dataset_content_hash(copy) == before
        assert dataset_content_hash(tiny_dataset) == before

    def test_sensitive_to_targets(self, tiny_dataset):
        before = dataset_content_hash(tiny_dataset)
        view = tiny_dataset.subset(range(len(tiny_dataset)))
        view.samples[0] = type(view.samples[0])(
            features=view.samples[0].features,
            target=view.samples[0].target + 1e-12,
            hotspot_map=view.samples[0].hotspot_map,
            sim_runtime=view.samples[0].sim_runtime,
            name=view.samples[0].name,
        )
        assert dataset_content_hash(view) != before

    def test_sensitive_to_sample_order(self, tiny_dataset):
        forward = dataset_content_hash(tiny_dataset)
        reversed_view = tiny_dataset.subset(range(len(tiny_dataset) - 1, -1, -1))
        assert dataset_content_hash(reversed_view) != forward


class TestGitRevision:
    def test_returns_string(self):
        revision = git_revision()
        assert isinstance(revision, str) and revision
        # A hex commit hash, "-dirty" when tracked files changed, or the
        # documented fallback.
        commit = revision.removesuffix("-dirty")
        assert revision == "unknown" or (
            len(commit) == 40 and all(c in "0123456789abcdef" for c in commit)
        )

    def test_unknown_outside_repo(self, tmp_path):
        assert git_revision(tmp_path) == "unknown"

    def test_two_corpora_start_one_git_child(self, tmp_path, monkeypatch, spec):
        calls = []
        real_run = artifacts.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args[0])
            return real_run(*args, **kwargs)

        monkeypatch.setattr(artifacts.subprocess, "run", counting_run)
        artifacts._resolve_revision.cache_clear()
        try:
            for name in ("first", "second"):
                generate_corpus(spec, tmp_path / name, num_workers=0)
        finally:
            artifacts._resolve_revision.cache_clear()
        assert [command[0] for command in calls] == ["git"]


class TestShardStore:
    def test_atomic_write_and_readback(self, tmp_path, tiny_dataset):
        store = ShardStore(tmp_path)
        content_hash = store.write_shard("small", 0, tiny_dataset)
        assert store.has_shard("small", 0)
        loaded = store.read_shard("small", 0)
        assert dataset_content_hash(loaded) == content_hash
        # No temp debris left behind.
        assert list(tmp_path.glob("small/*.tmp*")) == []

    def test_claim_is_exclusive(self, tmp_path):
        store_a = ShardStore(tmp_path)
        store_b = ShardStore(tmp_path)
        assert store_a.claim("small", 0)
        # A second writer (another process in real life) must lose the race.
        assert not store_b.claim("small", 0)
        store_a.release("small", 0)
        assert store_b.claim("small", 0)
        store_b.release("small", 0)

    def test_release_is_idempotent(self, tmp_path):
        store = ShardStore(tmp_path)
        store.release("small", 0)  # nothing claimed — must not raise
        assert store.claim("small", 0)
        store.release("small", 0)
        store.release("small", 0)

    def test_clear_stale_claims_keeps_live_owners(self, tmp_path):
        import subprocess

        store = ShardStore(tmp_path)
        # A claim held by this (very much alive) process must survive.
        store.claim("small", 0)
        # A claim whose owner has exited is stale.
        exited = subprocess.Popen(["true"])
        exited.wait()
        (tmp_path / "small").mkdir(parents=True, exist_ok=True)
        (tmp_path / "small/shard-00001.claim").write_text(str(exited.pid))
        # An unreadable claim (writer died mid-write) is stale too.
        (tmp_path / "small/shard-00002.claim").write_text("not-a-pid")
        removed = store.clear_stale_claims()
        assert removed == 2
        assert not store.claim("small", 0)  # live claim still fencing
        store.release("small", 0)


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path, spec):
        manifest = CorpusManifest(spec, git_rev="deadbeef")
        manifest.add(
            ShardRecord(
                label="small", index=0, start=0, stop=3,
                path="small/shard-00000.npz", num_samples=3,
                content_hash="abc", seed=0,
            )
        )
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = CorpusManifest.load(path)
        assert loaded.config_hash == spec.config_hash()
        assert loaded.git_rev == "deadbeef"
        assert loaded.is_complete("small", 0)
        assert not loaded.is_complete("small", 1)
        assert [r.to_dict() for r in loaded.records] == [
            r.to_dict() for r in manifest.records
        ]

    def test_completed_designs(self, spec):
        # The spec has 6 vectors in shards of 3 -> exactly two shards.
        manifest = CorpusManifest(spec)
        assert manifest.completed_designs() == []
        manifest.add(
            ShardRecord(
                label="small", index=0, start=0, stop=3,
                path="small/shard-00000.npz", num_samples=3,
                content_hash="x", seed=0,
            )
        )
        assert manifest.completed_designs() == []
        manifest.add(
            ShardRecord(
                label="small", index=1, start=3, stop=6,
                path="small/shard-00001.npz", num_samples=3,
                content_hash="x", seed=0,
            )
        )
        assert manifest.completed_designs() == ["small"]

    def test_rejects_unknown_version(self, tmp_path, spec):
        manifest = CorpusManifest(spec)
        path = tmp_path / "manifest.json"
        manifest.save(path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            CorpusManifest.load(path)


class TestLoaders:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_design_dataset(tmp_path, "small")

    def test_incomplete_design_rejected(self, tmp_path, spec, tiny_dataset):
        store = ShardStore(tmp_path)
        manifest = CorpusManifest(spec)
        store.save_manifest(manifest)
        with pytest.raises(ValueError):
            load_design_dataset(tmp_path, "small")

    def test_verify_catches_corruption(self, tmp_path, tiny_design):
        from repro.datagen import generate_corpus

        spec = CorpusSpec(
            designs=(
                CorpusDesignSpec(
                    label="small", design="small@8", num_vectors=4,
                    num_steps=30, shard_size=2,
                ),
            )
        )
        generate_corpus(spec, tmp_path, num_workers=0)
        store = ShardStore(tmp_path)
        shard = store.read_shard("small", 0)
        shard.samples[0].target[:] += 1.0
        shard.save(store.shard_path("small", 0), compress=False)
        assert isinstance(load_design_dataset(tmp_path, "small"), object)  # lenient load
        with pytest.raises(ValueError):
            load_design_dataset(tmp_path, "small", verify=True)
