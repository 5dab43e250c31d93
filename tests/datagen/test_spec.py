"""Tests for repro.datagen.spec."""

import pytest

from repro.datagen.spec import CorpusDesignSpec, CorpusSpec, paper_corpus_spec


def _design(**overrides) -> CorpusDesignSpec:
    base = dict(label="small", design="small@8", num_vectors=10, shard_size=4)
    base.update(overrides)
    return CorpusDesignSpec(**base)


class TestCorpusDesignSpec:
    def test_shard_partition_covers_vectors(self):
        spec = _design(num_vectors=10, shard_size=4)
        assert spec.num_shards == 3
        bounds = [spec.shard_bounds(i) for i in range(spec.num_shards)]
        assert bounds == [(0, 4), (4, 8), (8, 10)]

    def test_exact_multiple(self):
        spec = _design(num_vectors=8, shard_size=4)
        assert spec.num_shards == 2
        assert spec.shard_bounds(1) == (4, 8)

    def test_shard_index_out_of_range(self):
        with pytest.raises(ValueError):
            _design().shard_bounds(99)

    def test_vector_config_carries_trace_shape(self):
        spec = _design(num_steps=123, dt=2e-11)
        config = spec.vector_config()
        assert config.num_steps == 123
        assert config.dt == 2e-11

    @pytest.mark.parametrize(
        "overrides",
        [
            {"label": ""},
            {"label": "a/b"},
            {"design": ""},
            {"num_vectors": 0},
            {"shard_size": 0},
            {"num_steps": 1},
            {"dt": 0.0},
            {"compression_rate": 0.0},
            {"compression_rate": 1.5},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            _design(**overrides)


class TestCorpusSpec:
    def test_requires_unique_labels(self):
        with pytest.raises(ValueError):
            CorpusSpec(designs=(_design(), _design()))

    def test_requires_designs(self):
        with pytest.raises(ValueError):
            CorpusSpec(designs=())

    def test_rejects_bad_integration_method(self):
        # A corpus labelled by another integrator must not be resumed.
        spec = CorpusSpec(designs=(_design(),))
        assert spec.to_dict()["integration_method"] == "backward_euler"
        assert spec.to_dict()["initial_state"] == "dc"
        for key, value in (("integration_method", "trapezoidal"), ("initial_state", "zero")):
            payload = {**spec.to_dict(), key: value}
            with pytest.raises(ValueError, match=key):
                CorpusSpec.from_dict(payload)

    @pytest.mark.parametrize("solver", ["direct", "cg", "bogus"])
    def test_from_dict_rejects_foreign_solver(self, solver):
        # A corpus labelled by another factorisation must not be resumed.
        payload = CorpusSpec(designs=(_design(),)).to_dict()
        payload["solver_method"] = solver
        with pytest.raises(ValueError, match="solver_method"):
            CorpusSpec.from_dict(payload)

    def test_from_dict_accepts_the_one_solver_or_none(self):
        spec = CorpusSpec(designs=(_design(),))
        payload = spec.to_dict()
        assert payload["solver_method"] == "cholesky"
        assert CorpusSpec.from_dict(payload) == spec
        del payload["solver_method"]
        assert CorpusSpec.from_dict(payload) == spec

    def test_lookup_by_label(self):
        spec = CorpusSpec(designs=(_design(), _design(label="other")))
        assert spec.design("other").label == "other"
        with pytest.raises(KeyError):
            spec.design("missing")

    def test_totals(self):
        spec = CorpusSpec(designs=(_design(num_vectors=10, shard_size=4),
                                   _design(label="b", num_vectors=4, shard_size=4)))
        assert spec.total_vectors == 14
        assert spec.total_shards == 4


class TestConfigHash:
    def test_roundtrip_preserves_hash(self):
        spec = paper_corpus_spec(scale=0.1, num_vectors=6, num_steps=50, shard_size=3)
        clone = CorpusSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.config_hash() == spec.config_hash()

    def test_hash_sensitive_to_generation_fields(self):
        base = CorpusSpec(designs=(_design(),))
        assert base.config_hash() != CorpusSpec(designs=(_design(seed=1),)).config_hash()
        assert base.config_hash() != CorpusSpec(
            designs=(_design(),), sim_batch_size=base.sim_batch_size + 1
        ).config_hash()

    def test_smoke_corpus_hash_is_pinned(self):
        # The config hash every existing smoke corpus manifest records
        # (eval/runs/smoke/corpus/manifest.json); a change here makes those
        # workdirs unresumable.
        from repro.eval.config import budget

        assert budget("smoke").corpus_spec().config_hash() == (
            "c86d86e76056c9f057c77106333491691b1f542bbe6392332123da7f90c292f0"
        )

    def test_hash_stable_across_processes(self):
        # Pure function of the spec fields — no ids, no timestamps.
        spec = CorpusSpec(designs=(_design(),))
        assert spec.config_hash() == CorpusSpec(designs=(_design(),)).config_hash()


class TestPaperCorpusSpec:
    def test_four_reference_designs(self):
        spec = paper_corpus_spec(scale=0.25, num_vectors=12, shard_size=6)
        assert [d.label for d in spec.designs] == ["D1", "D2", "D3", "D4"]
        assert all(d.design.endswith("@0.25") for d in spec.designs)
        assert spec.total_vectors == 48
