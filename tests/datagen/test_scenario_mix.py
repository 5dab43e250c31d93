"""Tests for scenario-mix corpora: assignment, determinism, resume, e2e."""

import numpy as np
import pytest

from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.datagen import (
    CorpusDesignSpec,
    CorpusSpec,
    dataset_content_hash,
    generate_corpus,
    load_design_dataset,
)
from repro.datagen.engine import shard_vectors
from repro.pdn.designs import design_from_name
from repro.workloads import ScenarioSpec, overlay, scenario_spec

#: Eight distinct scenario families, some as parameter variants/compositions.
MIX = (
    "power_virus",
    "idle_to_turbo",
    scenario_spec("staggered_dvfs", stagger=0.1),
    "thermal_throttle",
    "memory_phase",
    scenario_spec("resonance_chirp", stop_scale=1.5),
    "didt_step_train",
    overlay("duty_cycle_sweep", "cluster_migration"),
)


def mix_spec(**overrides) -> CorpusSpec:
    fields = dict(
        label="small", design="small@6", num_vectors=16, num_steps=40,
        shard_size=4, seed=7, scenario_mix=MIX, scenario_fraction=0.5,
    )
    fields.update(overrides)
    return CorpusSpec(designs=(CorpusDesignSpec(**fields),))


class TestScenarioAssignment:
    def test_fraction_and_cycling(self):
        spec = mix_spec().designs[0]
        assignment = spec.scenario_assignment()
        assert len(assignment) == 8  # 0.5 * 16
        specs = [assignment[index] for index in sorted(assignment)]
        assert specs == [
            s if isinstance(s, ScenarioSpec) else ScenarioSpec(s) for s in MIX
        ]

    def test_assignment_independent_of_shard_size(self):
        a = mix_spec().designs[0]
        b = mix_spec(shard_size=5).designs[0]
        assert a.scenario_assignment() == b.scenario_assignment()

    def test_empty_mix_assigns_nothing(self):
        spec = CorpusDesignSpec(label="x", design="small@6", num_vectors=8)
        assert spec.scenario_assignment() == {}
        assert spec.scenario_assignment().get(3) is None

    def test_vector_scenario_bounds_checked(self):
        spec = mix_spec().designs[0]
        assert set(spec.scenario_assignment()) <= set(range(spec.num_vectors))
        assert spec.scenario_assignment().get(spec.num_vectors) is None

    def test_fraction_validated_with_mix_and_normalized_without(self):
        # Without a mix the fraction is meaningless: it is pinned back to
        # the default so the to_dict/from_dict round-trip stays an equality.
        spec = CorpusDesignSpec(label="x", design="small@6", scenario_fraction=7.0)
        assert spec.scenario_fraction == 0.5
        assert CorpusDesignSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="scenario_fraction"):
            CorpusDesignSpec(
                label="x", design="small@6",
                scenario_mix=("power_virus",), scenario_fraction=7.0,
            )

    def test_unknown_family_fails_at_spec_construction(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            CorpusDesignSpec(
                label="x", design="small@6", scenario_mix=("power_virous",)
            )
        with pytest.raises(ValueError, match="no parameter"):
            CorpusDesignSpec(
                label="x", design="small@6",
                scenario_mix=(scenario_spec("power_virus", amplitude=2.0),),
            )

    def test_mix_changes_config_hash(self):
        assert mix_spec().config_hash() != mix_spec(scenario_mix=()).config_hash()
        assert (
            mix_spec().config_hash()
            != mix_spec(scenario_fraction=0.25).config_hash()
        )


class TestScenarioMixVectors:
    def test_shard_vectors_blend_scenario_and_random(self):
        spec = mix_spec().designs[0]
        design = design_from_name(spec.design)
        traces = []
        for index in range(spec.num_shards):
            traces.extend(shard_vectors(design, spec, index))
        assert len(traces) == spec.num_vectors
        assert [t.name for t in traces] == [
            f"{design.name}-v{i:04d}" for i in range(spec.num_vectors)
        ]
        # Scenario slots differ from what the pure-random suite would put
        # there; random slots are bit-identical to the mix-free corpus.
        random_spec = mix_spec(scenario_mix=()).designs[0]
        random_traces = []
        for index in range(random_spec.num_shards):
            random_traces.extend(shard_vectors(design, random_spec, index))
        assignment = spec.scenario_assignment()
        for index, (mixed, random) in enumerate(zip(traces, random_traces)):
            if index in assignment:
                assert not np.array_equal(mixed.currents, random.currents)
            else:
                np.testing.assert_array_equal(mixed.currents, random.currents)

    def test_scenario_vectors_deterministic_per_index(self):
        spec = mix_spec().designs[0]
        design = design_from_name(spec.design)
        a = shard_vectors(design, spec, 0)
        b = shard_vectors(design, spec, 0)
        for first, second in zip(a, b):
            np.testing.assert_array_equal(first.currents, second.currents)


class TestScenarioMixCorpus:
    def test_interrupted_mix_corpus_resumes_to_identical_manifest(self, tmp_path):
        spec = mix_spec()
        full = generate_corpus(spec, tmp_path / "full", num_workers=0)
        assert full.complete

        interrupted = generate_corpus(
            spec, tmp_path / "resumed", num_workers=0, max_shards=2
        )
        assert not interrupted.complete
        resumed = generate_corpus(spec, tmp_path / "resumed", num_workers=0)
        assert resumed.complete and resumed.shards_skipped == 2

        assert [r.to_dict() for r in resumed.manifest.records] == [
            r.to_dict() for r in full.manifest.records
        ]
        assert dataset_content_hash(
            load_design_dataset(tmp_path / "resumed", "small")
        ) == dataset_content_hash(load_design_dataset(tmp_path / "full", "small"))

    @pytest.mark.slow
    def test_mix_corpus_trains_end_to_end(self, tmp_path):
        # Acceptance path: a corpus whose mix covers 8 distinct scenario
        # families loads through load_design_dataset and trains via the
        # batched engine.
        spec = mix_spec()
        report = generate_corpus(spec, tmp_path, num_workers=0)
        assert report.complete
        dataset = load_design_dataset(tmp_path, "small", verify=True)
        assert len(dataset) == 16
        design = design_from_name("small@6")
        trainer = NoiseModelTrainer(
            dataset,
            design=design,
            model_config=ModelConfig(
                distance_kernels=3, fusion_kernels=3, prediction_kernels=3, seed=0
            ),
            training_config=TrainingConfig(
                epochs=2, batch_size=4, early_stopping_patience=None, seed=1
            ),
        )
        result = trainer.train()
        assert result.history.num_epochs == 2
        assert np.isfinite(result.history.train_loss[-1])
