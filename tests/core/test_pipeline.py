"""Tests for repro.core.pipeline (end-to-end framework)."""

import numpy as np
import pytest

from repro.core.config import ModelConfig, PipelineConfig, TrainingConfig
from repro.core.pipeline import RuntimeComparison, WorstCaseNoiseFramework


@pytest.fixture(scope="module")
def quick_framework(tiny_design):
    config = PipelineConfig(
        num_vectors=12,
        num_steps=60,
        compression_rate=0.4,
        model=ModelConfig(distance_kernels=3, fusion_kernels=3, prediction_kernels=4, seed=0),
        training=TrainingConfig(epochs=4, learning_rate=2e-3, batch_size=4,
                                early_stopping_patience=None, seed=0),
        seed=0,
    )
    return WorstCaseNoiseFramework(tiny_design, config)


@pytest.fixture(scope="module")
def framework_result(quick_framework):
    return quick_framework.run()


class TestRuntimeComparison:
    def test_speedup(self):
        comparison = RuntimeComparison(simulator_seconds=10.0, predictor_seconds=2.0, num_vectors=5)
        assert comparison.speedup == pytest.approx(5.0)
        assert comparison.as_dict()["speedup"] == pytest.approx(5.0)

    def test_zero_predictor_time(self):
        assert RuntimeComparison(1.0, 0.0, 1).speedup == float("inf")


@pytest.mark.slow
class TestWorstCaseNoiseFramework:
    def test_generate_vectors_count(self, quick_framework):
        vectors = quick_framework.generate_vectors()
        assert len(vectors) == 12
        assert vectors[0].num_steps == 60

    def test_run_produces_complete_result(self, framework_result, tiny_design):
        result = framework_result
        assert result.design_name == tiny_design.name
        assert len(result.dataset) == 12
        assert result.predicted_test_maps.shape == result.truth_test_maps.shape
        assert result.predicted_test_maps.shape[0] == len(result.split.test)
        assert result.report.num_vectors == len(result.split.test)
        assert result.runtime.num_vectors == len(result.split.test)
        assert result.runtime.simulator_seconds > 0
        assert result.runtime.predictor_seconds > 0

    def test_summary_contains_accuracy_and_runtime(self, framework_result):
        summary = framework_result.summary()
        assert "mean_AE_mV" in summary
        assert "speedup" in summary
        assert summary["design"] == framework_result.design_name

    def test_split_fractions(self, framework_result):
        split = framework_result.split
        total = sum(split.sizes)
        assert total == 12
        assert len(split.train) >= 5

    def test_evaluate_on_custom_indices(self, quick_framework, framework_result):
        report, runtime, predicted, truth = quick_framework.evaluate(
            framework_result.dataset, framework_result.training, indices=[0, 1]
        )
        assert predicted.shape[0] == 2
        assert runtime.num_vectors == 2

    def test_evaluate_times_distance_reduction_per_vector(
        self, quick_framework, framework_result, monkeypatch
    ):
        # Table 2 times one vector at a time: every timed prediction pays
        # for the distance subnet instead of reading a memoised reduced map.
        from repro.core.model import WorstCaseNoiseNet

        calls = []
        original = WorstCaseNoiseNet.reduce_distance

        def counting(self, distance):
            calls.append(1)
            return original(self, distance)

        monkeypatch.setattr(WorstCaseNoiseNet, "reduce_distance", counting)
        quick_framework.evaluate(
            framework_result.dataset, framework_result.training, indices=[0, 1, 2]
        )
        assert len(calls) == 3

    def test_predictions_are_physically_plausible(self, framework_result, tiny_design):
        # Even a lightly trained model must predict positive, sub-Vdd noise.
        predicted = framework_result.predicted_test_maps
        assert np.all(np.isfinite(predicted))
        assert predicted.max() < tiny_design.spec.vdd


class TestCorpusWiring:
    def test_build_dataset_from_corpus(self, tmp_path):
        from repro.datagen import CorpusSpec, generate_corpus
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import WorstCaseNoiseFramework
        from repro.pdn.designs import design_from_name

        design = design_from_name("small@8")
        config = PipelineConfig(num_vectors=6, num_steps=40)
        framework = WorstCaseNoiseFramework(design, config)
        spec = CorpusSpec(
            designs=(framework.corpus_design_spec("small@8", shard_size=3),)
        )
        generate_corpus(spec, tmp_path, num_workers=0)

        from_corpus = framework.build_dataset(corpus_dir=tmp_path)
        in_process = framework.build_dataset()
        assert len(from_corpus) == len(in_process) == 6
        for ours, theirs in zip(from_corpus.samples, in_process.samples):
            assert ours.name == theirs.name
            np.testing.assert_allclose(ours.target, theirs.target, rtol=1e-9, atol=1e-13)

    def test_corpus_design_spec_mirrors_config(self):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import WorstCaseNoiseFramework
        from repro.pdn.designs import design_from_name

        design = design_from_name("small@8")
        config = PipelineConfig(num_vectors=20, num_steps=50, seed=3, compression_rate=0.5)
        spec = WorstCaseNoiseFramework(design, config).corpus_design_spec("small@8")
        assert spec.label == design.name
        assert spec.num_vectors == 20
        assert spec.num_steps == 50
        assert spec.seed == 3
        assert spec.compression_rate == 0.5
        assert spec.shard_size == 5

    def test_traces_and_corpus_dir_exclusive(self, tmp_path):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import WorstCaseNoiseFramework
        from repro.pdn.designs import design_from_name

        design = design_from_name("small@8")
        framework = WorstCaseNoiseFramework(design, PipelineConfig(num_vectors=4, num_steps=30))
        with pytest.raises(ValueError):
            framework.build_dataset(traces=[], corpus_dir=tmp_path)

    def test_corpus_spec_carries_transient_options(self):
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import WorstCaseNoiseFramework
        from repro.pdn.designs import design_from_name
        from repro.sim import TransientOptions
        from repro.sim.rom import ROMOptions

        design = design_from_name("small@8")
        framework = WorstCaseNoiseFramework(
            design, PipelineConfig(num_vectors=8, num_steps=40, sim_batch_size=4)
        )
        spec = framework.corpus_spec("small@8")
        assert spec.sim_batch_size == 4
        # Unset sim_batch_size maps to true per-vector simulation.
        per_vector = WorstCaseNoiseFramework(
            design, PipelineConfig(num_vectors=8, num_steps=40)
        ).corpus_spec("small@8")
        assert per_vector.sim_batch_size == 1
        # The default full-order framework hashes as it did before the
        # solver options were forwarded, so its existing corpora resume.
        assert spec.solver_mode == "full" and spec.rom is None
        assert spec.config_hash() == (
            "9cffe493bbfcdb713cc68c51bac54438f69b79278c2ea0a908cc4f05928aba24"
        )
        # A ROM framework's corpus is labelled with the same gated ROM.
        rom = ROMOptions(rank=24)
        framework = WorstCaseNoiseFramework(
            design,
            PipelineConfig(num_vectors=8, num_steps=40),
            TransientOptions(solver_mode="rom", rom=rom),
        )
        spec = framework.corpus_spec("small@8")
        assert spec.solver_mode == "rom"
        assert spec.rom == rom
        assert spec.transient_options() == framework.transient_options
