"""End-to-end integration tests across subsystems.

These exercise the full paper flow on deliberately tiny configurations:
design generation -> workload synthesis -> ground-truth simulation ->
feature extraction -> CNN training -> prediction -> metric reporting, plus
the package-level public API.
"""

import numpy as np
import pytest

import repro
from repro.core import ModelConfig, PipelineConfig, TrainingConfig, WorstCaseNoiseFramework
from repro.io import ExperimentRecord, format_table
from repro.sim import DynamicNoiseAnalysis, run_static_analysis
from repro.workloads import build_scenario_trace


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        assert callable(repro.reference_design)
        assert callable(repro.small_test_design)
        assert hasattr(repro, "WorstCaseNoiseFramework")

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestStaticVsDynamicConsistency:
    def test_dynamic_worst_case_exceeds_static(self, tiny_design, tiny_traces):
        static = run_static_analysis(tiny_design)
        dynamic = DynamicNoiseAnalysis(tiny_design, tiny_traces[0].dt).run(tiny_traces[0])
        # The dynamic worst case includes the resonance-driven first droop and
        # must be at least as severe as the static IR map under any realistic
        # excitation where currents reach nominal levels.
        assert dynamic.worst_noise > 0
        assert dynamic.tile_noise.max() >= 0.3 * static.tile_map.max()

    def test_scenarios_produce_distinct_noise_levels(self, tiny_design):
        dt = 1e-11
        analysis = DynamicNoiseAnalysis(tiny_design, dt)
        virus = analysis.run(
            build_scenario_trace("power_virus", tiny_design, num_steps=120, dt=dt)
        )
        steady = analysis.run(
            build_scenario_trace("steady_state", tiny_design, num_steps=120, dt=dt)
        )
        assert virus.worst_noise > steady.worst_noise


@pytest.mark.slow
class TestEndToEndFramework:
    @pytest.fixture(scope="class")
    def result(self, tiny_design):
        config = PipelineConfig(
            num_vectors=16,
            num_steps=80,
            compression_rate=0.35,
            model=ModelConfig(distance_kernels=4, fusion_kernels=4, prediction_kernels=6, seed=0),
            training=TrainingConfig(epochs=30, learning_rate=3e-3, batch_size=4,
                                    early_stopping_patience=None, seed=0),
            seed=1,
        )
        return WorstCaseNoiseFramework(tiny_design, config).run()

    def test_learns_something(self, result):
        # After a short training run the CNN must beat the trivial predictor
        # that outputs the mean training noise map everywhere.
        truth = result.truth_test_maps
        train_mean = np.mean(
            [result.dataset.samples[i].target for i in result.split.train], axis=0
        )
        trivial_error = np.mean(np.abs(truth - train_mean[np.newaxis]))
        model_error = result.report.mean_ae
        assert model_error < trivial_error

    def test_prediction_faster_than_simulation_per_vector(self, result):
        # Per-vector CNN inference should not be slower than the transient
        # simulation even on this tiny design (it is dramatically faster on
        # the larger reference designs).
        assert result.runtime.predictor_seconds < 5 * result.runtime.simulator_seconds

    def test_report_serialises_into_experiment_record(self, result):
        record = ExperimentRecord("table2", result.design_name, result.summary())
        text = format_table([record])
        assert result.design_name in text

    def test_hotspot_auc_better_than_chance(self, result):
        assert result.report.auc > 0.6
