"""Tests for the worker-pool scenario sweep."""

import numpy as np
import pytest

from repro.pdn import small_test_design
from repro.pdn.designs import design_from_name
from repro.serving import ScenarioJob, screen_scenarios
from repro.workloads.scenarios import scenario_families


def _tiny_factory(name: str):
    """Top-level (hence picklable) factory matching the test fixtures."""
    return small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)


@pytest.fixture()
def sweep_jobs(tiny_design):
    return [
        ScenarioJob(design=tiny_design.name, scenario=name, num_steps=60)
        for name in scenario_families()[:3]
    ]


class TestScreenScenarios:
    def test_inline_sweep_produces_records(self, registry, sweep_jobs):
        records = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        assert len(records) == len(sweep_jobs)
        for job, record in zip(sweep_jobs, records):
            assert record.experiment == "serving_sweep"
            assert record.label == f"{job.design}:{job.scenario}"
            values = record.values
            assert np.isfinite(values["worst_noise_v"])
            assert 0.0 <= values["hotspot_fraction"] <= 1.0
            assert values["runtime_s"] > 0

    def test_inline_sweep_is_deterministic(self, registry, sweep_jobs):
        first = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        second = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        for a, b in zip(first, second):
            assert a.values["worst_noise_v"] == pytest.approx(b.values["worst_noise_v"])

    def test_empty_job_list(self, registry):
        assert screen_scenarios([], registry.root, num_workers=0) == []

    def test_spec_built_suites_screen_like_named_scenarios(self, registry, tiny_design):
        from repro.workloads import overlay, scenario_spec

        jobs = [
            ScenarioJob(design=tiny_design.name, scenario="power_virus", num_steps=60),
            ScenarioJob(
                design=tiny_design.name,
                scenario=scenario_spec("power_virus", base=0.6),
                num_steps=60,
            ),
            ScenarioJob(
                design=tiny_design.name,
                scenario=overlay("steady_state", "didt_step_train"),
                num_steps=60,
            ),
        ]
        records = screen_scenarios(
            jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        assert len(records) == 3
        for job, record in zip(jobs, records):
            assert record.label == f"{job.design}:{job.scenario_label}"
            assert np.isfinite(record.values["worst_noise_v"])
        # The hotter parameter variant screens hotter than the default.
        assert records[1].values["worst_noise_v"] > records[0].values["worst_noise_v"]

    def test_process_pool_sweep(self, registry, sweep_jobs):
        try:
            records = screen_scenarios(
                sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=2
            )
        except Exception as error:  # pragma: no cover - sandbox without fork
            pytest.skip(f"process pool unavailable: {error}")
        assert len(records) == len(sweep_jobs)
        inline = screen_scenarios(
            sweep_jobs, registry.root, design_factory=_tiny_factory, num_workers=0
        )
        for pooled, local in zip(records, inline):
            assert pooled.values["worst_noise_v"] == pytest.approx(
                local.values["worst_noise_v"]
            )


class TestDefaultDesignFactory:
    """The sweep's (and the gateway's) default factory, ``design_from_name``."""

    def test_small_names(self):
        design = design_from_name("small")
        assert design.tile_grid.shape == (8, 8)
        sized = design_from_name("small@6")
        assert sized.tile_grid.shape == (6, 6)

    def test_reference_names_with_scale(self):
        design = design_from_name("D1@0.1")
        assert design.name == "D1"
