"""Tests for repro.workloads.scenarios."""

import numpy as np
import pytest

from repro.utils.random import ensure_rng
from repro.workloads.scenarios import build_scenario_trace, scenario_families


def _legacy_reference(name, design, num_steps, dt, seed):
    """In-test replica of the pre-registry scenario closures.

    ``build_scenario_trace`` promises bit-identical output for the five
    legacy families at their defaults; this replica is the frozen
    pre-refactor math it is held against.
    """
    rng = ensure_rng(seed)
    num_profiles = design.loads.num_clusters + 1
    time_index = np.arange(num_steps)
    resonance = design.spec.package.resonance_frequency(max(design.grid.total_decap, 1e-15))
    res_steps = max(2, int(round(0.5 / (resonance * dt))))
    if name == "idle_to_turbo":
        ramp_start, ramp_end = int(0.2 * num_steps), int(0.5 * num_steps)
        activity = np.full((num_steps, num_profiles), 0.1)
        ramp = np.clip((time_index - ramp_start) / max(ramp_end - ramp_start, 1), 0.0, 1.0)
        activity += 1.1 * ramp[:, np.newaxis]
    elif name == "power_virus":
        period = 2 * res_steps
        gate = ((time_index % period) < period // 2).astype(float)
        activity = np.tile((0.3 + 1.5 * gate)[:, np.newaxis], (1, num_profiles))
    elif name == "clock_gating_storm":
        period = 2 * res_steps
        activity = np.empty((num_steps, num_profiles))
        for profile in range(num_profiles):
            phase = int(rng.integers(0, period))
            gate = (((time_index + phase) % period) < period // 2).astype(float)
            activity[:, profile] = 0.2 + 1.2 * gate
    elif name == "single_core_sprint":
        activity = np.full((num_steps, num_profiles), 0.15)
        sprinting = int(rng.integers(0, max(design.loads.num_clusters, 1)))
        burst_center = 0.55 * num_steps
        burst_width = max(2.0, 1.5 * res_steps)
        activity[:, sprinting] += 1.6 * np.exp(
            -0.5 * ((time_index - burst_center) / burst_width) ** 2
        )
    else:
        assert name == "steady_state"
        activity = np.full((num_steps, num_profiles), 0.6)
    cluster_ids = design.loads.cluster_id
    row = np.where(cluster_ids >= 0, cluster_ids, design.loads.num_clusters)
    per_load = np.clip(activity, 0.0, None)[:, row]
    return per_load * design.loads.nominal_currents[np.newaxis, :]


class TestScenarioNames:
    def test_expected_scenarios_present(self):
        names = scenario_families()
        assert "power_virus" in names
        assert "idle_to_turbo" in names
        assert "steady_state" in names
        assert len(names) >= 5


class TestBuildScenario:
    @pytest.mark.parametrize("name", ["idle_to_turbo", "power_virus", "clock_gating_storm",
                                      "single_core_sprint", "steady_state"])
    def test_all_scenarios_build(self, tiny_design, name):
        trace = build_scenario_trace(name, tiny_design, num_steps=60)
        assert trace.num_steps == 60
        assert trace.num_loads == tiny_design.num_loads
        assert trace.currents.min() >= 0
        assert name in trace.name

    def test_unknown_scenario_rejected(self, tiny_design):
        with pytest.raises(ValueError):
            build_scenario_trace("quantum_storm", tiny_design)

    def test_power_virus_draws_most_current(self, tiny_design):
        virus = build_scenario_trace("power_virus", tiny_design, num_steps=80)
        steady = build_scenario_trace("steady_state", tiny_design, num_steps=80)
        assert virus.total_current().max() > steady.total_current().max()

    def test_idle_to_turbo_is_monotone_overall(self, tiny_design):
        trace = build_scenario_trace("idle_to_turbo", tiny_design, num_steps=100)
        totals = trace.total_current()
        assert totals[-1] > totals[0]

    def test_steady_state_has_low_variation(self, tiny_design):
        trace = build_scenario_trace("steady_state", tiny_design, num_steps=50)
        totals = trace.total_current()
        assert totals.std() / totals.mean() < 1e-9

    def test_rejects_bad_arguments(self, tiny_design):
        with pytest.raises(ValueError):
            build_scenario_trace("power_virus", tiny_design, num_steps=1)
        with pytest.raises(ValueError):
            build_scenario_trace("power_virus", tiny_design, dt=0.0)

    def test_reproducible_with_seed(self, tiny_design):
        a = build_scenario_trace("single_core_sprint", tiny_design, num_steps=40, seed=5)
        b = build_scenario_trace("single_core_sprint", tiny_design, num_steps=40, seed=5)
        np.testing.assert_allclose(a.currents, b.currents)

    @pytest.mark.parametrize("name", ["idle_to_turbo", "power_virus", "clock_gating_storm",
                                      "single_core_sprint", "steady_state"])
    @pytest.mark.parametrize("num_steps,seed", [(60, 0), (101, 7)])
    def test_legacy_scenarios_bit_identical(self, tiny_design, name, num_steps, seed):
        trace = build_scenario_trace(name, tiny_design, num_steps=num_steps, seed=seed)
        reference = _legacy_reference(name, tiny_design, num_steps, 1e-11, seed)
        np.testing.assert_array_equal(trace.currents, reference)
        assert trace.name == f"{tiny_design.name}-{name}"
