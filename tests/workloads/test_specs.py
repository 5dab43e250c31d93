"""Tests for repro.workloads.specs and the scenario registry/library."""

import pickle

import numpy as np
import pytest

from repro.pdn.designs import DesignSpec, LayerSpec, make_design
from repro.workloads import (
    DEFAULT_MAX_ACTIVITY,
    ScenarioSpec,
    build_scenario_activity,
    build_scenario_trace,
    clamp_activity,
    concat,
    family_defaults,
    mix,
    normalize_scenario,
    overlay,
    resonance_steps,
    scenario_families,
    scenario_spec,
)
from repro.utils.random import ensure_rng

#: Families introduced by the scenario library (beyond the 5 legacy ones).
NEW_FAMILIES = (
    "staggered_dvfs",
    "thermal_throttle",
    "memory_phase",
    "resonance_chirp",
    "didt_step_train",
    "cluster_migration",
    "duty_cycle_sweep",
    "mixed_criticality",
)


def _degenerate_design(num_clusters=0, num_loads=12):
    """A tiny design with controllable cluster/load counts."""
    spec = DesignSpec(
        name=f"degenerate-c{num_clusters}-l{num_loads}",
        die_width=400.0,
        die_height=400.0,
        tile_rows=4,
        tile_cols=4,
        layers=(
            LayerSpec(nx=8, ny=8, sheet_resistance=0.005, name="M1"),
            LayerSpec(nx=4, ny=4, sheet_resistance=0.002, name="M5"),
        ),
        bump_rows=2,
        bump_cols=2,
        num_loads=num_loads,
        total_current=0.5,
        num_clusters=num_clusters,
    )
    return make_design(spec, seed=0)


@pytest.fixture(scope="module")
def zero_cluster_design():
    return _degenerate_design(num_clusters=0)


@pytest.fixture(scope="module")
def single_load_design():
    return _degenerate_design(num_clusters=1, num_loads=1)


class TestScenarioSpec:
    def test_params_are_canonically_sorted(self):
        a = ScenarioSpec("power_virus", params=(("swing", 2.0), ("base", 0.1)))
        b = ScenarioSpec("power_virus", params=(("base", 0.1), ("swing", 2.0)))
        assert a == b
        assert a.config_hash() == b.config_hash()
        assert hash(a) == hash(b)

    def test_explicit_params_change_the_hash(self):
        assert (
            scenario_spec("power_virus").config_hash()
            != scenario_spec("power_virus", swing=1.5).config_hash()
        )

    def test_label_stable_for_defaults_and_hashes_variants(self):
        assert scenario_spec("power_virus").label == "power_virus"
        variant = scenario_spec("power_virus", swing=2.0)
        assert variant.label.startswith("power_virus[")
        assert variant.label == scenario_spec("power_virus", swing=2.0).label

    @pytest.mark.parametrize(
        "spec",
        [
            scenario_spec("steady_state"),
            scenario_spec("duty_cycle_sweep", duty_start=0.2, duty_stop=0.8),
            overlay("power_virus", scenario_spec("single_core_sprint", swing=2.0)),
            concat("steady_state", "idle_to_turbo"),
            mix(["steady_state", "power_virus"], weights=(0.75, 0.25)),
            overlay(concat("steady_state", "power_virus"), "didt_step_train"),
        ],
    )
    def test_dict_and_pickle_round_trip(self, spec):
        import json

        back = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert back == spec
        assert back.config_hash() == spec.config_hash()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_normalize_accepts_names_and_specs(self):
        assert normalize_scenario("power_virus") == ScenarioSpec("power_virus")
        spec = scenario_spec("steady_state", level=0.4)
        assert normalize_scenario(spec) is spec
        with pytest.raises(TypeError):
            normalize_scenario(42)

    def test_rejects_bad_structure(self):
        with pytest.raises(ValueError):
            ScenarioSpec("")
        with pytest.raises(ValueError):
            ScenarioSpec("overlay")  # composite without children
        with pytest.raises(ValueError):
            ScenarioSpec("steady_state", children=(ScenarioSpec("power_virus"),))
        with pytest.raises(ValueError):
            ScenarioSpec("x", params=(("p", 1), ("p", 2)))
        with pytest.raises(TypeError):
            scenario_spec("steady_state", level=object())
        with pytest.raises(ValueError):
            mix(["steady_state", "power_virus"], weights=(1.0,))
        with pytest.raises(ValueError):
            mix(["steady_state"], weights=(-1.0,))

    def test_malformed_composites_from_dict_fail_eagerly(self, tiny_design):
        # from_dict bypasses the overlay/concat/mix constructors, so hand
        # written payloads can carry malformed composite params; both the
        # eager validation and the build path must reject them loudly.
        from repro.workloads import validate_scenario

        children = [{"family": "steady_state"}, {"family": "power_virus"}]
        wrong_count = ScenarioSpec.from_dict(
            {"family": "mix", "params": {"weights": [1.0]}, "children": children}
        )
        zero_sum = ScenarioSpec.from_dict(
            {"family": "mix", "params": {"weights": [0.0, 0.0]}, "children": children}
        )
        typo_key = ScenarioSpec.from_dict(
            {"family": "mix", "params": {"weight": [1.0, 2.0]}, "children": children}
        )
        str_weights = ScenarioSpec.from_dict(
            {"family": "mix", "params": {"weights": "0.5"}, "children": children}
        )
        overlay_params = ScenarioSpec.from_dict(
            {"family": "overlay", "params": {"weights": [1.0, 1.0]}, "children": children}
        )
        for spec, message in (
            (wrong_count, "one weight per child"),
            (zero_sum, "positive sum"),
            (typo_key, "no parameter"),
            (overlay_params, "no parameter"),
            (str_weights, "must be numeric"),
        ):
            with pytest.raises(ValueError, match=message):
                validate_scenario(spec)
            with pytest.raises(ValueError, match=message):
                build_scenario_trace(spec, tiny_design, num_steps=8)


class TestRegistry:
    def test_all_families_registered(self):
        families = scenario_families()
        for name in ("idle_to_turbo", "power_virus", "clock_gating_storm",
                     "single_core_sprint", "steady_state") + NEW_FAMILIES:
            assert name in families
        assert len(families) >= 13

    def test_family_defaults_exposed(self):
        defaults = family_defaults("power_virus")
        assert defaults["base"] == 0.3 and defaults["swing"] == 1.5
        with pytest.raises(ValueError):
            family_defaults("quantum_storm")

    def test_unknown_parameter_rejected_at_build(self, tiny_design):
        with pytest.raises(ValueError, match="no parameter"):
            build_scenario_trace(
                scenario_spec("steady_state", amplitude=3.0), tiny_design, num_steps=8
            )


class TestFamilyBuilders:
    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_new_families_build_valid_traces(self, tiny_design, family):
        trace = build_scenario_trace(family, tiny_design, num_steps=64, seed=2)
        assert trace.num_steps == 64
        assert trace.num_loads == tiny_design.num_loads
        assert trace.currents.min() >= 0

    @pytest.mark.parametrize("family", NEW_FAMILIES)
    def test_new_families_reproducible(self, tiny_design, family):
        a = build_scenario_trace(family, tiny_design, num_steps=40, seed=9)
        b = build_scenario_trace(family, tiny_design, num_steps=40, seed=9)
        np.testing.assert_array_equal(a.currents, b.currents)

    def test_parameters_change_the_trace(self, tiny_design):
        base = build_scenario_trace("power_virus", tiny_design, num_steps=60)
        hot = build_scenario_trace(
            scenario_spec("power_virus", base=0.5), tiny_design, num_steps=60
        )
        assert hot.total_current().min() > base.total_current().min()


class TestDegenerateDesigns:
    def test_every_family_builds_on_degenerate_designs(
        self, zero_cluster_design, single_load_design
    ):
        for design in (zero_cluster_design, single_load_design):
            for family in scenario_families():
                for num_steps in (2, 17):
                    trace = build_scenario_trace(family, design, num_steps=num_steps, seed=1)
                    assert trace.num_steps == num_steps
                    assert trace.num_loads == design.num_loads
                    assert np.isfinite(trace.currents).all()

    def test_zero_cluster_sprint_stays_idle(self, zero_cluster_design):
        # The fixed contract: with no clusters there is no single core to
        # sprint, so the trace is the flat idle baseline — the background
        # loads must not all sprint together.
        sprint = build_scenario_trace(
            "single_core_sprint", zero_cluster_design, num_steps=40, seed=0
        )
        base = family_defaults("single_core_sprint")["base"]
        expected = base * zero_cluster_design.loads.nominal_currents
        np.testing.assert_allclose(sprint.currents, np.tile(expected, (40, 1)))

    def test_sprint_with_clusters_leaves_background_idle(self, tiny_design):
        trace = build_scenario_trace("single_core_sprint", tiny_design, num_steps=40, seed=3)
        background = tiny_design.loads.cluster_id < 0
        assert background.any()
        base = family_defaults("single_core_sprint")["base"]
        np.testing.assert_allclose(
            trace.currents[:, background],
            base * np.tile(tiny_design.loads.nominal_currents[background], (40, 1)),
        )


class TestActivityContract:
    def test_scenarios_respect_max_activity(self, tiny_design):
        # An overlay of hot scenarios would exceed the physical bound
        # without the shared clamp.
        spec = overlay("power_virus", "power_virus", "power_virus")
        trace = build_scenario_trace(spec, tiny_design, num_steps=40, seed=0)
        ceiling = DEFAULT_MAX_ACTIVITY * tiny_design.loads.nominal_currents
        assert np.all(trace.currents <= ceiling[np.newaxis, :] + 1e-12)
        assert np.isclose(trace.currents.max(), ceiling.max())

    def test_custom_max_activity(self, tiny_design):
        # DEFAULT_MAX_ACTIVITY is the one bound: no builder takes another.
        with pytest.raises(TypeError):
            build_scenario_trace("power_virus", tiny_design, num_steps=40, max_activity=1.0)

    def test_clamp_activity_bounds(self):
        clamped = clamp_activity(np.array([-1.0, 0.5, 5.0]))
        np.testing.assert_allclose(clamped, [0.0, 0.5, DEFAULT_MAX_ACTIVITY])
        with pytest.raises(TypeError):
            clamp_activity(np.zeros(3), max_activity=1.0)

    def test_resonance_steps_matches_generator(self, tiny_design):
        from repro.workloads import TestVectorGenerator, VectorConfig

        dt = 1e-11
        generator = TestVectorGenerator(tiny_design, VectorConfig(num_steps=16, dt=dt))
        assert generator.resonance_steps == resonance_steps(tiny_design, dt)


class TestComposition:
    def test_overlay_sums_activities(self, tiny_design):
        rng_kwargs = dict(num_steps=24, dt=1e-11)
        spec = overlay("steady_state", "steady_state")
        activity = build_scenario_activity(
            spec, tiny_design, rng=ensure_rng(0), **rng_kwargs
        )
        level = family_defaults("steady_state")["level"]
        np.testing.assert_allclose(activity, 2 * level)

    def test_concat_splits_segments(self, tiny_design):
        spec = concat(
            scenario_spec("steady_state", level=0.2),
            scenario_spec("steady_state", level=1.0),
        )
        activity = build_scenario_activity(
            spec, tiny_design, num_steps=25, dt=1e-11, rng=ensure_rng(0)
        )
        assert activity.shape[0] == 25
        np.testing.assert_allclose(activity[:12], 0.2)
        np.testing.assert_allclose(activity[12:], 1.0)

    def test_concat_rejects_too_short_traces(self, tiny_design):
        spec = concat("steady_state", "steady_state", "steady_state")
        with pytest.raises(ValueError, match="split"):
            build_scenario_activity(spec, tiny_design, num_steps=2, dt=1e-11, rng=ensure_rng(0))

    def test_mix_is_weighted_average(self, tiny_design):
        spec = mix(
            [scenario_spec("steady_state", level=0.0), scenario_spec("steady_state", level=1.0)],
            weights=(1.0, 3.0),
        )
        activity = build_scenario_activity(
            spec, tiny_design, num_steps=10, dt=1e-11, rng=ensure_rng(0)
        )
        np.testing.assert_allclose(activity, 0.75)

    def test_composition_is_deterministic(self, tiny_design):
        spec = overlay(
            "clock_gating_storm",
            concat("single_core_sprint", "mixed_criticality"),
            mix(["power_virus", "cluster_migration"]),
        )
        a = build_scenario_trace(spec, tiny_design, num_steps=48, seed=11)
        b = build_scenario_trace(spec, tiny_design, num_steps=48, seed=11)
        np.testing.assert_array_equal(a.currents, b.currents)
        c = build_scenario_trace(spec, tiny_design, num_steps=48, seed=12)
        assert not np.array_equal(a.currents, c.currents)
