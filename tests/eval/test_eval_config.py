"""Tests for repro.eval.config — budgets, validation, hashing."""

import dataclasses

import pytest

from repro.core.config import TrainingConfig
from repro.eval import EvalConfig, budget, budget_names


def two_design_config(**overrides) -> EvalConfig:
    fields = dict(
        name="test",
        designs=(("A", "small@6"), ("B", "D1@0.1")),
        heldout=("B",),
        num_vectors=4,
        num_steps=30,
    )
    fields.update(overrides)
    return EvalConfig(**fields)


class TestEvalConfig:
    def test_labels_and_references(self):
        config = two_design_config()
        assert config.labels == ("A", "B")
        assert config.design_reference("A") == "small@6"
        with pytest.raises(KeyError):
            config.design_reference("missing")

    def test_training_labels_exclude_heldout(self):
        config = two_design_config(designs=(("A", "a"), ("B", "b"), ("C", "c")))
        assert config.training_labels("B") == ("A", "C")
        with pytest.raises(KeyError):
            config.training_labels("missing")

    def test_validation_rejects_bad_pools(self):
        with pytest.raises(ValueError, match="at least 2"):
            two_design_config(designs=(("A", "small@6"),), heldout=("A",))
        with pytest.raises(ValueError, match="unique"):
            two_design_config(designs=(("A", "x"), ("A", "y")))
        with pytest.raises(ValueError, match="not in the design pool"):
            two_design_config(heldout=("Z",))
        with pytest.raises(ValueError, match="held out"):
            two_design_config(heldout=())

    def test_corpus_spec_mirrors_config(self):
        config = two_design_config(num_vectors=6, shard_size=3, sim_batch_size=4)
        spec = config.corpus_spec()
        assert [d.label for d in spec.designs] == ["A", "B"]
        assert all(d.num_vectors == 6 and d.shard_size == 3 for d in spec.designs)
        assert spec.sim_batch_size == 4

    def test_hash_is_stable_and_sensitive(self):
        config = two_design_config()
        assert config.config_hash() == two_design_config().config_hash()
        changed = two_design_config(num_vectors=5)
        assert changed.config_hash() != config.config_hash()
        retrained = two_design_config(training=TrainingConfig(epochs=99))
        assert retrained.config_hash() != config.config_hash()

    def test_round_trip_through_dict(self):
        config = two_design_config(scenarios=("steady_state",), scenario_steps=(30,))
        rebuilt = EvalConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.config_hash() == config.config_hash()

    @pytest.mark.parametrize(
        "key,value", [("loss", "mse"), ("weight_decay", 0.01), ("sequential", True)]
    )
    def test_fixed_training_settings_are_serialised_and_enforced(self, key, value):
        payload = two_design_config().to_dict()
        assert payload["training"]["loss"] == "l1"
        assert payload["training"]["weight_decay"] == 0.0
        payload["training"][key] = value
        with pytest.raises(ValueError, match=f"training.{key} is fixed"):
            EvalConfig.from_dict(payload)

    def test_scenario_specs_round_trip_through_dict(self):
        import json

        from repro.workloads import overlay, scenario_spec

        config = two_design_config(
            scenarios=(
                "steady_state",
                scenario_spec("power_virus", swing=2.0),
                overlay("duty_cycle_sweep", "didt_step_train"),
            ),
            scenario_steps=(30,),
        )
        rebuilt = EvalConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config
        assert rebuilt.config_hash() == config.config_hash()
        # Named scenarios serialise as plain strings, so name-only configs
        # keep the hashes their golden baselines pinned.
        assert config.to_dict()["scenarios"][0] == "steady_state"

    def test_scenario_entries_validated(self):
        with pytest.raises(ValueError, match="scenarios entries"):
            two_design_config(scenarios=(42,))
        # A misspelled family fails at config construction, not inside a
        # sweep worker minutes into the campaign.
        with pytest.raises(ValueError, match="unknown scenario"):
            two_design_config(scenarios=("power_virous",))


class TestBudgets:
    def test_registered_budgets(self):
        assert set(budget_names()) == {"tiny", "smoke", "paper"}
        with pytest.raises(KeyError):
            budget("nope")

    def test_smoke_budget_holds_out_two_designs(self):
        # The tier-2 acceptance bar: a leave-one-design-out evaluation on at
        # least two held-out designs.
        config = budget("smoke")
        assert len(config.heldout) >= 2
        assert len(config.designs) == 4

    def test_budgets_are_valid_and_hashable(self):
        hashes = {name: budget(name).config_hash() for name in budget_names()}
        assert len(set(hashes.values())) == len(hashes)

    def test_smoke_hash_matches_checked_in_baseline(self):
        # The golden baseline is only comparable while the hash holds; the
        # retired training-engine flag stays in the payload for this reason.
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parents[2] / "eval" / "baselines" / "smoke.json"
        assert budget("smoke").config_hash() == json.loads(path.read_text())["config_hash"]

    def test_budgets_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            budget("tiny").num_vectors = 99
