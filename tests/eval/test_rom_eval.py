"""ROM-mode evaluation plumbing: config carriage and label_solver stamping."""

import pytest

from repro.eval import CrossDesignEvaluator, CrossDesignReport, EvalConfig
from repro.sim.rom import ROMOptions


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


class TestEvalConfigSolverMode:
    def test_full_mode_omits_solver_keys(self):
        payload = two_design_config().to_dict()
        assert "solver_mode" not in payload
        assert "rom" not in payload

    def test_rom_mode_round_trips_with_options(self):
        config = two_design_config(solver_mode="rom", rom=ROMOptions(rank=48))
        rebuilt = EvalConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert rebuilt.config_hash() == config.config_hash()

    def test_rom_mode_autofills_default_options(self):
        config = two_design_config(solver_mode="rom")
        assert config.rom == ROMOptions()

    def test_hash_sensitive_to_solver_mode(self):
        full = two_design_config()
        rom = two_design_config(solver_mode="rom")
        assert full.config_hash() != rom.config_hash()
        assert rom.config_hash() != two_design_config(
            solver_mode="rom", rom=ROMOptions(rank=48)
        ).config_hash()

    def test_rejects_unknown_solver_mode(self):
        with pytest.raises(ValueError, match="solver mode"):
            two_design_config(solver_mode="reduced")

    def test_corpus_spec_carries_mode(self):
        rom = ROMOptions(rank=48)
        spec = two_design_config(solver_mode="rom", rom=rom).corpus_spec()
        assert spec.solver_mode == "rom"
        assert spec.rom == rom
        assert two_design_config().corpus_spec().solver_mode == "full"


class TestReportLabelSolver:
    def test_round_trips_through_save_load(self, tmp_path):
        report = CrossDesignReport(config_hash="abc", label_solver="rom")
        path = tmp_path / "report.json"
        report.save(path)
        assert CrossDesignReport.load(path).label_solver == "rom"

    def test_report_without_label_solver_is_refused(self, tmp_path):
        import json

        report = CrossDesignReport(config_hash="abc")
        path = tmp_path / "report.json"
        report.save(path)
        payload = json.loads(path.read_text())
        del payload["label_solver"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="has no 'label_solver' entry"):
            CrossDesignReport.load(path)

    def test_evaluator_rejects_solver_mismatch(self, tmp_path):
        config = two_design_config(solver_mode="rom")
        evaluator = CrossDesignEvaluator(config, tmp_path)
        # A full-order-labelled artefact for the same campaign hash must be
        # refused, not silently mixed with ROM-labelled rows.
        stale = CrossDesignReport(config_hash=config.config_hash())
        stale.save(evaluator.report_path)
        with pytest.raises(ValueError, match="labelled by the 'full' solver"):
            evaluator.load_report()

    def test_evaluator_accepts_matching_solver(self, tmp_path):
        config = two_design_config(solver_mode="rom")
        evaluator = CrossDesignEvaluator(config, tmp_path)
        report = CrossDesignReport(
            config_hash=config.config_hash(), label_solver="rom"
        )
        report.save(evaluator.report_path)
        assert evaluator.load_report().label_solver == "rom"
