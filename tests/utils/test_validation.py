"""Tests for repro.utils.validation."""

import json

import numpy as np
import pytest

from repro.core.inference import NoisePredictor
from repro.datagen import CorpusDesignSpec
from repro.eval import EvalConfig, budget
from repro.sim.rom import ROMOptions
from repro.utils.validation import (
    check_finite,
    check_non_negative,
    check_positive,
    check_probability,
)


class TestCheckFinite:
    def test_passes_finite(self):
        array = np.array([1.0, 2.0])
        assert check_finite(array, "x") is not None

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x contains"):
            check_finite(np.array([1.0, np.nan]), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            check_finite(np.array([np.inf]), "x")


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(0.5, "v") == 0.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError):
            check_positive(0.0, "v")

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, "v", strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_positive(-1.0, "v", strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.1, 1.1])
    def test_rejects_outside(self, value):
        with pytest.raises(ValueError):
            check_probability(value, "p")


class TestCheckNonNegative:
    def test_zero_allowed(self):
        assert check_non_negative(0.0) == 0.0

    def test_positive_allowed(self):
        assert check_non_negative(1.5) == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            check_non_negative(-0.1, name="threshold")


def _load_corpus_design(tmp_path, request):
    payload = CorpusDesignSpec(label="small", design="small@8").to_dict()
    CorpusDesignSpec.from_dict({**payload, "rate_step": 0.1})


def _load_eval_config(tmp_path, request):
    payload = budget("tiny").to_dict()
    payload["training"]["shuffle"] = False
    EvalConfig.from_dict(payload)


def _load_rom_options(tmp_path, request):
    ROMOptions.from_dict({**ROMOptions().to_dict(), "droop_floor": 0.0})


def _load_checkpoint(tmp_path, request):
    path = tmp_path / "predictor.npz"
    request.getfixturevalue("tiny_predictor").save(path)
    with np.load(path, allow_pickle=False) as data:
        arrays = {name: data[name] for name in data.files}
    metadata = json.loads(str(arrays["__metadata_json__"]))
    arrays["__metadata_json__"] = np.array(json.dumps({**metadata, "rate_step": 0.1}))
    np.savez(path, **arrays)
    NoisePredictor.load(path)


class TestFixedKeys:
    @pytest.mark.parametrize(
        "load, source, key",
        [
            (_load_corpus_design, "corpus design 'small'", "rate_step"),
            (_load_eval_config, "evaluation config 'tiny' training", "shuffle"),
            (_load_rom_options, "ROM options", "droop_floor"),
            (_load_checkpoint, "predictor.npz", "rate_step"),
        ],
        ids=["corpus-design", "eval-training", "rom-options", "checkpoint"],
    )
    def test_another_recorded_value_is_refused(self, load, source, key, tmp_path, request):
        with pytest.raises(ValueError, match=f"records {key}=") as error:
            load(tmp_path, request)
        assert source in str(error.value)
