"""Evaluation-harness benchmark: campaign cost, resume cost, determinism.

The eval layer's promises are operational rather than raw-throughput ones:

* a full leave-one-design-out campaign at the ``tiny`` budget costs seconds,
* *resuming* a finished campaign costs ~nothing (the artefacts, not the
  work, are the source of truth), and
* the gated accuracy metrics are identical across two fresh campaigns —
  which is what makes golden-baseline gating possible at all.

This benchmark measures the first two and asserts the third, persisting the
stage timings under ``benchmarks/results/eval.json``.
"""

from __future__ import annotations

import json
import time

import pytest

from common import save_records
from repro.eval import CrossDesignEvaluator, ScenarioSweep, budget
from repro.io import ExperimentRecord


@pytest.fixture(scope="module")
def campaign_dirs(tmp_path_factory):
    """Two fresh workdirs for the determinism comparison."""
    return (
        tmp_path_factory.mktemp("eval-bench-a"),
        tmp_path_factory.mktemp("eval-bench-b"),
    )


def test_eval_campaign_cost_and_determinism(benchmark, campaign_dirs):
    """Time the tiny campaign cold/resumed and assert metric determinism."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    config = budget("tiny")
    first_dir, second_dir = campaign_dirs
    records = []

    evaluator = CrossDesignEvaluator(config, first_dir)
    started = time.perf_counter()
    report = evaluator.run()
    sweep_records = ScenarioSweep(config, first_dir).run()
    cold_s = time.perf_counter() - started
    records.append(
        ExperimentRecord(
            "eval",
            "campaign_cold",
            {
                "total_s": cold_s,
                "rows": len(report.rows),
                "sweep_rows": len(sweep_records),
            },
        )
    )

    started = time.perf_counter()
    resumed_report = evaluator.run()
    ScenarioSweep(config, first_dir).run()
    resumed_s = time.perf_counter() - started
    records.append(
        ExperimentRecord(
            "eval",
            "campaign_resumed",
            {"total_s": resumed_s, "rows": len(resumed_report.rows)},
        )
    )

    started = time.perf_counter()
    second_report = CrossDesignEvaluator(config, second_dir).run()
    repeat_s = time.perf_counter() - started
    records.append(
        ExperimentRecord(
            "eval", "campaign_repeat_fresh", {"total_s": repeat_s, "rows": len(second_report.rows)}
        )
    )
    save_records(records, "eval", "Evaluation harness — campaign cost and resume")

    # Resume must not redo any held-out evaluation (artefact-driven skip).
    assert resumed_report.rows.keys() == report.rows.keys()
    # Resuming costs far less than the cold campaign (no training, no sim).
    assert resumed_s < cold_s
    # The foundation of golden-baseline gating: fresh campaigns agree bit-for-bit.
    assert json.dumps(report.gated_metrics(), sort_keys=True) == json.dumps(
        second_report.gated_metrics(), sort_keys=True
    )
