"""Fault-seam overhead gate: disabled `repro.faults` hooks must be free.

PR 8 threaded fault-injection seams through every hot loop of the pipeline:
one :meth:`~repro.faults.FaultInjector.on_train_step` call per optimiser
step and one :meth:`~repro.faults.FaultInjector.before_solve` call per
transient ground-truth solve (the two inner loops everything else amortises
over).  The design bet is the same as ``bench_obs.py``'s: with no injector
installed the seam is one attribute read plus one no-op method call, costing
nanoseconds against the microsecond-to-millisecond work it brackets.  This
benchmark holds that to numbers:

1. **Op-cost accounting** — time ``faults.active().on_train_step(...)`` and
   ``faults.active().before_solve(...)`` directly (100k iterations against
   the inert default injector) and require one seam call to cost at most
   ``DISABLED_BUDGET`` (1%) of a mean training step and of a mean transient
   solve, measured on the same scaled workload ``bench_training.py`` uses.
2. **Wall-clock A/B** — train the same model twice, once under the inert
   default and once under an (unarmed) :class:`~repro.faults.ScriptedFaults`
   injector, and require the scripted pass to stay within
   ``WALL_CLOCK_SLACK`` of the inert pass — a backstop against accidental
   work sneaking into the counting path.

Results land in ``benchmarks/results/resilience.{json,csv}`` and a
trajectory entry is appended to the repo-root ``BENCH_resilience.json``.
"""

from __future__ import annotations

import time

from common import REPO_ROOT, append_trajectory, best_of, save_records
from repro import faults
from repro.core.config import ModelConfig, TrainingConfig
from repro.core.training import NoiseModelTrainer
from repro.datagen import git_revision
from repro.faults import NULL_FAULTS, ScriptedFaults
from repro.io import ExperimentRecord
from repro.pdn import small_test_design
from repro.workloads import build_dataset, expansion_split, generate_test_vectors
from repro.workloads.vectors import VectorConfig

#: Timed iterations per seam op (keeps per-op timing noise < 1 ns).
OP_ITERATIONS = 100_000

#: A disabled seam call must cost <= 1% of the work it brackets.
DISABLED_BUDGET = 0.01

#: Wall-clock backstop: unarmed-injector pass within 25% of the inert pass.
WALL_CLOCK_SLACK = 1.25

EPOCHS = 6
BATCH_SIZE = 8
SIM_BATCH_SIZE = 4
ROUNDS = 3

_MODEL_CONFIG = ModelConfig(seed=0)


def _seam_cost(seam_call) -> float:
    """Mean seconds per seam invocation, as the call sites pay it.

    Times the full expression a pipeline call site executes — the
    ``faults.active()`` registry read *and* the hook dispatch — not just the
    bare method, so the gate covers the whole per-event cost.
    """
    started = time.perf_counter()
    for _ in range(OP_ITERATIONS):
        seam_call()
    elapsed = time.perf_counter() - started
    return elapsed / OP_ITERATIONS


def _workload():
    """The ``bench_training.py`` workload: scaled design, quick-preset sizes."""
    design = small_test_design(tile_rows=8, tile_cols=8, num_loads=48, seed=0)
    traces = generate_test_vectors(
        design, 48, VectorConfig(num_steps=20, dt=1e-11), seed=3
    )
    return design, traces


def _simulate(design, traces):
    return build_dataset(
        design, traces, compression_rate=0.3, sim_batch_size=SIM_BATCH_SIZE
    )


def _train(design, dataset, split):
    trainer = NoiseModelTrainer(
        dataset,
        design=design,
        split=split,
        model_config=_MODEL_CONFIG,
        training_config=TrainingConfig(
            epochs=EPOCHS,
            batch_size=BATCH_SIZE,
            early_stopping_patience=None,
            seed=0,
        ),
    )
    return trainer.train()


def test_fault_seam_overhead_gate():
    """One disabled seam call <= 1% of a mean train step and a mean solve."""
    step_cost = _seam_cost(lambda: faults.active().on_train_step(0, 0, None))
    solve_cost = _seam_cost(lambda: faults.active().before_solve("bench", 4))
    assert faults.active() is NULL_FAULTS

    design, traces = _workload()

    # Count the seam events of each phase with an unarmed scripted injector
    # (solves per dataset build, optimiser steps per training run) — the
    # counting pass doubles as the wall-clock A/B live arm.
    counting = ScriptedFaults()
    with faults.injected(counting):
        dataset = _simulate(design, traces)
    num_solves = counting.calls["sim.solve"]
    split = expansion_split(dataset, seed=0)

    inert_sim_seconds, _ = best_of(ROUNDS, lambda: _simulate(design, traces))
    inert_train_seconds, _ = best_of(ROUNDS, lambda: _train(design, dataset, split))

    def scripted_train():
        with faults.injected(ScriptedFaults()) as injector:
            _train(design, dataset, split)
        return injector

    scripted_train_seconds, injector = best_of(ROUNDS, scripted_train)
    num_steps = injector.calls["training.step"]

    mean_step = inert_train_seconds / num_steps
    mean_solve = inert_sim_seconds / num_solves
    step_fraction = step_cost / mean_step
    solve_fraction = solve_cost / mean_solve
    wall_clock_ratio = scripted_train_seconds / inert_train_seconds

    records = [
        ExperimentRecord(
            "resilience",
            "training_step_seam",
            {
                "seam_cost_ns": step_cost * 1e9,
                "mean_step_us": mean_step * 1e6,
                "overhead_pct": step_fraction * 100.0,
                "budget_pct": DISABLED_BUDGET * 100.0,
            },
        ),
        ExperimentRecord(
            "resilience",
            "transient_solve_seam",
            {
                "seam_cost_ns": solve_cost * 1e9,
                "mean_solve_us": mean_solve * 1e6,
                "overhead_pct": solve_fraction * 100.0,
                "budget_pct": DISABLED_BUDGET * 100.0,
            },
        ),
        ExperimentRecord(
            "resilience",
            "wall_clock_ab",
            {
                "inert_s": inert_train_seconds,
                "scripted_s": scripted_train_seconds,
                "ratio": wall_clock_ratio,
                "max_ratio": WALL_CLOCK_SLACK,
            },
        ),
    ]
    save_records(
        records, "resilience", "Fault-seam overhead — seam ops vs step/solve cost"
    )
    append_trajectory(
        "resilience",
        {
            "timestamp": time.time(),
            "git_rev": git_revision(REPO_ROOT),
            "step_seam_ns": step_cost * 1e9,
            "solve_seam_ns": solve_cost * 1e9,
            "step_overhead_pct": step_fraction * 100.0,
            "solve_overhead_pct": solve_fraction * 100.0,
            "wall_clock_ratio": wall_clock_ratio,
        },
        header={
            "metric": "disabled fault-seam overhead per train step / solve",
            "disabled_budget_pct": DISABLED_BUDGET * 100.0,
        },
    )

    # Gate 1: the training-step seam is free to within 1% of a step.
    assert step_fraction <= DISABLED_BUDGET, (
        f"disabled training seam costs {step_fraction:.2%} of a mean step "
        f"({step_cost * 1e9:.0f} ns vs {mean_step * 1e6:.0f} us/step; "
        f"budget {DISABLED_BUDGET:.0%})"
    )
    # Gate 2: the solve seam is free to within 1% of a solve.
    assert solve_fraction <= DISABLED_BUDGET, (
        f"disabled solve seam costs {solve_fraction:.2%} of a mean solve "
        f"({solve_cost * 1e9:.0f} ns vs {mean_solve * 1e6:.0f} us/solve; "
        f"budget {DISABLED_BUDGET:.0%})"
    )
    # Backstop: an unarmed scripted injector tracks the inert wall-clock.
    assert wall_clock_ratio <= WALL_CLOCK_SLACK, (
        f"unarmed scripted-injector training pass is {wall_clock_ratio:.2f}x "
        f"the inert pass (backstop {WALL_CLOCK_SLACK}x)"
    )
