#!/usr/bin/env python3
"""Worst-case noise sign-off screening with a trained predictor.

The motivating use case of the paper: sign-off has to validate *many* test
vectors (application scenarios), and running the full transient simulation
for each one is too slow.  This example:

1. trains the predictor once on random vectors of a D1-analogue design,
2. screens a batch of named workload scenarios (DVFS ramp, power virus,
   clock-gating storm, ...) with the CNN only,
3. re-simulates only the scenarios the CNN flags as violating the noise
   specification, and
4. reports how much simulator time the screening saved and whether any
   violating scenario was missed.

Run with:  python examples/signoff_screening.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    DynamicNoiseAnalysis,
    ModelConfig,
    PipelineConfig,
    TrainingConfig,
    WorstCaseNoiseFramework,
    reference_design,
)
from repro.workloads.scenarios import build_scenario_trace, scenario_families


def main() -> None:
    print("=== Train the predictor on the D1 analogue ===")
    design = reference_design("D1", scale=0.25, seed=0)
    config = PipelineConfig(
        num_vectors=28,
        num_steps=200,
        compression_rate=0.3,
        model=ModelConfig(),
        training=TrainingConfig(epochs=30, learning_rate=2e-3, batch_size=4),
        seed=0,
    )
    framework = WorstCaseNoiseFramework(design, config)
    result = framework.run()
    predictor = result.predictor
    print(f"trained: {result.report.table_row()}")

    # The sign-off specification: worst-case noise must stay below 12% of Vdd.
    specification = 0.12 * design.spec.vdd
    print(f"\n=== Screen scenarios against a {specification * 1e3:.0f} mV specification ===")

    dt = config.dt
    analysis = DynamicNoiseAnalysis(design, dt)
    simulator_time_saved = 0.0
    flagged = []
    for index, name in enumerate(scenario_families()):
        trace = build_scenario_trace(name, design, num_steps=config.num_steps, dt=dt, seed=index)
        prediction = predictor.predict_trace(trace, design)
        predicted_worst = prediction.worst_noise
        decision = "VIOLATION -> simulate" if predicted_worst > 0.95 * specification else "pass"
        print(
            f"  {name:<22} predicted worst {predicted_worst * 1e3:6.1f} mV "
            f"({prediction.runtime_seconds * 1e3:6.1f} ms)  {decision}"
        )
        if decision.startswith("VIOLATION"):
            flagged.append((name, trace))
        else:
            # Estimate what the simulation of this vector would have cost by
            # simulating it once here (for reporting only).
            truth = analysis.run(trace)
            simulator_time_saved += truth.runtime_seconds
            if truth.worst_noise > specification:
                print(f"    WARNING: screening missed a violation on {name} "
                      f"(true worst {truth.worst_noise * 1e3:.1f} mV)")

    print("\n=== Re-simulate only the flagged scenarios ===")
    for name, trace in flagged:
        truth = analysis.run(trace)
        verdict = "confirmed" if truth.worst_noise > specification else "false alarm"
        print(
            f"  {name:<22} simulated worst {truth.worst_noise * 1e3:6.1f} mV "
            f"({truth.runtime_seconds:5.2f} s)  {verdict}"
        )

    print(
        f"\nSimulator time avoided on passing scenarios: {simulator_time_saved:.2f} s "
        f"(screening cost: {sum(r.runtime_seconds for r in [predictor.predict_trace(t, design) for _, t in flagged]) if flagged else 0.0:.2f} s of CNN inference)"
    )


if __name__ == "__main__":
    main()
