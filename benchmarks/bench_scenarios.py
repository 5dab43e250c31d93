"""Scenario-mix generation cost vs the all-random corpus path.

Blending scenario vectors into a training corpus
(``CorpusDesignSpec.scenario_mix``) must be essentially free: the transient
ground-truth simulation dominates shard cost, and building a scenario trace
is no more expensive than composing a random vector.  This benchmark
generates the same-size corpus twice at equal vector count —

* ``random``       — the classic all-random corpus;
* ``scenario_mix`` — half the vectors drawn from an 8-family scenario mix
  (parameter variants and a composition included);

and asserts:

1. **<= 1.2x cost** — the scenario-mix corpus generates within 1.2x the
   wall-clock of the random corpus (best-of-N each);
2. **determinism** — two scenario-mix runs of the same spec produce
   identical shard content hashes;
3. **blend correctness** — exactly the spec'd vector indices differ from
   the random corpus, and the rest are bit-identical.
"""

from __future__ import annotations

import itertools

import numpy as np

from common import best_of, save_records
from repro.datagen import (
    CorpusDesignSpec,
    CorpusSpec,
    generate_corpus,
    load_design_dataset,
)
from repro.io import ExperimentRecord
from repro.workloads import overlay, scenario_spec

#: Eight distinct scenario families in the mix (with variants/composition).
MIX = (
    "power_virus",
    "idle_to_turbo",
    scenario_spec("staggered_dvfs", stagger=0.1),
    "thermal_throttle",
    "memory_phase",
    scenario_spec("resonance_chirp", stop_scale=1.5),
    "didt_step_train",
    overlay("duty_cycle_sweep", "cluster_migration"),
)

ROUNDS = 3
MAX_RATIO = 1.2


def _spec(with_mix: bool) -> CorpusSpec:
    fields = dict(
        label="bench", design="D1@0.08", num_vectors=48, num_steps=400,
        shard_size=24, seed=11,
    )
    if with_mix:
        fields.update(scenario_mix=MIX, scenario_fraction=0.5)
    return CorpusSpec(designs=(CorpusDesignSpec(**fields),))


def test_scenario_mix_generation_cost(benchmark, tmp_path):
    """Scenario-mix shard generation stays within 1.2x the random path."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    # Every run generates into a fresh directory (random-0, random-1, ...),
    # so none resumes another.
    random_runs, mix_runs = itertools.count(), itertools.count()
    random_seconds, _ = best_of(
        ROUNDS,
        lambda: generate_corpus(
            _spec(False), tmp_path / f"random-{next(random_runs)}", num_workers=0
        ),
    )
    mix_seconds, _ = best_of(
        ROUNDS,
        lambda: generate_corpus(_spec(True), tmp_path / f"mix-{next(mix_runs)}", num_workers=0),
    )
    ratio = mix_seconds / random_seconds

    records = [
        ExperimentRecord(
            "scenarios",
            "random_corpus",
            {"total_s": random_seconds, "vectors": _spec(False).total_vectors},
        ),
        ExperimentRecord(
            "scenarios",
            "scenario_mix_corpus",
            {
                "total_s": mix_seconds,
                "vectors": _spec(True).total_vectors,
                "mix_families": len(MIX),
                "cost_ratio_vs_random": ratio,
            },
        ),
    ]
    save_records(records, "scenarios", "Scenario-mix vs random corpus generation")

    # Determinism: two mix runs bit-reproduce each other.
    first = load_design_dataset(tmp_path / "mix-0", "bench", verify=True)
    second = load_design_dataset(tmp_path / "mix-1", "bench", verify=True)
    for a, b in zip(first.samples, second.samples):
        assert a.name == b.name
        np.testing.assert_array_equal(a.features.current_maps, b.features.current_maps)

    # Blend correctness: scenario slots differ from the random corpus, the
    # other vectors are bit-identical.
    random_ds = load_design_dataset(tmp_path / "random-0", "bench")
    assignment = _spec(True).designs[0].scenario_assignment()
    assert len(assignment) == 24
    differing = 0
    for index, (mixed, random) in enumerate(zip(first.samples, random_ds.samples)):
        same = np.array_equal(mixed.features.current_maps, random.features.current_maps)
        if index in assignment:
            assert not same
            differing += 1
        else:
            assert same
    assert differing == len(assignment)

    assert ratio <= MAX_RATIO, (
        f"scenario-mix corpus cost {ratio:.2f}x the random corpus "
        f"(budget {MAX_RATIO}x): {mix_seconds:.2f}s vs {random_seconds:.2f}s"
    )
