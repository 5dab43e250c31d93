"""Workload (test-vector) generation and labelled-dataset construction.

Two generators share one activity contract (:mod:`repro.workloads.activity`):

* :mod:`repro.workloads.vectors` — random test vectors composed from
  per-cluster activity events, the paper's training/sign-off workload;
* :mod:`repro.workloads.scenarios` — the scenario *library*: a registry of
  parameterized, recognisable workload families (DVFS ramps, power viruses,
  thermal throttling, di/dt step trains, ...) selected by declarative
  :class:`~repro.workloads.specs.ScenarioSpec` objects and composable via
  :func:`~repro.workloads.specs.overlay` / :func:`~repro.workloads.specs.
  concat` / :func:`~repro.workloads.specs.mix`.

:mod:`repro.workloads.dataset` turns either kind of trace into labelled
training data (simulated ground truth plus features) and implements the
paper's training-set expansion split.  See ``docs/workloads.md`` for the
scenario-family catalogue and the composition algebra.
"""

from repro.workloads.activity import (
    DEFAULT_MAX_ACTIVITY,
    clamp_activity,
    cluster_activity_to_currents,
    num_activity_profiles,
    resonance_steps,
)
from repro.workloads.vectors import (
    EVENT_KINDS,
    TestVectorGenerator,
    VectorConfig,
    generate_test_vectors,
)
from repro.workloads.specs import (
    COMPOSITE_FAMILIES,
    ScenarioSpec,
    composite_weights,
    concat,
    mix,
    normalize_scenario,
    overlay,
    scenario_spec,
)
from repro.workloads.scenarios import (
    ScenarioFamily,
    build_scenario_activity,
    build_scenario_trace,
    family_defaults,
    register_scenario_family,
    scenario_families,
    validate_scenario,
)
from repro.workloads.dataset import (
    DatasetSplit,
    NoiseDataset,
    NoiseSample,
    build_dataset,
    expansion_split,
    merge_datasets,
)

__all__ = [
    "DEFAULT_MAX_ACTIVITY",
    "clamp_activity",
    "cluster_activity_to_currents",
    "num_activity_profiles",
    "resonance_steps",
    "EVENT_KINDS",
    "TestVectorGenerator",
    "VectorConfig",
    "generate_test_vectors",
    "COMPOSITE_FAMILIES",
    "ScenarioSpec",
    "ScenarioFamily",
    "scenario_spec",
    "normalize_scenario",
    "composite_weights",
    "overlay",
    "concat",
    "mix",
    "build_scenario_activity",
    "build_scenario_trace",
    "family_defaults",
    "register_scenario_family",
    "scenario_families",
    "validate_scenario",
    "DatasetSplit",
    "NoiseDataset",
    "NoiseSample",
    "build_dataset",
    "expansion_split",
    "merge_datasets",
]
