"""Multi-process scenario sweeps.

``screen_scenarios`` fans a list of named workload scenarios (see
:mod:`repro.workloads.scenarios`) out across worker processes through
:func:`repro.resilience.fan_out`.  Each worker owns a
:class:`~repro.serving.registry.PredictorRegistry` rooted at the shared
checkpoint directory plus a small design cache, so designs and predictors are
built/loaded once per worker rather than once per job.  The results come back
as :class:`~repro.io.results.ExperimentRecord` rows ready for the standard
table/CSV/JSON exporters.

Checkpoints — not live predictor objects — are what crosses the process
boundary, which keeps the jobs picklable and guarantees every worker serves
exactly the bytes that were registered.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.io.results import ExperimentRecord
from repro.pdn.designs import Design, DesignFactory, design_from_name
from repro.resilience.fanout import fan_out
from repro.serving.registry import PredictorRegistry
from repro import obs
from repro.workloads.scenarios import build_scenario_trace
from repro.workloads.specs import ScenarioLike, normalize_scenario


@dataclass(frozen=True)
class ScenarioJob:
    """One (design, scenario) screening task.

    Attributes
    ----------
    design:
        Design name understood by the sweep's design factory (and matching a
        registered checkpoint).
    scenario:
        A family name from :func:`repro.workloads.scenarios.scenario_families`
        or a :class:`~repro.workloads.specs.ScenarioSpec` — parameter
        variants and compositions screen exactly like named scenarios.
    num_steps / dt:
        Trace length and time step handed to the scenario builder.
    seed:
        Seed for the scenario's random choices.
    """

    design: str
    scenario: ScenarioLike
    num_steps: int = 200
    dt: float = 1e-11
    seed: int = 0

    @property
    def scenario_label(self) -> str:
        """Short scenario identifier (family name, or family + spec hash)."""
        return normalize_scenario(self.scenario).label


# Per-worker state, initialised once per process by _worker_init.
_WORKER_REGISTRY: Optional[PredictorRegistry] = None
_WORKER_FACTORY: Optional[DesignFactory] = None
_WORKER_DESIGNS: dict[str, Design] = {}


def _worker_init(registry_root: str, factory: DesignFactory) -> None:
    global _WORKER_REGISTRY, _WORKER_FACTORY
    _WORKER_REGISTRY = PredictorRegistry(registry_root)
    _WORKER_FACTORY = factory
    _WORKER_DESIGNS.clear()


def _run_job(job: ScenarioJob) -> dict:
    """Screen one scenario inside a worker; returns plain record fields."""
    assert _WORKER_REGISTRY is not None and _WORKER_FACTORY is not None
    design = _WORKER_DESIGNS.get(job.design)
    if design is None:
        design = _WORKER_FACTORY(job.design)
        _WORKER_DESIGNS[job.design] = design
    predictor = _WORKER_REGISTRY.get(job.design)
    trace = build_scenario_trace(
        job.scenario, design, num_steps=job.num_steps, dt=job.dt, seed=job.seed
    )
    with obs.get_tracer().span(
        "serving.sweep.job", design=job.design, scenario=job.scenario_label
    ) as predict_span:
        result = predictor.predict_trace(trace, design)
    obs.metrics().histogram("serving.sweep.predict_seconds").observe(predict_span.duration_s)
    obs.flush_shard()
    hotspots = result.hotspot_map(design.spec.hotspot_threshold)
    return {
        "design": job.design,
        "scenario": job.scenario_label,
        "worst_noise_v": result.worst_noise,
        "mean_noise_v": float(np.mean(result.noise_map)),
        "hotspot_fraction": float(np.mean(hotspots)),
        "runtime_s": predict_span.duration_s,
        "worker_pid": os.getpid(),
    }


def screen_scenarios(
    jobs: Sequence[ScenarioJob],
    registry_root: Union[str, Path],
    design_factory: DesignFactory = design_from_name,
    num_workers: Optional[int] = None,
    experiment: str = "serving_sweep",
) -> list[ExperimentRecord]:
    """Screen every job, fanned out across worker processes.

    Parameters
    ----------
    jobs:
        The (design, scenario) tasks; job order is preserved in the output.
    registry_root:
        Directory of per-design checkpoints (see
        :meth:`PredictorRegistry.register`); every design referenced by a job
        must have a checkpoint there.
    design_factory:
        Top-level callable rebuilding a design from its name inside each
        worker (must be importable, i.e. picklable by reference).
    num_workers:
        Process count, as :func:`repro.resilience.fan_out` reads it; job
        exceptions propagate unchanged.
    experiment:
        Experiment tag stamped on every record.
    """
    if not jobs:
        return []
    outcomes = fan_out(
        _run_job,
        jobs,
        num_workers=num_workers,
        initializer=_worker_init,
        initargs=(str(registry_root), design_factory),
    )
    return [
        ExperimentRecord(
            experiment=experiment, label=f"{row['design']}:{row['scenario']}", values=row
        )
        for _, row in outcomes
    ]
