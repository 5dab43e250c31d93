"""Multi-process scenario sweeps.

``screen_scenarios`` fans a list of named workload scenarios (see
:mod:`repro.workloads.scenarios`) out across a pool of worker processes.
Each worker owns a :class:`~repro.serving.registry.PredictorRegistry` rooted
at the shared checkpoint directory plus a small design cache, so designs and
predictors are built/loaded once per worker rather than once per job.  The
results come back as :class:`~repro.io.results.ExperimentRecord` rows ready
for the standard table/CSV/JSON exporters.

Checkpoints — not live predictor objects — are what crosses the process
boundary, which keeps the jobs picklable and guarantees every worker serves
exactly the bytes that were registered.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.io.results import ExperimentRecord
from repro.pdn.designs import Design, design_from_name
from repro.serving.registry import PredictorRegistry
from repro import obs
from repro.utils import get_logger
from repro.workloads.scenarios import build_scenario_trace
from repro.workloads.specs import ScenarioLike, normalize_scenario

_LOG = get_logger("serving.sweep")

DesignFactory = Callable[[str], Design]


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
        Process count; ``0`` runs everything inline in this process (useful
        for tests and debugging), ``None`` picks ``min(len(jobs), cpu_count)``.
        When the platform refuses to spawn processes the sweep degrades to
        inline execution rather than failing.
    experiment:
        Experiment tag stamped on every record.
    """
    if not jobs:
        return []
    registry_root = str(registry_root)
    if num_workers is None:
        num_workers = min(len(jobs), os.cpu_count() or 1)

    rows: list[dict]
    if num_workers and num_workers > 0:
        try:
            pool = ProcessPoolExecutor(
                max_workers=num_workers,
                initializer=_worker_init,
                initargs=(registry_root, design_factory),
            )
        except (OSError, PermissionError, NotImplementedError) as error:
            _LOG.warning("cannot create process pool (%s); running sweep inline", error)
            rows = _run_inline(jobs, registry_root, design_factory)
        else:
            with pool:
                try:
                    rows = list(pool.map(_run_job, jobs))
                except (BrokenProcessPool, pickle.PicklingError) as error:
                    # Worker startup/transport failure, not a job failure —
                    # job exceptions (bad checkpoint, unknown scenario, ...)
                    # propagate unchanged instead of re-running inline.
                    _LOG.warning(
                        "process pool broke (%s); running sweep inline", error
                    )
                    rows = _run_inline(jobs, registry_root, design_factory)
    else:
        rows = _run_inline(jobs, registry_root, design_factory)

    records = []
    for row in rows:
        label = f"{row['design']}:{row['scenario']}"
        records.append(ExperimentRecord(experiment=experiment, label=label, values=row))
    return records


def _run_inline(
    jobs: Sequence[ScenarioJob], registry_root: str, design_factory: DesignFactory
) -> list[dict]:
    """Run the sweep in-process (no pool)."""
    _worker_init(registry_root, design_factory)
    return [_run_job(job) for job in jobs]
