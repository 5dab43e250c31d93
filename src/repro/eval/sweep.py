"""Scenario sweeps over the cross-design campaign's trained models.

Where :class:`~repro.eval.protocol.CrossDesignEvaluator` measures accuracy on
the held-out designs' *random* test vectors, :class:`ScenarioSweep` stresses
the same trained models with the named workload scenarios of
:mod:`repro.workloads.scenarios` — DVFS ramps, power viruses, clock-gating
storms — across trace-length and seed variants.  Every job simulates the
scenario's ground truth, predicts it through the campaign's served
checkpoint, and reports the noise-map error plus hotspot precision/recall,
so the sweep answers the question the random vectors cannot: does the model
hold up on *structured* workloads it was never trained for?

Jobs fan out across worker processes through :func:`repro.resilience.fan_out`
like the datagen engine's shards (checkpoints cross the process boundary,
each worker builds its designs and transient factorisations once), and the
sweep manifest (``sweep.json``) follows the same resumable-artefact
conventions: config hash, atomic row-by-row saves, complete rows skipped on
re-run.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.core.metrics import hotspot_precision_recall
from repro.eval.config import EvalConfig
from repro.io.atomic import atomic_write_text
from repro.io.results import ExperimentRecord, format_table
from repro.pdn.designs import Design, design_from_name
from repro.resilience.fanout import fan_out
from repro.resilience.retry import RetryPolicy, retry_in_waves
from repro.serving.registry import PredictorRegistry
from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro import faults, obs
from repro.utils import get_logger, require_key
from repro.workloads.scenarios import build_scenario_trace
from repro.workloads.specs import ScenarioLike, normalize_scenario

__all__ = ["SweepJob", "ScenarioSweep"]

_LOG = get_logger("eval.sweep")

#: Sweep manifest file name inside a campaign workdir.
SWEEP_NAME = "sweep.json"

#: Sweep manifest schema version.
SWEEP_VERSION = 1


@dataclass(frozen=True)
class SweepJob:
    """One (held-out design, scenario, variant) evaluation task.

    Attributes
    ----------
    heldout:
        Held-out design label (must have a checkpoint in the campaign
        registry).
    scenario:
        A family name from :func:`repro.workloads.scenarios.scenario_families`
        or a :class:`~repro.workloads.specs.ScenarioSpec` parameter variant.
    num_steps:
        Trace length of this variant.
    seed:
        Seed for the scenario's random choices.
    """

    heldout: str
    scenario: ScenarioLike
    num_steps: int
    seed: int

    @property
    def scenario_label(self) -> str:
        """Short scenario identifier (family name, or family + spec hash)."""
        return normalize_scenario(self.scenario).label

    @property
    def key(self) -> str:
        """Stable manifest key of this job (name-only jobs keep legacy keys)."""
        return f"{self.heldout}:{self.scenario_label}:{self.num_steps}:s{self.seed}"


# Per-worker state, initialised once per process by _worker_init.
_WORKER_REGISTRY: Optional[PredictorRegistry] = None
_WORKER_REFERENCES: dict[str, str] = {}
_WORKER_DT: float = 1e-11
_WORKER_DESIGNS: dict[str, Design] = {}
_WORKER_ANALYSES: dict[str, DynamicNoiseAnalysis] = {}


def _worker_init(registry_root: str, references: dict[str, str], dt: float) -> None:
    """Process-pool initializer: registry + design references, fresh caches."""
    global _WORKER_REGISTRY, _WORKER_DT
    _WORKER_REGISTRY = PredictorRegistry(registry_root)
    _WORKER_REFERENCES.clear()
    _WORKER_REFERENCES.update(references)
    _WORKER_DT = dt
    _WORKER_DESIGNS.clear()
    _WORKER_ANALYSES.clear()


def _worker_design(label: str) -> Design:
    """Build (or fetch) this worker's instance of a held-out design."""
    design = _WORKER_DESIGNS.get(label)
    if design is None:
        design = design_from_name(_WORKER_REFERENCES[label])
        _WORKER_DESIGNS[label] = design
    return design


def _worker_analysis(label: str) -> DynamicNoiseAnalysis:
    """Build (or fetch) the cached ground-truth analysis for one design."""
    analysis = _WORKER_ANALYSES.get(label)
    if analysis is None:
        analysis = DynamicNoiseAnalysis(_worker_design(label), _WORKER_DT)
        _WORKER_ANALYSES[label] = analysis
    return analysis


def _run_sweep_job(job: SweepJob) -> dict:
    """Run one sweep job inside a worker; returns plain row fields."""
    assert _WORKER_REGISTRY is not None
    faults.active().before_row(job.key)
    design = _worker_design(job.heldout)
    predictor = _WORKER_REGISTRY.get(job.heldout)
    trace = build_scenario_trace(
        job.scenario, design, num_steps=job.num_steps, dt=_WORKER_DT, seed=job.seed
    )
    truth = _worker_analysis(job.heldout).run(trace)
    with obs.get_tracer().span(
        "eval.sweep.job", heldout=job.heldout, scenario=job.scenario_label
    ) as predict_span:
        prediction = predictor.predict_trace(trace, design)
    obs.metrics().histogram("eval.sweep.predict_seconds").observe(predict_span.duration_s)
    obs.flush_shard()
    threshold = design.spec.hotspot_threshold
    precision, recall = hotspot_precision_recall(
        prediction.noise_map, truth.tile_noise, threshold
    )
    return {
        "heldout": job.heldout,
        "scenario": job.scenario_label,
        "num_steps": job.num_steps,
        "seed": job.seed,
        "true_worst_noise_v": float(np.max(truth.tile_noise)),
        "predicted_worst_noise_v": prediction.worst_noise,
        "worst_noise_error_mv": abs(prediction.worst_noise - float(np.max(truth.tile_noise)))
        * 1e3,
        "map_mae_mv": float(np.mean(np.abs(prediction.noise_map - truth.tile_noise))) * 1e3,
        "hotspot_precision": precision,
        "hotspot_recall": recall,
        "sim_runtime_s": truth.runtime_seconds,
        "predict_runtime_s": predict_span.duration_s,
        "speedup": truth.runtime_seconds / predict_span.duration_s
        if predict_span.duration_s > 0
        else float("inf"),
        "worker_pid": os.getpid(),
    }


def _run_sweep_job_safe(job: SweepJob) -> dict:
    """Run one job, converting errors into picklable failure outcomes.

    Only :class:`Exception` is converted; an injected
    :class:`~repro.faults.WorkerKilled` still unwinds the worker, exactly
    like a real kill.
    """
    try:
        return _run_sweep_job(job)
    except Exception as error:
        return {"failed": True, "key": job.key, "error": repr(error)}


class ScenarioSweep:
    """Fans scenario-variant evaluations across a process pool, resumably.

    Parameters
    ----------
    config:
        The campaign configuration (supplies the scenario grid, the design
        references and the held-out labels).
    workdir:
        The campaign workdir of the :class:`CrossDesignEvaluator` that
        trained the checkpoints; the sweep reads ``<workdir>/checkpoints``
        and writes ``<workdir>/sweep.json``.
    retry:
        Per-row retry budget, spent in waves as :meth:`run` describes;
        exhausted rows are *quarantined* into the manifest with their final
        error instead of killing the sweep.
    """

    def __init__(
        self,
        config: EvalConfig,
        workdir: Union[str, Path],
        retry: RetryPolicy = RetryPolicy(),
    ):
        self.config = config
        self.workdir = Path(workdir)
        self.registry_root = self.workdir / "checkpoints"
        self.retry = retry

    @property
    def manifest_path(self) -> Path:
        """Location of the sweep's resumable manifest."""
        return self.workdir / SWEEP_NAME

    def jobs(self) -> list[SweepJob]:
        """The full job grid: held-out designs x scenarios x variants."""
        return [
            SweepJob(heldout=heldout, scenario=scenario, num_steps=steps, seed=seed)
            for heldout in self.config.heldout
            for scenario in self.config.scenarios
            for steps in self.config.scenario_steps
            for seed in self.config.scenario_seeds
        ]

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #

    def load_rows(self) -> dict[str, dict]:
        """Completed rows from the manifest (empty when none exists).

        Raises
        ------
        ValueError
            On a schema-version or config-hash mismatch — the manifest
            belongs to a different campaign.
        """
        if not self.manifest_path.exists():
            return {}
        payload = json.loads(self.manifest_path.read_text())
        if payload.get("version") != SWEEP_VERSION:
            raise ValueError(
                f"unsupported sweep manifest version {payload.get('version')!r} "
                f"in {self.manifest_path}"
            )
        expected = self.config.config_hash()
        if payload.get("config_hash") != expected:
            raise ValueError(
                f"sweep manifest at {self.manifest_path} belongs to a different "
                f"campaign (manifest hash {payload.get('config_hash', '')[:12]}…, "
                f"config hash {expected[:12]}…); use a fresh workdir"
            )
        return dict(payload.get("rows", {}))

    def load_quarantined(self) -> dict[str, dict]:
        """Quarantined rows from the manifest: key -> {error, attempts}.

        Empty when the manifest is missing; a manifest without a
        ``quarantined`` section raises ``ValueError``.
        """
        if not self.manifest_path.exists():
            return {}
        payload = json.loads(self.manifest_path.read_text())
        return dict(require_key(payload, "quarantined", f"sweep manifest {self.manifest_path}"))

    def _save_rows(
        self, rows: dict[str, dict], quarantined: Optional[dict[str, dict]] = None
    ) -> None:
        """Persist the manifest atomically (rows + quarantine + health)."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        quarantined = quarantined or {}
        payload = {
            "version": SWEEP_VERSION,
            "config_hash": self.config.config_hash(),
            "rows": rows,
            "quarantined": quarantined,
            "health": {
                "rows_completed": len(rows),
                "rows_quarantined": len(quarantined),
            },
        }
        atomic_write_text(self.manifest_path, json.dumps(payload, indent=2, sort_keys=True))

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #

    def run(
        self, num_workers: Optional[int] = None, resume: bool = True
    ) -> list[ExperimentRecord]:
        """Run (or finish) the sweep and return every completed row as a record.

        Pending jobs fan out across ``num_workers`` processes, as
        :func:`repro.resilience.fan_out` reads the count; the manifest is
        re-saved after every finished job, so an interrupted sweep resumes
        from the last completed row.  Failed rows are retried under the
        sweep's :class:`~repro.resilience.retry.RetryPolicy`; rows that
        exhaust it are quarantined in the manifest (and re-attempted by the
        next resumed run) rather than aborting the sweep.
        """
        jobs = self.jobs()
        rows = self.load_rows() if resume else {}
        # Previously quarantined rows get a fresh chance each resumed run:
        # the quarantine is rebuilt from this run's failures only.
        quarantined: dict[str, dict] = {}
        pending = [job for job in jobs if job.key not in rows]
        new_target = len(pending)
        metrics = obs.metrics()
        if pending:
            references = {
                heldout: self.config.design_reference(heldout)
                for heldout in self.config.heldout
            }

            def on_success(job, outcome):
                rows[job.key] = outcome
                self._save_rows(rows, quarantined)

            def on_exhausted(job, outcome, attempts):
                metrics.counter("faults.quarantined_rows").inc()
                quarantined[job.key] = {"error": outcome["error"], "attempts": attempts}
                _LOG.warning(
                    "sweep row %s quarantined after %d attempts: %s",
                    job.key,
                    attempts,
                    outcome["error"],
                )
                self._save_rows(rows, quarantined)

            retry_in_waves(
                pending,
                functools.partial(
                    fan_out,
                    _run_sweep_job_safe,
                    num_workers=num_workers,
                    initializer=_worker_init,
                    initargs=(str(self.registry_root), references, self.config.dt),
                ),
                self.retry,
                on_success=on_success,
                on_exhausted=on_exhausted,
            )
        else:
            _LOG.info("sweep already complete (%d rows)", len(rows))
        self._save_rows(rows, quarantined)
        records = [
            ExperimentRecord(
                experiment="scenario_sweep",
                label=job.key,
                values=rows[job.key],
            )
            for job in jobs
            if job.key in rows
        ]
        _LOG.info(
            "scenario sweep: %d rows (%d new, %d quarantined)\n%s",
            len(records),
            new_target - len(quarantined),
            len(quarantined),
            format_table(records, title="scenario sweep"),
        )
        return records

