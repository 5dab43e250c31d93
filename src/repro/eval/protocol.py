"""Leave-one-design-out cross-design evaluation.

:class:`CrossDesignEvaluator` measures the paper's headline claim end to end:
for every held-out design, a model is trained on the *other* designs' corpora
(:mod:`repro.datagen` shards + the pooled
:class:`~repro.eval.training.MultiDesignTrainer`) and then evaluated on the
held-out design's vectors through the real serving stack — a
:class:`~repro.serving.PredictorRegistry` checkpoint screened by a one-shard
:class:`~repro.gateway.ScreeningGateway` — so the reported latencies and
batch statistics are those of the production path, not a bare forward loop.

The result is a :class:`CrossDesignReport`: one paper-style row per held-out
design (MAE / relative-error / max-error columns, hotspot precision/recall
and missing rate, ROC AUC, serving latency/throughput, speedup over the
simulator).  Reports are **resumable artefacts** mirroring the datagen
manifest conventions: ``report.json`` in the campaign workdir records the
config hash and every finished row, is written atomically after each held-out
design, and a re-run skips rows that are already complete.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro import faults, obs
from repro.core.inference import NoisePredictor
from repro.core.metrics import AccuracyReport, evaluate_predictions, hotspot_precision_recall
from repro.datagen.engine import GenerationReport, generate_corpus
from repro.datagen.shards import load_design_dataset
from repro.eval.config import EvalConfig
from repro.eval.training import MultiDesignTrainer
from repro.gateway import ScreeningGateway
from repro.io.atomic import atomic_write_text
from repro.io.results import ExperimentRecord, format_table, latency_throughput_columns
from repro.nn import kernels
from repro.obs.metrics import MetricsRegistry
from repro.resilience.retry import RetryPolicy, retry_in_waves
from repro.serving.registry import PredictorRegistry
from repro.utils import get_logger, require_key
from repro.workloads.dataset import NoiseDataset

__all__ = ["HeldoutEvaluation", "CrossDesignReport", "CrossDesignEvaluator"]

_LOG = get_logger("eval.protocol")

#: Report artefact file name inside a campaign workdir.
REPORT_NAME = "report.json"

#: Report artefact schema version (bumped on incompatible changes).
REPORT_VERSION = 1


@dataclass
class HeldoutEvaluation:
    """One held-out design's evaluation row.

    Attributes
    ----------
    heldout:
        Label of the design the model never saw.
    trained_on:
        Labels the pooled model was trained on.
    num_train_samples:
        Pooled training-partition size.
    num_vectors:
        Held-out vectors evaluated (the design's whole corpus — every one
        of them is unseen).
    accuracy:
        Tile-level error statistics (:class:`AccuracyReport`).
    hotspot_precision / hotspot_recall:
        Hotspot classification quality at the design's threshold.
    latency:
        Serving latency/throughput columns
        (:func:`repro.io.latency_throughput_columns`).
    service:
        Serving counters (cache hits, batch sizes) of the row's gateway.
    training_epochs / best_validation_loss / training_seconds:
        Pooled-training summary.
    serving_seconds:
        Wall-clock span of screening every held-out vector.
    simulator_seconds:
        Ground-truth simulator time for the same vectors (from the corpus).
    """

    heldout: str
    trained_on: tuple[str, ...]
    num_train_samples: int
    num_vectors: int
    accuracy: AccuracyReport
    hotspot_precision: float
    hotspot_recall: float
    latency: dict = field(default_factory=dict)
    service: dict = field(default_factory=dict)
    training_epochs: int = 0
    best_validation_loss: float = float("nan")
    training_seconds: float = 0.0
    serving_seconds: float = 0.0
    simulator_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Simulator wall-clock divided by serving wall-clock."""
        if self.serving_seconds <= 0:
            return float("inf")
        return self.simulator_seconds / self.serving_seconds

    def gated_metrics(self) -> dict:
        """The accuracy metrics a golden baseline locks in.

        Deliberately excludes every wall-clock quantity — latencies and
        speedups vary with the machine, accuracy must not.
        """
        return {
            "mean_ae_mv": self.accuracy.mean_ae_mv,
            "p99_ae_mv": self.accuracy.p99_ae_mv,
            "max_ae_mv": self.accuracy.max_ae_mv,
            "mean_re_percent": self.accuracy.mean_re_percent,
            "hotspot_precision": self.hotspot_precision,
            "hotspot_recall": self.hotspot_recall,
            "hotspot_missing_rate": self.accuracy.hotspot_missing_rate,
            "auc": self.accuracy.auc,
        }

    def as_record(self) -> ExperimentRecord:
        """This row as an :class:`ExperimentRecord` for the io exporters."""
        values = {
            "trained_on": "+".join(self.trained_on),
            "train_samples": self.num_train_samples,
            "vectors": self.num_vectors,
            **{
                key: self.accuracy.as_dict()[key]
                for key in ("mean_AE_mV", "mean_RE_%", "max_AE_mV", "AUC")
            },
            "hotspot_precision": self.hotspot_precision,
            "hotspot_recall": self.hotspot_recall,
            **self.latency,
            "speedup": self.speedup,
            "epochs": self.training_epochs,
        }
        return ExperimentRecord(experiment="cross_design", label=self.heldout, values=values)

    def to_dict(self) -> dict:
        """JSON-serialisable representation (stored in the report artefact)."""
        payload = asdict(self)
        payload["trained_on"] = list(self.trained_on)
        payload["accuracy"] = asdict(self.accuracy)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "HeldoutEvaluation":
        """Rebuild a row from :meth:`to_dict` output."""
        payload = dict(payload)
        payload["trained_on"] = tuple(payload["trained_on"])
        payload["accuracy"] = AccuracyReport(**payload["accuracy"])
        return cls(**payload)


@dataclass
class CrossDesignReport:
    """The resumable result artefact of one evaluation campaign.

    Attributes
    ----------
    config_hash:
        :meth:`EvalConfig.config_hash` of the campaign the rows belong to.
    rows:
        Finished held-out evaluations, keyed by held-out label.
    git_rev:
        Revision stamp of the generating code (provenance, best effort).
    quarantined:
        Held-out rows that exhausted their retry budget, keyed by label:
        ``{"error": repr, "attempts": n}``.  A resumed campaign re-attempts
        them (the entry is dropped on success).
    serving_dtype:
        Precision the campaign's screening ran at.  Stamped into the
        artefact so a resumed run at a different serving precision is
        rejected instead of silently mixing rows measured at different
        dtypes.
    label_solver:
        Transient strategy that produced the campaign's ground-truth labels
        (``"full"`` or ``"rom"``; see ``docs/solvers.md``).  Stamped so a
        resumed run whose config labels with a different solver is rejected
        instead of silently mixing rows against different ground truths.
    """

    config_hash: str
    rows: dict[str, HeldoutEvaluation] = field(default_factory=dict)
    git_rev: str = "unknown"
    quarantined: dict[str, dict] = field(default_factory=dict)
    serving_dtype: str = "float64"
    label_solver: str = "full"

    def records(self) -> list[ExperimentRecord]:
        """All rows as :class:`ExperimentRecord` objects, in insertion order."""
        return [row.as_record() for row in self.rows.values()]

    def table(self) -> str:
        """The paper-style text table of every finished row."""
        return format_table(self.records(), title="cross-design evaluation")

    def gated_metrics(self) -> dict:
        """Per-held-out-design gated metrics (what baselines compare)."""
        return {label: row.gated_metrics() for label, row in self.rows.items()}

    def health(self) -> dict:
        """Campaign health summary: completed vs. quarantined rows."""
        return {
            "rows_completed": len(self.rows),
            "rows_quarantined": len(self.quarantined),
            "quarantined": dict(self.quarantined),
        }

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the whole artefact."""
        return {
            "version": REPORT_VERSION,
            "config_hash": self.config_hash,
            "git_rev": self.git_rev,
            "serving_dtype": self.serving_dtype,
            "label_solver": self.label_solver,
            "rows": {label: row.to_dict() for label, row in self.rows.items()},
            "quarantined": dict(self.quarantined),
            "health": self.health(),
        }

    def save(self, path: Union[str, Path]) -> None:
        """Persist the artefact atomically as pretty-printed JSON."""
        atomic_write_text(Path(path), json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "CrossDesignReport":
        """Load an artefact written by :meth:`save`.

        Raises
        ------
        ValueError
            When the artefact schema version is unknown or a stamp
            (``serving_dtype``, ``label_solver``, ``quarantined``) is missing.
        """
        payload = json.loads(Path(path).read_text())
        if payload.get("version") != REPORT_VERSION:
            raise ValueError(
                f"unsupported report version {payload.get('version')!r} in {path}"
            )
        source = f"report {path}"
        report = cls(
            config_hash=payload["config_hash"],
            git_rev=payload.get("git_rev", "unknown"),
            serving_dtype=require_key(payload, "serving_dtype", source),
            label_solver=require_key(payload, "label_solver", source),
        )
        for label, row in payload.get("rows", {}).items():
            report.rows[label] = HeldoutEvaluation.from_dict(row)
        report.quarantined = dict(require_key(payload, "quarantined", source))
        return report


class CrossDesignEvaluator:
    """Runs a leave-one-design-out campaign inside one workdir.

    The workdir layout mirrors a datagen corpus root::

        <workdir>/
          corpus/           # the shared training/eval corpus (datagen shards)
          checkpoints/      # one served predictor checkpoint per held-out design
          report.json       # resumable campaign artefact

    Parameters
    ----------
    config:
        The campaign configuration (designs, held-out labels, budgets).
    workdir:
        Campaign root directory (created on demand).  Delete it to restart
        a campaign from scratch; everything inside is derived state.
    retry:
        Per-row retry budget (see
        :class:`~repro.resilience.retry.RetryPolicy`).  A held-out row that
        exhausts it is quarantined into the report's health section — with
        its final error — instead of aborting the campaign; the next
        resumed run re-attempts it.
    serving_dtype:
        Precision the held-out screening runs at (``"float64"`` default, or
        ``"float32"`` for the low-precision inference path).  Training always
        runs float64; the trained model is cast only when it is wrapped into
        the served predictor, and the accuracy drift is gated via the
        baseline's per-dtype tolerance bands.
    """

    def __init__(
        self,
        config: EvalConfig,
        workdir: Union[str, Path],
        retry: RetryPolicy = RetryPolicy(),
        serving_dtype: str = "float64",
    ):
        self.config = config
        self.retry = retry
        self.serving_dtype = kernels.dtype_name(serving_dtype)
        self.workdir = Path(workdir)
        self.corpus_root = self.workdir / "corpus"
        self.registry = PredictorRegistry(
            self.workdir / "checkpoints",
            capacity=max(4, len(config.heldout)),
            dtype=self.serving_dtype,
        )
        self._datasets: Optional[dict[str, NoiseDataset]] = None

    @property
    def report_path(self) -> Path:
        """Location of the campaign's resumable report artefact."""
        return self.workdir / REPORT_NAME

    # ------------------------------------------------------------------ #
    # corpus
    # ------------------------------------------------------------------ #

    def ensure_corpus(self, num_workers: Optional[int] = None) -> GenerationReport:
        """Generate (or finish) the campaign corpus via :mod:`repro.datagen`.

        Idempotent and resumable — complete shards are skipped, so calling
        this at the start of every run costs almost nothing once the corpus
        exists.
        """
        return generate_corpus(
            self.config.corpus_spec(), self.corpus_root, num_workers=num_workers
        )

    def _load_datasets(self) -> dict[str, NoiseDataset]:
        """The campaign corpus, loaded from its shards once per evaluator.

        Every held-out row needs (almost) every design's dataset, so the
        merged corpora are memoised — a multi-design campaign deserialises
        each shard once, not once per held-out design.
        """
        if self._datasets is None:
            self._datasets = {
                label: load_design_dataset(self.corpus_root, label)
                for label in self.config.labels
            }
        return self._datasets

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #

    def evaluate_heldout(self, heldout: str) -> HeldoutEvaluation:
        """Train on every other design and evaluate on ``heldout``.

        The trained model is registered (and checkpointed) in the campaign
        registry under the held-out label, then every held-out vector is
        screened through a one-shard :class:`ScreeningGateway` on top of that
        registry — the measured latencies are the serving stack's,
        micro-batching and all.  The held-out design contributes **nothing**
        to training: not its vectors, not its normaliser scales; only its
        distance tensor is given to the predictor, exactly as a new design's
        geometry would be.
        """
        faults.active().before_row(heldout)
        config = self.config
        trained_on = config.training_labels(heldout)
        datasets = self._load_datasets()
        heldout_dataset = datasets[heldout]
        tracer = obs.get_tracer()

        trainer = MultiDesignTrainer(
            {label: datasets[label] for label in trained_on},
            model_config=config.model,
            training_config=config.training,
            train_fraction=config.train_fraction,
            validation_ratio=config.validation_ratio,
        )
        with tracer.span("eval.training", heldout=heldout) as training_span:
            trained = trainer.train()

        predictor = NoisePredictor(
            model=trained.model,
            normalizer=trained.normalizer,
            distance=heldout_dataset.distance,
            compression_rate=config.compression_rate,
            dtype=self.serving_dtype,
        )
        self.registry.register(heldout, predictor)

        features = [sample.features for sample in heldout_dataset.samples]
        # A private live registry: the held-out row needs latency percentiles
        # even when observability is globally off, and must not mix its
        # histograms with other rows' samples.  When a run is active, the
        # row's metrics are folded into the global registry afterwards.
        service_metrics = MetricsRegistry()
        with ScreeningGateway(
            self.registry.root,
            num_shards=1,
            queue_limit=len(features),
            max_batch=config.max_batch,
            metrics=service_metrics,
        ) as gateway:
            # The freshly trained predictor is served as it is in memory.
            gateway.swap_checkpoint(heldout, predictor, persist=False).result()
            with tracer.span("eval.serving", heldout=heldout) as serving_span:
                results = gateway.screen([(item, heldout) for item in features])
        counts = gateway.counts()
        keys = ("cache_hits", "coalesced", "model_batches", "mean_batch_size", "max_batch_observed")
        service_counters = {key: counts[key] for key in keys}
        if obs.enabled():
            obs.metrics().merge_snapshot(service_metrics.snapshot())

        predicted = np.stack([result.noise_map for result in results])
        truth = np.stack([sample.target for sample in heldout_dataset.samples])
        accuracy = evaluate_predictions(
            predicted, truth, hotspot_threshold=heldout_dataset.hotspot_threshold
        )
        precision, recall = hotspot_precision_recall(
            predicted, truth, heldout_dataset.hotspot_threshold
        )
        row = HeldoutEvaluation(
            heldout=heldout,
            trained_on=trained_on,
            num_train_samples=trained.num_train_samples,
            num_vectors=len(features),
            accuracy=accuracy,
            hotspot_precision=precision,
            hotspot_recall=recall,
            latency=latency_throughput_columns(
                service_metrics.get("gateway.request_latency.ok"),
                total_seconds=serving_span.duration_s,
                vectors=len(features),
            ),
            service=service_counters,
            training_epochs=trained.history.num_epochs,
            best_validation_loss=trained.history.best_validation_loss,
            training_seconds=training_span.duration_s,
            serving_seconds=serving_span.duration_s,
            simulator_seconds=heldout_dataset.total_sim_runtime,
        )
        _LOG.info(
            "heldout %s (trained on %s): %s",
            heldout,
            "+".join(trained_on),
            accuracy.table_row(),
        )
        return row

    def load_report(self) -> Optional[CrossDesignReport]:
        """Load the existing report artefact, or ``None`` when absent.

        Raises
        ------
        ValueError
            When the artefact belongs to a different campaign configuration
            (config-hash mismatch) — delete the workdir or use a fresh one.
        """
        if not self.report_path.exists():
            return None
        report = CrossDesignReport.load(self.report_path)
        expected = self.config.config_hash()
        if report.config_hash != expected:
            raise ValueError(
                f"report at {self.report_path} belongs to a different campaign "
                f"(artefact hash {report.config_hash[:12]}…, "
                f"config hash {expected[:12]}…); use a fresh workdir"
            )
        if report.serving_dtype != self.serving_dtype:
            raise ValueError(
                f"report at {self.report_path} was measured at serving dtype "
                f"{report.serving_dtype}, this campaign serves at "
                f"{self.serving_dtype}; use a fresh workdir"
            )
        if report.label_solver != self.config.solver_mode:
            raise ValueError(
                f"report at {self.report_path} was labelled by the "
                f"{report.label_solver!r} solver, this campaign labels with "
                f"{self.config.solver_mode!r}; use a fresh workdir"
            )
        return report

    def _evaluate_heldout_safe(self, heldout: str) -> dict:
        """Evaluate one row, converting errors into failure outcomes.

        Only :class:`Exception` is converted; an injected
        :class:`~repro.faults.WorkerKilled` still unwinds, so a preempted
        campaign resumes instead of half-reporting.
        """
        try:
            return {"row": self.evaluate_heldout(heldout)}
        except Exception as error:
            return {"failed": True, "error": repr(error)}

    def run(
        self, num_workers: Optional[int] = None, resume: bool = True
    ) -> CrossDesignReport:
        """Run (or finish) the whole campaign.

        Ensures the corpus, then evaluates every held-out design that the
        report artefact does not already contain, saving the artefact
        atomically after each row — killing the run loses at most the row in
        flight, and a re-run picks up where it stopped.  Rows are retried
        under the evaluator's :class:`~repro.resilience.retry.RetryPolicy`;
        a row that exhausts it is quarantined into the report (and
        re-attempted by the next resumed run) instead of aborting the rest
        of the campaign.

        Parameters
        ----------
        num_workers:
            Worker processes for corpus generation (``0`` = inline).
        resume:
            ``False`` discards any existing report rows and re-evaluates
            everything (the corpus is still reused).
        """
        self.ensure_corpus(num_workers=num_workers)
        report = self.load_report() if resume else None
        if report is None:
            from repro.datagen.shards import git_revision

            report = CrossDesignReport(
                config_hash=self.config.config_hash(),
                git_rev=git_revision(),
                serving_dtype=self.serving_dtype,
                label_solver=self.config.solver_mode,
            )
        started = time.perf_counter()

        def save() -> None:
            self.workdir.mkdir(parents=True, exist_ok=True)
            report.save(self.report_path)

        def run_wave(wave: list[str]) -> list[tuple[str, dict]]:
            return [(heldout, self._evaluate_heldout_safe(heldout)) for heldout in wave]

        def on_success(heldout: str, outcome: dict) -> None:
            report.rows[heldout] = outcome["row"]
            report.quarantined.pop(heldout, None)
            save()

        def on_exhausted(heldout: str, outcome: dict, attempts: int) -> None:
            # Quarantine the row, keep the campaign going.
            obs.metrics().counter("faults.quarantined_rows").inc()
            report.quarantined[heldout] = {"error": outcome["error"], "attempts": attempts}
            _LOG.warning(
                "heldout %s quarantined after %d attempts: %s",
                heldout,
                attempts,
                outcome["error"],
            )
            save()

        for heldout in self.config.heldout:
            if heldout in report.rows:
                _LOG.info("heldout %s already evaluated; skipping", heldout)
                continue
            # A wave of one row: rows run (and retry) in config order.
            retry_in_waves(
                [heldout],
                run_wave,
                self.retry,
                on_success=on_success,
                on_exhausted=on_exhausted,
            )
        save()
        _LOG.info(
            "campaign %s: %d/%d rows complete, %d quarantined (%.1f s this run)",
            self.config.name,
            len(report.rows),
            len(self.config.heldout),
            len(report.quarantined),
            time.perf_counter() - started,
        )
        return report
