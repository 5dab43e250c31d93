"""The corpus generation engine: shard tasks, worker pool, resume logic.

:func:`generate_corpus` turns a :class:`~repro.datagen.spec.CorpusSpec` into
on-disk shards.  The unit of work is one *shard* — a contiguous slice of one
design's vector suite — and shards are independent by construction, so they
fan out across worker processes through :func:`repro.resilience.fan_out`,
like the sweeps' scenarios: design factory *references* cross the process
boundary, each worker builds its designs and transient factorisations once,
and every shard is written atomically with its content hash recorded in the
manifest.

Determinism contract: vector ``i`` of a design is generated from the ``i``-th
generator of ``spawn_rngs(seed, num_vectors)`` — the exact derivation
:meth:`~repro.workloads.vectors.TestVectorGenerator.generate_suite` uses —
and every simulation step is deterministic.  A corpus is therefore a pure,
bit-reproducible function of its spec (modulo wall-clock ``sim_runtime``
bookkeeping, which the content hashes exclude), no matter how the run was
parallelised, interrupted or resumed; against the sequential per-vector
pipeline it agrees to solver rounding (see ``docs/data-pipeline.md``).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import faults, obs
from repro.datagen.shards import (
    CorpusManifest,
    ShardRecord,
    ShardStore,
    dataset_content_hash,
)
from repro.datagen.spec import CorpusDesignSpec, CorpusSpec
from repro.pdn.designs import Design, DesignFactory, design_from_name
from repro.resilience.errors import CorruptShardError, ShardFailedError
from repro.resilience.fanout import FaultsFactory, fan_out
from repro.resilience.quarantine import poisoned_sample_indices
from repro.resilience.retry import RetryPolicy, retry_in_waves
from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro.sim.rom import ROMOptions
from repro.sim.transient import TransientOptions
from repro.utils import get_logger
from repro.utils.random import spawn_rngs
from repro.workloads.dataset import build_dataset
from repro.workloads.scenarios import build_scenario_trace
from repro.workloads.vectors import TestVectorGenerator

_LOG = get_logger("datagen.engine")


@dataclass(frozen=True)
class GenerationPolicy:
    """Failure-handling knobs of one :func:`generate_corpus` run.

    Attributes
    ----------
    retry:
        Per-shard retry budget, spent in waves by
        :func:`repro.resilience.retry_in_waves`.
    quarantine:
        Scan each shard's freshly simulated dataset for non-finite labels or
        current maps; poisoned vectors are dropped from the shard and
        recorded in the manifest's ``quarantined`` list instead of crashing
        the run.
    verify_resume:
        On resume, recompute the content hash of every shard the manifest
        says is complete; corrupt or unreadable shards are regenerated
        instead of trusted.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    quarantine: bool = True
    verify_resume: bool = True


@dataclass(frozen=True)
class _ShardTask:
    """One shard's worth of generation work (picklable, self-contained)."""

    root: str
    label: str
    index: int
    design_spec: CorpusDesignSpec
    sim_batch_size: int
    quarantine: bool = True
    solver_mode: str = "full"
    rom: Optional[ROMOptions] = None


@dataclass
class GenerationReport:
    """Outcome of one :func:`generate_corpus` call.

    Attributes
    ----------
    root:
        The corpus root directory.
    shards_total:
        Shard count of the whole spec.
    shards_generated:
        Shards written by *this* run.
    shards_skipped:
        Shards already complete in the manifest (resume hits).
    shards_deferred:
        Shards left ungenerated — claimed by a concurrent run, or cut off
        by ``max_shards``.
    shards_failed:
        Shards that exhausted their retry budget this run (also listed in
        the raised :class:`~repro.resilience.errors.ShardFailedError`).
    shards_regenerated:
        Resumed shards whose on-disk file failed content-hash verification
        and were regenerated from scratch.
    vectors_quarantined:
        Poisoned vectors dropped into the manifest's quarantine this run.
    samples_generated:
        Vectors simulated by this run.
    seconds:
        Wall-clock time of this run.
    manifest:
        The manifest after this run.
    """

    root: Path
    shards_total: int
    shards_generated: int = 0
    shards_skipped: int = 0
    shards_deferred: int = 0
    shards_failed: int = 0
    shards_regenerated: int = 0
    vectors_quarantined: int = 0
    samples_generated: int = 0
    seconds: float = 0.0
    manifest: Optional[CorpusManifest] = None

    @property
    def complete(self) -> bool:
        """Whether every shard of the spec is now complete."""
        return self.manifest is not None and all(
            self.manifest.is_complete(design.label, index)
            for design in self.manifest.spec.designs
            for index in range(design.num_shards)
        )

    def as_dict(self) -> dict:
        """Flat summary for logs and reports."""
        return {
            "root": str(self.root),
            "shards_total": self.shards_total,
            "shards_generated": self.shards_generated,
            "shards_skipped": self.shards_skipped,
            "shards_deferred": self.shards_deferred,
            "shards_failed": self.shards_failed,
            "shards_regenerated": self.shards_regenerated,
            "vectors_quarantined": self.vectors_quarantined,
            "samples_generated": self.samples_generated,
            "seconds": self.seconds,
            "complete": self.complete,
        }


# Per-worker state, initialised once per process by _worker_init.
_WORKER_FACTORY: Optional[DesignFactory] = None
_WORKER_DESIGNS: dict[str, Design] = {}
_WORKER_ANALYSES: dict[tuple, DynamicNoiseAnalysis] = {}


def _worker_init(factory: DesignFactory) -> None:
    """Process-pool initializer: install the design factory, clear caches."""
    global _WORKER_FACTORY
    _WORKER_FACTORY = factory
    _WORKER_DESIGNS.clear()
    _WORKER_ANALYSES.clear()


def _worker_design(reference: str) -> Design:
    """Build (or fetch) this worker's instance of a design."""
    assert _WORKER_FACTORY is not None
    design = _WORKER_DESIGNS.get(reference)
    if design is None:
        design = _WORKER_FACTORY(reference)
        _WORKER_DESIGNS[reference] = design
    return design


def _worker_analysis(task: _ShardTask, design: Design) -> DynamicNoiseAnalysis:
    """Build (or fetch) the cached transient analysis for a task's options."""
    key = (
        task.design_spec.design,
        task.design_spec.dt,
        task.solver_mode,
        task.rom,
    )
    analysis = _WORKER_ANALYSES.get(key)
    if analysis is None:
        options = TransientOptions(
            store_waveform=False,
            solver_mode=task.solver_mode,
            rom=task.rom,
        )
        analysis = DynamicNoiseAnalysis(design, task.design_spec.dt, options)
        _WORKER_ANALYSES[key] = analysis
    return analysis


def shard_vectors(design: Design, spec: CorpusDesignSpec, index: int):
    """Generate the test vectors of one shard, reproducibly.

    The seeds of the *whole* suite are derived first and then sliced, so a
    shard's vectors are identical to the same positions of
    :meth:`~repro.workloads.vectors.TestVectorGenerator.generate_suite`
    regardless of shard size or generation order.  Vector indices the spec's
    ``scenario_mix`` claims (see :meth:`~repro.datagen.spec.CorpusDesignSpec.
    scenario_assignment`) are built as scenario traces from the same
    per-vector generator, so blending scenarios in changes neither the other
    vectors nor the resume semantics.

    Parameters
    ----------
    design:
        The design the vectors excite.
    spec:
        The design's corpus slice.
    index:
        Shard index.

    Returns
    -------
    List of :class:`~repro.sim.waveform.CurrentTrace`, one per vector of the
    shard, named ``<design>-v<global index>``.
    """
    start, stop = spec.shard_bounds(index)
    rngs = spawn_rngs(spec.seed, spec.num_vectors)[start:stop]
    generator = TestVectorGenerator(design, spec.vector_config())
    assignment = spec.scenario_assignment()
    traces = []
    for global_index, rng in zip(range(start, stop), rngs):
        name = f"{design.name}-v{global_index:04d}"
        scenario = assignment.get(global_index)
        if scenario is None:
            traces.append(generator.generate(rng, name=name))
        else:
            traces.append(
                build_scenario_trace(
                    scenario, design,
                    num_steps=spec.num_steps, dt=spec.dt, seed=rng, name=name,
                )
            )
    return traces


def _generate_shard(task: _ShardTask) -> dict:
    """Generate one shard inside a worker; returns manifest-record fields.

    Claims the shard first; when another live run holds the claim the task
    returns a ``deferred`` marker instead of fighting over the file.
    """
    store = ShardStore(task.root)
    if not store.claim(task.label, task.index):
        return {"deferred": True, "label": task.label, "index": task.index}
    try:
        faults.active().before_shard(task.label, task.index)
        tracer = obs.get_tracer()
        with tracer.span("datagen.shard", label=task.label, index=task.index) as shard_span:
            spec = task.design_spec
            design = _worker_design(spec.design)
            analysis = _worker_analysis(task, design)
            traces = shard_vectors(design, spec, task.index)
            rom_stats = analysis.engine.rom_stats
            fallbacks_before = rom_stats.fallbacks if rom_stats is not None else 0
            with tracer.span("datagen.simulate") as sim_span:
                dataset = build_dataset(
                    design,
                    traces,
                    compression_rate=spec.compression_rate,
                    rate_step=spec.rate_step,
                    analysis=analysis,
                    sim_batch_size=task.sim_batch_size,
                )
            dataset = faults.active().on_shard_dataset(task.label, task.index, dataset)
            dataset, quarantined = _quarantine_poisoned(task, dataset)
            content_hash = store.write_shard(task.label, task.index, dataset)
        if task.solver_mode == "rom":
            # The ROM gate works per run_many call — i.e. per shard here —
            # so the fallback delta says whether *this* shard's labels came
            # from the reduced or the (relabelled) full path.
            fell_back = rom_stats is not None and rom_stats.fallbacks > fallbacks_before
            shard_solver = "rom+fallback" if fell_back else "rom"
        else:
            shard_solver = "full"
        start, stop = spec.shard_bounds(task.index)
        record = ShardRecord(
            label=task.label,
            index=task.index,
            start=start,
            stop=stop,
            path=store.shard_relpath(task.label, task.index),
            num_samples=len(dataset),
            content_hash=content_hash,
            seed=spec.seed,
            solver=shard_solver,
        )
        # Worker-side telemetry: shard throughput counters plus the per-shard
        # solver-time histogram, flushed into this process's event shard so a
        # pool run reports exactly what the same run inline would.
        metrics = obs.metrics()
        metrics.counter("datagen.shards_generated").inc()
        metrics.counter("datagen.vectors_generated").inc(len(dataset))
        metrics.histogram("datagen.shard_seconds").observe(shard_span.duration_s)
        metrics.histogram("datagen.sim_seconds").observe(sim_span.duration_s)
        obs.flush_shard()
        return {
            "deferred": False,
            "record": record.to_dict(),
            "quarantined": quarantined,
            "pid": os.getpid(),
        }
    finally:
        store.release(task.label, task.index)


def _quarantine_poisoned(task: _ShardTask, dataset):
    """Drop poisoned vectors from a shard's dataset; return quarantine entries.

    A vector whose simulated label or current maps are non-finite (solver
    non-convergence, numeric blow-up, injected NaN) is removed from the shard
    and described by a manifest quarantine entry instead of poisoning the
    corpus or crashing the run.  Scanning is deterministic, so a clean run
    and a killed-and-resumed run quarantine the exact same vectors.
    """
    if not task.quarantine:
        return dataset, []
    poisoned = poisoned_sample_indices(dataset)
    if not poisoned:
        return dataset, []
    quarantined = [
        {
            "label": task.label,
            "index": task.index,
            "key": dataset.samples[position].name,
            "reason": reason,
            "detail": "",
        }
        for position, reason in poisoned
    ]
    dropped = {position for position, _ in poisoned}
    keep = [i for i in range(len(dataset)) if i not in dropped]
    metrics = obs.metrics()
    metrics.counter("faults.quarantined_vectors").inc(len(dropped))
    _LOG.warning(
        "quarantined %d poisoned vector(s) in shard %s:%d: %s",
        len(dropped),
        task.label,
        task.index,
        ", ".join(entry["key"] for entry in quarantined),
    )
    return dataset.subset(keep), quarantined


def _generate_shard_safe(task: _ShardTask) -> dict:
    """Run :func:`_generate_shard`, converting errors into failure outcomes.

    Only :class:`Exception` is converted — an injected
    :class:`~repro.faults.WorkerKilled` (or a real signal) still unwinds the
    worker, exactly as the fault model requires.  The failure outcome is
    picklable (the error travels as its ``repr``), so the parent's retry
    loop works identically for pooled and inline execution.
    """
    try:
        return _generate_shard(task)
    except Exception as error:
        return {
            "failed": True,
            "label": task.label,
            "index": task.index,
            "error": repr(error),
        }


def generate_corpus(
    spec: CorpusSpec,
    root: Union[str, Path],
    num_workers: Optional[int] = None,
    design_factory: DesignFactory = design_from_name,
    resume: bool = True,
    max_shards: Optional[int] = None,
    policy: GenerationPolicy = GenerationPolicy(),
    faults_factory: Optional[FaultsFactory] = None,
) -> GenerationReport:
    """Generate (or finish) a training corpus on disk.

    The call is idempotent and resumable: shards whose manifest records are
    complete (and whose files verify, see ``policy.verify_resume``) are
    skipped, everything else is (re)generated, and the manifest is re-saved
    after every finished shard — killing the run at any point loses at most
    the shards in flight.

    Parameters
    ----------
    spec:
        What to generate.  A resumed root must carry the same
        :meth:`~repro.datagen.spec.CorpusSpec.config_hash`.
    root:
        Corpus root directory (created on demand).
    num_workers:
        Worker process count, as :func:`repro.resilience.fan_out` reads it
        (``0`` is inline; the lockstep block solver applies either way).
    design_factory:
        Top-level callable turning a spec's ``design`` reference into a
        :class:`~repro.pdn.designs.Design` inside each worker (must be
        picklable by reference).
    resume:
        ``False`` regenerates every shard from scratch, ignoring (and
        overwriting) any previous manifest and shards.
    max_shards:
        Stop after generating this many shards (testing/ops knob — it is
        how the resume tests simulate an interrupted run).
    policy:
        Failure handling (see :class:`GenerationPolicy`).
    faults_factory:
        Picklable fault-injector factory for :func:`repro.resilience.fan_out`
        (a testing knob; production runs leave it ``None``).

    Returns
    -------
    A :class:`GenerationReport`; ``report.complete`` says whether the corpus
    is now fully generated.

    Raises
    ------
    ValueError
        When resuming a root whose manifest hash does not match ``spec``.
    repro.resilience.ShardFailedError
        When shards exhaust ``policy.retry``, once every other shard is
        recorded (``error.report`` carries this run's :class:`GenerationReport`).
    """
    root = Path(root)
    store = ShardStore(root)

    manifest = store.load_manifest() if resume else None
    if manifest is not None and manifest.config_hash != spec.config_hash():
        raise ValueError(
            f"corpus at {root} was generated from a different spec "
            f"(manifest hash {manifest.config_hash[:12]}…, "
            f"spec hash {spec.config_hash()[:12]}…); "
            "use a fresh root or resume=False to regenerate"
        )
    if manifest is None:
        # Only a fresh manifest is written here; a resumed one is already on
        # disk, and rewriting our possibly stale snapshot could erase a
        # record a concurrent run lands in between (completions go through
        # the read-merge-save of _record_completion instead).
        manifest = CorpusManifest(spec)
        store.save_manifest(manifest)
    store.clear_stale_claims()

    report = GenerationReport(root=root, shards_total=spec.total_shards, manifest=manifest)
    tasks: list[_ShardTask] = []
    for design in spec.designs:
        for index in range(design.num_shards):
            if (
                resume
                and manifest.is_complete(design.label, index)
                and store.has_shard(design.label, index)
            ):
                if policy.verify_resume and not _shard_verifies(
                    store, manifest, design.label, index
                ):
                    report.shards_regenerated += 1
                else:
                    report.shards_skipped += 1
                    continue
            tasks.append(
                _ShardTask(
                    root=str(root),
                    label=design.label,
                    index=index,
                    design_spec=design,
                    sim_batch_size=spec.sim_batch_size,
                    quarantine=policy.quarantine,
                    solver_mode=spec.solver_mode,
                    rom=spec.rom,
                )
            )
    if max_shards is not None and len(tasks) > max_shards:
        report.shards_deferred += len(tasks) - max_shards
        tasks = tasks[:max_shards]

    metrics = obs.metrics()
    failures: list[dict] = []
    with obs.get_tracer().span("datagen.generate_corpus", root=str(root)) as run_span:
        def on_success(task, outcome):
            if outcome.get("deferred"):
                report.shards_deferred += 1
                return
            record = ShardRecord.from_dict(outcome["record"])
            _record_completion(store, manifest, record, outcome.get("quarantined", ()))
            report.shards_generated += 1
            report.samples_generated += record.num_samples
            report.vectors_quarantined += len(outcome.get("quarantined", ()))

        def on_exhausted(task, outcome, attempts):
            report.shards_failed += 1
            failures.append(
                {
                    "label": task.label,
                    "index": task.index,
                    "error": outcome["error"],
                    "attempts": attempts,
                }
            )

        retry_in_waves(
            tasks,
            functools.partial(
                fan_out,
                _generate_shard_safe,
                num_workers=num_workers,
                initializer=_worker_init,
                initargs=(design_factory,),
                faults_factory=faults_factory,
                # Hard-killed workers never ran their release(), so drop
                # their dead-pid claims before running shards inline —
                # otherwise the fallback would defer exactly the shards it
                # is meant to finish.
                before_inline=store.clear_stale_claims,
            ),
            policy.retry,
            on_success=on_success,
            on_exhausted=on_exhausted,
        )
        run_span.set(
            generated=report.shards_generated,
            skipped=report.shards_skipped,
            deferred=report.shards_deferred,
            failed=report.shards_failed,
        )
    report.seconds = run_span.duration_s
    # Resume bookkeeping is parent-side telemetry (workers only count the
    # shards they generated), so pool and inline runs merge identically.
    if report.shards_skipped:
        metrics.counter("datagen.shards_skipped").inc(report.shards_skipped)
    if report.shards_deferred:
        metrics.counter("datagen.shards_deferred").inc(report.shards_deferred)
    if report.shards_regenerated:
        metrics.counter("faults.corrupt_shards").inc(report.shards_regenerated)
    obs.flush_shard()
    _LOG.info(
        "corpus at %s: %d generated, %d skipped, %d deferred, %d failed (%.1f s)",
        root,
        report.shards_generated,
        report.shards_skipped,
        report.shards_deferred,
        report.shards_failed,
        report.seconds,
    )
    if failures:
        error = ShardFailedError(failures)
        error.report = report
        raise error
    return report


def _shard_verifies(
    store: ShardStore, manifest: CorpusManifest, label: str, index: int
) -> bool:
    """Whether a resumed shard's file still matches its manifest hash."""
    expected = manifest.get(label, index).content_hash
    try:
        shard = store.read_shard(label, index, expected_hash=expected)
    except CorruptShardError as error:
        _LOG.warning("resumed shard failed verification: %s", error)
        return False
    actual = dataset_content_hash(shard)
    if actual != expected:
        _LOG.warning(
            "resumed shard %s:%d hash mismatch (manifest %s…, file %s…); regenerating",
            label, index, expected[:12], actual[:12],
        )
        return False
    return True


def _record_completion(
    store: ShardStore,
    manifest: CorpusManifest,
    record: ShardRecord,
    quarantined: Sequence[dict] = (),
) -> None:
    """Add one finished shard (and its quarantine entries) to the manifest.

    The on-disk manifest is merged in first, so two concurrent runs (each
    generating the shards the other deferred) converge instead of the last
    saver erasing the other's records — quarantine entries merge the same
    way (deduplicated by vector).
    """
    try:
        on_disk = store.load_manifest()
    except (OSError, ValueError):
        on_disk = None
    if on_disk is not None and on_disk.config_hash == manifest.config_hash:
        for existing in on_disk.records:
            if manifest.get(existing.label, existing.index) is None:
                manifest.add(existing)
        for entry in on_disk.quarantined:
            manifest.add_quarantine(entry)
    manifest.add(record)
    for entry in quarantined:
        manifest.add_quarantine(entry)
    store.save_manifest(manifest)

