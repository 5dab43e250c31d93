"""The four workloads over the three hot paths of the system.

* ``screen`` — a sign-off engineer screening fresh vectors through the
  :class:`~repro.gateway.ScreeningGateway` (closed loop, one client);
* ``train`` — :meth:`NoiseModelTrainer.train` with the batched engine;
* ``label`` — the corpus factory labelling vectors with the full-order solver;
* ``label_rom`` — the same corpus through the gated Krylov reduced-order model.

Each workload builds its inputs from the workload seed in :meth:`setup`,
runs its unit operation in a timed loop in :meth:`measure`, and checks its
outputs in :meth:`check`, against in-run references and against reference
outputs pinned in ``reference.npz`` (inputs drawn from :data:`REF_SEED`).
:meth:`trace` installs the span wrappers for the layers the workload loads.
Outside a traced loop every timed operation is bracketed by speed probes
(:mod:`speed`) of the workload's :attr:`~Workload.speed_kind`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core import (
    ModelConfig,
    NoiseModelTrainer,
    NoisePredictor,
    TrainingConfig,
    WorstCaseNoiseNet,
    evaluate_predictions,
)
from repro.datagen import CorpusDesignSpec, CorpusSpec, generate_corpus, load_design_dataset
from repro.datagen import engine as datagen_engine
from repro.datagen import shard_vectors
from repro.datagen.shards import ShardStore
from repro.features import distance_feature, fit_normalizer
from repro.features.extraction import extract_vector_features_batch
from repro.gateway import GatewayError, ScreeningGateway
from repro.gateway import worker as gateway_worker
from repro.nn import Adam, Tensor
from repro.nn import conv as nn_conv
from repro.nn import kernels
from repro.pdn import designs as pdn_designs
from repro.pdn import design_from_name
from repro.serving import PredictorRegistry
from repro.sim import CurrentTrace, DynamicNoiseAnalysis, ROMOptions
from repro.sim import dynamic_noise as sim_dynamic_noise
from repro.sim import rom as sim_rom
from repro.sim import transient as sim_transient
from repro.workloads import (
    DatasetSplit,
    TestVectorGenerator,
    VectorConfig,
    build_dataset,
    generate_test_vectors,
)
from repro.workloads import dataset as workloads_dataset

import arith
import speed

#: Seed of the inputs whose outputs are pinned in ``reference.npz``.
REF_SEED = 20220710

#: Pinned-output tolerance (float64 everywhere): relative, plus an absolute
#: floor in the outputs' own unit (volts for maps, normalised L1 for losses).
RTOL = 1e-9
ATOL = 1e-12

#: The design every workload runs on: 25x25 tiles, 16 bumps, 3301 nodes.
DESIGN = "D1@0.5"

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.npz"


def load_pinned() -> dict:
    """The pinned reference outputs, or ``{}`` when none are stored yet."""
    if not REFERENCE_FILE.is_file():
        return {}
    with np.load(REFERENCE_FILE) as data:
        return {key: data[key] for key in data.files}


def _mismatch(name: str, actual, expected) -> Optional[str]:
    """A failure message when ``actual`` is not ``expected`` within tolerance."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return f"{name}: shape {actual.shape} != pinned {expected.shape}"
    if not np.allclose(actual, expected, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(actual - expected)))
        return f"{name}: differs from reference by up to {worst:.3g}"
    return None


@dataclasses.dataclass
class Measurement:
    """Outcome of one timed loop.

    ``units`` counts the workload's unit of work (requests, optimizer steps
    or labels) and ``cpu_ms`` is the process CPU time of one unit, in
    milliseconds (median over the loop's operations); ``norm_ms`` is the
    same median after scaling each operation by its speed probes (``None``
    in a traced loop, which runs no probes; see :func:`speed.bracketed`).
    ``path_metrics`` holds the path-specific metrics, by name, as
    ``(value, unit)``; their times are wall-clock.
    """

    units: int
    attempted: int
    failed: int
    elapsed: float
    cpu_ms: float
    norm_ms: Optional[float]
    path_metrics: dict = dataclasses.field(default_factory=dict)


class Workload:
    """One workload: set-up, a timed loop, output checks, tracing hooks."""

    name = ""
    #: The :mod:`speed` probe doing the same kind of work as the timed loop.
    speed_kind = "sparse"

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.failures: list[str] = []
        self.pinned_outputs: dict = {}
        self.recorder = None
        self.speed_probe = speed.SpeedProbe()
        #: Probe CPU seconds by kind, for the report.
        self.probe_times: dict[str, list] = {}

    def span(self, name: str):
        """A span around benchmark-side code when tracing, else a no-op."""
        return self.recorder.span(name) if self.recorder is not None else nullcontext()

    def probe(self, kind: Optional[str] = None) -> Optional[float]:
        """CPU seconds of one speed probe, or ``None`` inside a traced loop.

        ``kind`` defaults to :attr:`speed_kind`.
        """
        if self.recorder is not None and self.recorder.active:
            return None
        kind = kind or self.speed_kind
        seconds = self.speed_probe.time(kind)
        self.probe_times.setdefault(kind, []).append(seconds)
        return seconds

    def scaled_ms(self, cpu_seconds: list, probes: list) -> Optional[float]:
        """Median of ``cpu_seconds`` scaled by their bracketing probes, in ms."""
        scaled = speed.bracketed(cpu_seconds, probes, self.speed_kind)
        return 1e3 * statistics.median(scaled) if scaled else None

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work before the loop (also computes the pinned outputs)."""
        self.pinned_outputs = self.pinned()

    def pinned(self) -> dict:
        """Outputs on the :data:`REF_SEED` inputs, compared with ``reference.npz``."""
        return {}

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def check(self) -> list[Optional[str]]:
        """Compare outputs with their references after the loop.

        One entry per comparison: ``None`` when it passed, else the failure.
        (Failures of the timed operations themselves are counted by
        :meth:`measure` and described in :attr:`failures`.)
        """
        stored = load_pinned()
        return [
            _mismatch(key, value, stored[key])
            if key in stored
            else f"{key}: no pinned reference stored"
            for key, value in self.pinned_outputs.items()
        ]

    def trace(self, recorder) -> None:
        """Install the span wrappers of the layers this workload loads."""

    def layer_metrics(self, spans) -> dict:
        """Per-layer metrics only this workload can compute (by name)."""
        return {}

    def close(self) -> None:
        """Release threads and files."""


# ---------------------------------------------------------------------- #
# screen
# ---------------------------------------------------------------------- #


class Screen(Workload):
    """Closed-loop screening of distinct raw traces through the gateway."""

    name = "screen"
    MAX_BATCH = 16
    OUTSTANDING = 2 * MAX_BATCH
    NUM_STEPS = 200
    BASE_TRACES = 64
    CHECKED = 8
    #: Closed-loop stretch between two speed probes (drained at its end).
    CHUNK_SECONDS = 2.0
    speed_kind = "dense"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.gateway: Optional[ScreeningGateway] = None
        self.submitted = 0
        self.rejected = 0
        self.kept: dict[int, np.ndarray] = {}
        self.records: dict[int, list] = {}

    def setup(self) -> None:
        self.close()
        design = design_from_name(DESIGN)
        config = VectorConfig(num_steps=self.NUM_STEPS)
        self.reference_traces = generate_test_vectors(design, 4, config, seed=REF_SEED)
        calibration = extract_vector_features_batch(self.reference_traces, design)
        normalizer = fit_normalizer(
            design, np.concatenate([item.current_maps for item in calibration])
        )
        model = WorstCaseNoiseNet(num_bumps=design.grid.num_bumps, config=ModelConfig())
        self.predictor = NoisePredictor(model, normalizer, distance_feature(design))
        registry_root = self.workdir / "registry"
        PredictorRegistry(registry_root).register(design.name, self.predictor)
        self.gateway = ScreeningGateway(registry_root, num_shards=1, max_batch=self.MAX_BATCH)
        self.base = generate_test_vectors(design, self.BASE_TRACES, config, seed=self.seed)
        self.design = design
        # The first answer loads the checkpoint into the shard's registry.
        self.gateway.screen([(self.reference_traces[0], design)])

    def _trace(self, index: int) -> CurrentTrace:
        """Request ``index``: a base trace scaled so every request is distinct."""
        base = self.base[index % len(self.base)]
        scale = 1.0 + 1e-3 * (index // len(self.base) + 1)
        return CurrentTrace(base.currents * scale, base.dt, name=f"req{index}")

    def pinned(self) -> dict:
        results = self.gateway.screen([(trace, self.design) for trace in self.reference_traces])
        return {"screen_maps": np.stack([result.noise_map for result in results])}

    def warm(self) -> None:
        super().warm()
        warm = [
            CurrentTrace(trace.currents * 0.999, trace.dt, name=f"warm{i}")
            for i, trace in enumerate(self.base[: self.OUTSTANDING])
        ]
        self.gateway.screen([(trace, self.design) for trace in warm])

    def _finish(self, index: int, permits: threading.Semaphore, future) -> None:
        record = self.records[index]
        record[1] = time.perf_counter()
        error = future.exception()
        if error is None:
            noise = future.result().noise_map
            record[2] = noise.shape == self.design.tile_grid.shape and bool(
                np.all(np.isfinite(noise))
            )
            if not record[2]:
                self.failures.append(f"request {index}: malformed noise map")
            if index in self.kept:
                self.kept[index] = noise
        else:
            record[2] = False
            self.failures.append(f"request {index}: {error!r}")
        permits.release()

    def _closed_loop(self, seconds: float) -> int:
        """Keep :attr:`OUTSTANDING` requests in flight for ``seconds``, then drain.

        Returns the number of requests submitted.
        """
        permits = threading.Semaphore(self.OUTSTANDING)
        first = self.submitted
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            # Submit a whole batch's worth at once, so the shard's batcher
            # sees full batches instead of whatever trickled in.
            for _ in range(self.MAX_BATCH):
                permits.acquire()
            chunk = range(self.submitted, self.submitted + self.MAX_BATCH)
            self.submitted += self.MAX_BATCH
            traces = [self._trace(index) for index in chunk]
            for index, trace in zip(chunk, traces):
                self.records[index] = [time.perf_counter(), None, None]
                try:
                    future = self.gateway.submit_async(trace, self.design)
                except GatewayError as error:
                    self.rejected += 1
                    self.records[index][1:] = [time.perf_counter(), False]
                    self.failures.append(f"request {index}: {error!r}")
                    permits.release()
                    continue
                future.add_done_callback(functools.partial(self._finish, index, permits))
        for _ in range(self.OUTSTANDING):
            # The gateway resolves every admitted future; a stuck one is a bug.
            if not permits.acquire(timeout=120.0):
                raise RuntimeError("screening requests left unanswered for 120 s")
        return self.submitted - first

    def measure(self, seconds: float) -> Measurement:
        """Closed-loop screening in chunks of :attr:`CHUNK_SECONDS` between probes."""
        self.records = {}
        self.rejected = 0
        for index in range(self.submitted, self.submitted + self.CHECKED):
            self.kept.setdefault(index, None)
        cpu_per_request, probes = [], [self.probe()]
        busy = 0.0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            began = time.perf_counter()
            cpu_began = time.process_time()
            count = self._closed_loop(min(self.CHUNK_SECONDS, seconds))
            cpu_per_request.append((time.process_time() - cpu_began) / count)
            busy += time.perf_counter() - began
            probes.append(self.probe())
        latencies = [record[1] - record[0] for record in self.records.values()]
        failed = sum(1 for record in self.records.values() if not record[2])
        count = len(latencies)
        self.restarts = sum(
            shard["restarts"] for shard in self.gateway.health()["shards"].values()
        )
        return Measurement(
            units=count,
            attempted=count,
            failed=failed,
            elapsed=busy,
            cpu_ms=1e3 * statistics.median(cpu_per_request),
            norm_ms=self.scaled_ms(cpu_per_request, probes),
            path_metrics={
                "screen_vectors_per_s": (count / busy, "1/s"),
                "screen_p50_ms": (1e3 * arith.percentile(latencies, 500), "ms"),
                "screen_p95_ms": (1e3 * arith.percentile(latencies, 950), "ms"),
                "screen_requests": (count, "count"),
            },
        )

    def check(self) -> list[Optional[str]]:
        """Pinned maps, plus gateway answers against a direct ``predict_batch``."""
        results = super().check()
        indices = sorted(index for index, noise in self.kept.items() if noise is not None)
        missing = len(self.kept) - len(indices)
        results.extend(["checked request unanswered"] * missing)
        features = extract_vector_features_batch(
            [self._trace(index) for index in indices], self.design
        )
        for index, expected in zip(indices, self.predictor.predict_batch(features)):
            results.append(_mismatch(f"request {index}", self.kept[index], expected.noise_map))
        return results

    def trace(self, recorder) -> None:
        def stamps(args, kwargs, result):
            trace = args[0]
            return {
                "vectors": 1,
                "stamps": trace.num_steps,
                "kept": result.current_maps.shape[0],
            }

        def batch(args, kwargs, result):
            return {"vectors": len(result), "names": [item.name for item in args[1]]}

        recorder.patch(gateway_worker, "extract_vector_features", "features.extract", stamps)
        recorder.patch(NoisePredictor, "predict_batch", "core.predict_batch", batch)
        recorder.patch(WorstCaseNoiseNet, "forward_batch", "core.forward", _forward_vectors)
        recorder.patch(gateway_worker.ShardWorker, "_fill_batch", "gateway.fill")
        recorder.patch(gateway_worker.ShardWorker, "_process_batch", "gateway.batch")
        _trace_workspace_pool(recorder)
        _trace_labelling(recorder)

    def layer_metrics(self, spans) -> dict:
        """Per-request queue wait, compute and resolve times of the traced loop."""
        carried = {}
        sizes = []
        for span in spans:
            if span.name == "core.predict_batch":
                sizes.append(span.counts["vectors"])
                for name in span.counts["names"]:
                    carried[name] = (span.start, span.end)
        waits, computes, resolves = [], [], []
        for index, (submitted, done, _) in self.records.items():
            batch = carried.get(f"req{index}")
            if batch is None:
                continue
            waits.append(batch[0] - submitted)
            computes.append(batch[1] - batch[0])
            resolves.append(done - batch[1])
        mean_batch = statistics.fmean(sizes) if sizes else 0.0
        return {
            "gateway.queue_wait_ms_p50": 1e3 * arith.percentile(waits, 500),
            "gateway.queue_wait_ms_p95": 1e3 * arith.percentile(waits, 950),
            "gateway.compute_ms_p50": 1e3 * arith.percentile(computes, 500),
            "gateway.resolve_ms_p50": 1e3 * arith.percentile(resolves, 500),
            "gateway.batch_mean": mean_batch,
            "gateway.batch_fill_ratio": mean_batch / self.MAX_BATCH,
            "gateway.rejected": self.rejected,
            "gateway.restarts": self.restarts,
        }

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
            self.gateway = None


def _forward_vectors(args, kwargs, result):
    """Vectors in one ``forward_batch`` call (dense array or ragged list)."""
    return {"vectors": len(args[1])}


def _trace_workspace_pool(recorder) -> None:
    """Count workspace-pool hits where conv takes its buffers.

    A take is a hit when the calling thread's pool, as
    :func:`kernels.workspace_pool_stats` reports it, holds a buffer of the
    requested ``(shape, dtype)``.
    """
    original = nn_conv.take_workspace

    def take_workspace(shape, dtype=np.float64):
        if recorder.active:
            key = (tuple(shape), np.dtype(dtype).name)
            hit = kernels.workspace_pool_stats()["keys"].get(key, 0) > 0
            recorder.pool_takes += 1
            recorder.pool_hits += int(hit)
        return original(shape, dtype)

    recorder.replace(nn_conv, "take_workspace", take_workspace)


# ---------------------------------------------------------------------- #
# train
# ---------------------------------------------------------------------- #


class Train(Workload):
    """Repeated fixed-length training runs of the batched engine."""

    name = "train"
    speed_kind = "dense"
    NUM_VECTORS = 48
    NUM_STEPS = 200
    EPOCHS = 1
    BATCH = 8

    def setup(self) -> None:
        design = design_from_name(DESIGN)
        traces = generate_test_vectors(
            design, self.NUM_VECTORS, VectorConfig(num_steps=self.NUM_STEPS), seed=self.seed
        )
        self.dataset = build_dataset(design, traces, sim_batch_size=self.NUM_VECTORS)
        self.design = design
        # Fixed partition sizes (the expansion split's sizes depend on the
        # data), so every seed trains the same number and shape of steps.
        order = np.random.default_rng(self.seed).permutation(self.NUM_VECTORS)
        self.split = DatasetSplit(
            train=np.sort(order[:32]), validation=np.sort(order[32:40]), test=np.sort(order[40:])
        )
        self.config = TrainingConfig(
            epochs=self.EPOCHS, batch_size=self.BATCH, early_stopping_patience=None
        )
        self.first_losses: list[float] = []
        self.result = None

    def pinned(self) -> dict:
        design = design_from_name("small@8")
        traces = generate_test_vectors(design, 12, VectorConfig(num_steps=100), seed=REF_SEED)
        dataset = build_dataset(design, traces, sim_batch_size=12)
        config = TrainingConfig(epochs=1, batch_size=4, early_stopping_patience=None)
        history = NoiseModelTrainer(dataset, design=design, training_config=config).train().history
        return {"train_first_loss": np.array(history.train_loss[0])}

    def measure(self, seconds: float) -> Measurement:
        per_step, cpu_per_step, probes = [], [], [self.probe()]
        attempted = failed = units = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            attempted += 1
            began = time.perf_counter()
            cpu_began = time.process_time()
            try:
                with self.span("core.train"):
                    result = NoiseModelTrainer(
                        self.dataset, design=self.design, split=self.split,
                        training_config=self.config,
                    ).train()
            except Exception as error:  # a failed run is a counted failure
                failed += 1
                self.failures.append(f"training run {attempted}: {error!r}")
                probes[-1] = self.probe()  # the next run's probe
                continue
            took = time.perf_counter() - began
            cpu = time.process_time() - cpu_began
            probes.append(self.probe())
            steps = self.EPOCHS * math.ceil(len(self.split.train) / self.BATCH)
            units += steps
            per_step.append(took / steps)
            cpu_per_step.append(cpu / steps)
            losses = result.history.train_loss + result.history.validation_loss
            self.first_losses.append(result.history.train_loss[0])
            if not np.all(np.isfinite(losses)):
                failed += 1
                self.failures.append(f"training run {attempted}: non-finite loss {losses}")
            elif self.first_losses[0] != self.first_losses[-1]:
                failed += 1
                self.failures.append(
                    f"training run {attempted}: first-epoch loss {self.first_losses[-1]!r} "
                    f"differs from the first run's {self.first_losses[0]!r}"
                )
            self.result = result
        elapsed = time.perf_counter() - started
        if not cpu_per_step:
            raise RuntimeError("every training run failed: " + "; ".join(self.failures))
        if self.recorder is None or not self.recorder.active:
            self.mre_pct = self.test_mre_pct()
        return Measurement(
            units=units,
            attempted=attempted,
            failed=failed,
            elapsed=elapsed,
            cpu_ms=1e3 * statistics.median(cpu_per_step),
            norm_ms=self.scaled_ms(cpu_per_step, probes),
            path_metrics={
                "train_step_ms": (1e3 * statistics.median(per_step), "ms"),
                "train_test_mre_pct": (self.mre_pct, "%"),
            },
        )

    def test_mre_pct(self) -> float:
        """The paper's mean relative error on the held-out test split, in percent."""
        result = self.result
        predictor = NoisePredictor(result.model, result.normalizer, self.dataset.distance)
        maps, _ = predictor.predict_dataset(self.dataset, indices=result.split.test)
        truth = np.stack([self.dataset.samples[int(i)].target for i in result.split.test])
        report = evaluate_predictions(maps, truth, self.dataset.hotspot_threshold)
        return 100.0 * report.mean_re

    def trace(self, recorder) -> None:
        self.recorder = recorder
        recorder.patch(WorstCaseNoiseNet, "forward_batch", "core.forward", _forward_vectors)
        recorder.patch(Tensor, "backward", "nn.backward")
        recorder.patch(Adam, "step", "nn.optim")
        recorder.patch(NoiseModelTrainer, "_evaluate_batched", "core.eval")
        _trace_workspace_pool(recorder)
        _trace_labelling(recorder)

    def layer_metrics(self, spans) -> dict:
        keep = [
            sample.features.current_maps.shape[0] for sample in self.dataset.samples
        ]
        return {"features.stamp_keep_ratio": sum(keep) / (len(keep) * self.NUM_STEPS)}


# ---------------------------------------------------------------------- #
# label / label_rom
# ---------------------------------------------------------------------- #


def _trace_labelling(recorder) -> None:
    """Span wrappers along trace -> transient solve -> tile reduction -> features -> shard."""

    def traces(args, kwargs, result):
        block = args[1]
        return {"labels": len(block), "stamps": sum(trace.num_steps for trace in block)}

    def feature_batch(args, kwargs, result):
        return {
            "vectors": len(result),
            "stamps": sum(trace.num_steps for trace in args[0]),
            "kept": sum(item.current_maps.shape[0] for item in result),
        }

    recorder.patch(pdn_designs, "make_design", "pdn.build")
    recorder.patch(TestVectorGenerator, "generate", "workloads.vector")
    recorder.patch(
        workloads_dataset, "extract_vector_features_batch", "features.extract", feature_batch
    )
    recorder.patch(workloads_dataset, "distance_feature", "features.distance")
    recorder.patch(DynamicNoiseAnalysis, "run_many", "sim.run")
    recorder.patch(sim_transient, "make_solver", "sim.factor")
    recorder.patch(sim_transient.FullOrderStrategy, "run_block", "sim.full", traces)
    recorder.patch(sim_rom.ReducedOrderStrategy, "run_block", "sim.rom", traces)
    recorder.patch(sim_dynamic_noise, "per_tile_maximum", "sim.reduce")


class Label(Workload):
    """Repeated corpus generation on a fresh root (full-order solver)."""

    name = "label"
    NUM_VECTORS = 32
    NUM_STEPS = 400
    SHARD_SIZE = 16
    rom = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.rom_strategies: list = []
        self.runs = 0

    def corpus_spec(self, seed: int, num_vectors: int) -> CorpusSpec:
        return CorpusSpec(
            designs=(
                CorpusDesignSpec(
                    label="D1",
                    design=DESIGN,
                    num_vectors=num_vectors,
                    num_steps=self.NUM_STEPS,
                    shard_size=self.SHARD_SIZE,
                    seed=seed,
                ),
            ),
            solver_mode="rom" if self.rom else "full",
            rom=ROMOptions(rank=192) if self.rom else None,
        )

    def setup(self) -> None:
        self.spec = self.corpus_spec(self.seed, self.NUM_VECTORS)
        design_spec = self.spec.designs[0]
        design = design_from_name(design_spec.design)
        full_order = dataclasses.replace(self.spec.transient_options(), solver_mode="full", rom=None)
        analysis = DynamicNoiseAnalysis(design, design_spec.dt, full_order)
        if self.rom:
            # Full-order labels of every vector: the ROM labels' reference.
            traces = [
                trace
                for index in range(design_spec.num_shards)
                for trace in shard_vectors(design, design_spec, index)
            ]
            results = analysis.run_many(traces, batch_size=self.spec.sim_batch_size)
        else:
            # Per-vector (not lockstep) solves of the first vectors.
            traces = shard_vectors(design, design_spec, 0)[:2]
            results = [analysis.run(trace) for trace in traces]
        self.reference = np.stack([result.tile_noise for result in results])
        self.hashes = None
        self.quality: dict = {}

    def _generate(self, spec: CorpusSpec, root: Path):
        """One corpus on a fresh root; returns (wall s, CPU s, report or error)."""
        shutil.rmtree(root, ignore_errors=True)
        began = time.perf_counter()
        cpu_began = time.process_time()
        try:
            report = generate_corpus(spec, root, num_workers=0)
        except Exception as error:  # a failed corpus is a counted failure
            report = error
        return time.perf_counter() - began, time.process_time() - cpu_began, report

    def pinned(self) -> dict:
        if self.rom:
            return {}
        root = self.workdir / "pinned"
        _, _, report = self._generate(self.corpus_spec(REF_SEED, 4), root)
        if isinstance(report, Exception):
            self.failures.append(f"pinned corpus: {report!r}")
            return {"label_maps": np.array(np.nan)}
        maps = np.stack([sample.target for sample in load_design_dataset(root, "D1").samples])
        shutil.rmtree(root, ignore_errors=True)
        return {"label_maps": maps}

    def _verify(self, run: int, root: Path, report) -> Optional[str]:
        """Check one generated corpus; returns a failure message or ``None``."""
        if isinstance(report, Exception):
            return f"corpus {run}: {report!r}"
        if not report.complete or report.shards_failed or report.vectors_quarantined:
            return f"corpus {run}: incomplete {report.as_dict()}"
        hashes = tuple(record.content_hash for record in report.manifest.records)
        if self.hashes is None:
            self.hashes = hashes
            maps = np.stack([sample.target for sample in load_design_dataset(root, "D1").samples])
            if maps.shape != (self.NUM_VECTORS,) + self.reference.shape[1:]:
                return f"corpus {run}: label shape {maps.shape}"
            if not np.all(np.isfinite(maps)):
                return f"corpus {run}: non-finite labels"
            return self._compare(maps)
        if hashes != self.hashes:
            return f"corpus {run}: shard hashes differ from the first corpus"
        return None

    def _compare(self, maps: np.ndarray) -> Optional[str]:
        return _mismatch("corpus labels", maps[: len(self.reference)], self.reference)

    def measure(self, seconds: float) -> Measurement:
        per_label, cpu_per_label, probes = [], [], [self.probe()]
        attempted = failed = 0
        self.bytes_per_label = []
        started = time.perf_counter()
        while time.perf_counter() - started < seconds:
            attempted += 1
            self.runs += 1
            root = self.workdir / f"corpus-{self.runs}"
            with self.span("datagen.corpus") as record:
                took, cpu, report = self._generate(self.spec, root)
                if record is not None and not isinstance(report, Exception):
                    record.counts["quarantined"] = report.vectors_quarantined
            probes.append(self.probe())
            per_label.append(took / self.NUM_VECTORS)
            cpu_per_label.append(cpu / self.NUM_VECTORS)
            message = self._verify(self.runs, root, report)
            if message:
                failed += 1
                self.failures.append(message)
            else:
                size = sum(path.stat().st_size for path in root.rglob("*.npz"))
                self.bytes_per_label.append(size / self.NUM_VECTORS)
            shutil.rmtree(root, ignore_errors=True)
        elapsed = time.perf_counter() - started
        label_ms = 1e3 * statistics.median(per_label)
        path_metrics = {"label_ms": (label_ms, "ms")}
        path_metrics.update(self.quality)
        return Measurement(
            units=attempted * self.NUM_VECTORS,
            attempted=attempted,
            failed=failed,
            elapsed=elapsed,
            cpu_ms=1e3 * statistics.median(cpu_per_label),
            norm_ms=self.scaled_ms(cpu_per_label, probes),
            path_metrics=path_metrics,
        )

    def trace(self, recorder) -> None:
        self.recorder = recorder

        def built(args, kwargs, result):
            self.rom_strategies.append(result)
            return {}

        _trace_labelling(recorder)
        recorder.patch(datagen_engine, "_generate_shard_safe", "datagen.shard")
        recorder.patch(datagen_engine, "build_dataset", "workloads.label")
        recorder.patch(ShardStore, "write_shard", "datagen.write")
        recorder.patch(sim_rom.ReducedOrderStrategy, "build", "sim.rom.build", built)

    def layer_metrics(self, spans) -> dict:
        corpora = sum(1 for span in spans if span.name == "datagen.corpus") or 1
        shards = [span for span in spans if span.name == "datagen.shard"]
        writes = sum(1 for span in spans if span.name == "datagen.write")
        metrics = {
            "datagen.shards": writes / corpora,
            "datagen.retries": (len(shards) - writes) / corpora,
            "datagen.quarantined": sum(
                span.counts.get("quarantined", 0) for span in spans if span.name == "datagen.corpus"
            ) / corpora,
            "datagen.bytes_per_label": (
                statistics.median(self.bytes_per_label) if self.bytes_per_label else 0.0
            ),
        }
        if self.rom:
            # Only strategies built inside the traced loop.
            stats = [strategy.stats for strategy in self.rom_strategies[-corpora:]]
            rom_vectors = sum(item.rom_vectors for item in stats)
            full_vectors = sum(item.full_vectors for item in stats)
            metrics.update(
                {
                    "sim.rom.validated": sum(item.validated for item in stats) / corpora,
                    "sim.rom.fallbacks": sum(item.fallbacks for item in stats) / corpora,
                    "sim.rom.useful_ratio": rom_vectors / max(rom_vectors + full_vectors, 1),
                }
            )
        return metrics


class LabelROM(Label):
    """The ``label`` corpus through the gated reduced-order model (rank 192)."""

    name = "label_rom"
    rom = True
    #: Sanity bound on the per-tile ROM error; the measured error is a metric.
    MAX_TILE_ERROR = 0.25

    def _compare(self, maps: np.ndarray) -> Optional[str]:
        err_max = arith.label_err_max(maps, self.reference)
        self.quality = {
            "label_err_max": (err_max, "ratio"),
            "label_bias_abs": (arith.label_bias_abs(maps, self.reference), "ratio"),
        }
        if err_max > self.MAX_TILE_ERROR:
            return f"ROM labels off by {err_max:.3f} of the max tile"
        return None


WORKLOADS = {cls.name: cls for cls in (Screen, Train, Label, LabelROM)}
