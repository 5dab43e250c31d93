"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  They all need
the same expensive artefacts — a scaled reference design, a simulated
dataset, and a trained model — so those are built once per pytest session and
cached here.  Results are printed as text tables and written to
``benchmarks/results/`` as JSON/CSV so EXPERIMENTS.md can quote them.

Two presets are provided:

* ``quick`` (default) — scaled-down designs and short training runs so the
  whole harness finishes in minutes on a laptop.
* ``full`` — larger scales and longer training, selected by setting the
  environment variable ``REPRO_BENCH_PRESET=full``.

Absolute numbers therefore differ from the paper (our ground truth is a
synthetic simulator, not a commercial tool on a million-node design); the
quantities and their relationships (who wins, error magnitudes, speedups,
the compression knee) are what the harness reproduces.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.core import (
    FrameworkResult,
    ModelConfig,
    PipelineConfig,
    TrainingConfig,
    WorstCaseNoiseFramework,
)
from repro.datagen import generate_corpus, load_design_dataset
from repro.io import ExperimentRecord, format_table, write_csv, write_json
from repro.pdn import Design, reference_design
from repro.workloads import NoiseDataset

#: Directory where benchmark records are written.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Root of the on-disk benchmark corpora (resumable across sessions).
CORPUS_DIR = RESULTS_DIR / "corpus"

#: Repository root — home of the ``BENCH_*.json`` trajectory files.
REPO_ROOT = Path(__file__).resolve().parent.parent


def append_trajectory(name: str, entry: dict, header: Optional[dict] = None) -> Path:
    """Append one run entry to the repo-root ``BENCH_<name>.json`` trajectory.

    Trajectory files track a performance curve across PRs: a stable header
    describing the metric plus a ``runs`` list one entry long per benchmark
    run.  ``header`` seeds the file on first creation and is ignored once the
    file exists (the historical header stays authoritative).
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = dict(header or {})
        payload.setdefault("runs", [])
    payload["runs"].append(entry)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def obs_snapshot(gateway) -> dict:
    """Serving-telemetry snapshot for trajectory rows.

    Pulls the request count, cache hit rate, mean batch size and answered-
    request latency percentiles out of a
    :class:`~repro.gateway.ScreeningGateway`'s metrics registry, so
    ``BENCH_*.json`` entries carry latency/throughput history rather than
    bare totals.  The percentiles appear only when the gateway was built
    with a live registry and answered something.
    """
    counts = gateway.counts()
    snapshot = {
        key: counts[key] for key in ("requests", "cache_hit_rate", "mean_batch_size")
    }
    histogram = gateway.metrics.get("gateway.request_latency.ok")
    if histogram is not None and getattr(histogram, "count", 0):
        snapshot["latency_ms"] = {
            f"p{q:g}": histogram.percentile(q) * 1e3 for q in (50, 95, 99)
        }
    return snapshot


def best_of(runs: int, body):
    """Best-of-N wall time of ``body()`` and its last result (noise suppression)."""
    times, result = [], None
    for _ in range(runs):
        started = time.perf_counter()
        result = body()
        times.append(time.perf_counter() - started)
    return min(times), result


def timed_screen(submit_async, items):
    """Submit every ``(payload, design)`` item, then wait for all of them.

    Returns the wall-clock span, the per-request latencies (submission to
    done-callback, measured at the caller, so every front door is timed on
    the same clock) and the results in input order.
    """
    ends: dict[int, float] = {}
    answered = threading.Semaphore(0)

    def finished(index: int) -> None:
        ends[index] = time.perf_counter()
        answered.release()

    futures, starts = [], []
    t0 = time.perf_counter()
    for index, (payload, design) in enumerate(items):
        starts.append(time.perf_counter())
        future = submit_async(payload, design)
        future.add_done_callback(lambda _, index=index: finished(index))
        futures.append(future)
    for _ in futures:
        if not answered.acquire(timeout=120):
            raise TimeoutError("screening requests left unanswered for 120 s")
    span = time.perf_counter() - t0
    latencies = [ends[index] - start for index, start in enumerate(starts)]
    return span, latencies, [future.result() for future in futures]


def preset_name() -> str:
    """Benchmark preset selected via ``REPRO_BENCH_PRESET`` (quick/full)."""
    name = os.environ.get("REPRO_BENCH_PRESET", "quick").lower()
    if name not in ("quick", "full"):
        raise ValueError(f"REPRO_BENCH_PRESET must be 'quick' or 'full', got {name!r}")
    return name


@dataclass(frozen=True)
class BenchPreset:
    """Per-design benchmark configuration."""

    scale: float
    num_vectors: int
    num_steps: int
    epochs: int
    learning_rate: float
    compression_rate: float = 0.3

    def pipeline_config(self, seed: int = 0) -> PipelineConfig:
        """Translate the preset into a :class:`PipelineConfig`."""
        return PipelineConfig(
            num_vectors=self.num_vectors,
            num_steps=self.num_steps,
            compression_rate=self.compression_rate,
            model=ModelConfig(seed=seed),
            training=TrainingConfig(
                epochs=self.epochs,
                learning_rate=self.learning_rate,
                batch_size=4,
                early_stopping_patience=None,
                seed=seed,
            ),
            seed=seed,
        )


_QUICK_PRESETS: dict[str, BenchPreset] = {
    "D1": BenchPreset(scale=0.30, num_vectors=40, num_steps=200, epochs=60, learning_rate=1.5e-3),
    "D2": BenchPreset(scale=0.22, num_vectors=40, num_steps=200, epochs=50, learning_rate=1.5e-3),
    "D3": BenchPreset(scale=0.25, num_vectors=40, num_steps=200, epochs=55, learning_rate=1.5e-3),
    "D4": BenchPreset(scale=0.18, num_vectors=40, num_steps=200, epochs=50, learning_rate=1.5e-3),
}

_FULL_PRESETS: dict[str, BenchPreset] = {
    "D1": BenchPreset(scale=1.0, num_vectors=120, num_steps=400, epochs=120, learning_rate=1e-3),
    "D2": BenchPreset(scale=0.6, num_vectors=100, num_steps=400, epochs=100, learning_rate=1e-3),
    "D3": BenchPreset(scale=0.8, num_vectors=100, num_steps=400, epochs=100, learning_rate=1e-3),
    "D4": BenchPreset(scale=0.4, num_vectors=100, num_steps=400, epochs=100, learning_rate=1e-3),
}


def design_preset(name: str) -> BenchPreset:
    """Preset for one reference design under the active preset family."""
    presets = _FULL_PRESETS if preset_name() == "full" else _QUICK_PRESETS
    if name not in presets:
        raise ValueError(f"unknown design {name!r}")
    return presets[name]


@lru_cache(maxsize=None)
def get_design(name: str) -> Design:
    """Build (and cache) one scaled reference design."""
    return reference_design(name, scale=design_preset(name).scale, seed=0)


@lru_cache(maxsize=None)
def get_framework(name: str) -> WorstCaseNoiseFramework:
    """The end-to-end framework bound to one cached design."""
    return WorstCaseNoiseFramework(get_design(name), design_preset(name).pipeline_config())


@lru_cache(maxsize=None)
def get_dataset(name: str) -> NoiseDataset:
    """Simulated (ground-truth) dataset for one design.

    Built through the :mod:`repro.datagen` shard factory: the corpus lives
    under ``benchmarks/results/corpus/<preset>/<design>`` and is resumable,
    so re-running a benchmark session only pays for shards that do not
    exist yet.  ``WorstCaseNoiseFramework.corpus_spec`` translates the
    preset's pipeline configuration — *including* its transient options and
    per-vector simulation (``sim_batch_size`` unset → batch size 1) — so
    the shards hold exactly what the in-process pipeline would produce.
    Table 2's ``simulator_s``/``speedup`` columns depend on that: per-sample
    ``sim_runtime`` must stay a true per-vector measurement, not a lockstep
    batch average (the batched fast path is benchmarked separately in
    ``bench_datagen.py``).
    """
    framework = get_framework(name)
    spec = framework.corpus_spec(f"{name}@{design_preset(name).scale}", label=name)
    root = CORPUS_DIR / preset_name() / name
    try:
        report = generate_corpus(spec, root, num_workers=0)
    except ValueError:
        # The cached corpus was built from an older preset/spec; it is a
        # disposable cache, so regenerate rather than fail the benchmark.
        report = generate_corpus(spec, root, num_workers=0, resume=False)
    # Shards can be deferred when a concurrent benchmark session holds their
    # claims; wait for that session's work to land, then fill any holes.
    # Full-preset shards take minutes each, so the budget is generous.
    deadline = time.monotonic() + 1800.0
    while not report.complete:
        if time.monotonic() >= deadline:
            raise RuntimeError(
                f"corpus for {name!r} under {root} is still incomplete after "
                f"waiting 30 min ({report.shards_deferred} shards deferred — "
                "is another benchmark session stuck holding their claims?)"
            )
        time.sleep(2.0)
        report = generate_corpus(spec, root, num_workers=0)
    return load_design_dataset(root, name)


@lru_cache(maxsize=None)
def get_result(name: str) -> FrameworkResult:
    """Full framework run (simulate + train + evaluate) — cached per session."""
    return get_framework(name).run(dataset=get_dataset(name))


def save_records(records: Sequence[ExperimentRecord], stem: str, title: str) -> str:
    """Print a text table and persist the records under ``benchmarks/results``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    write_json(records, RESULTS_DIR / f"{stem}.json")
    write_csv(records, RESULTS_DIR / f"{stem}.csv")
    table = format_table(records, title=title)
    print()
    print(table)
    return table


def mean_hotspot_ratio(dataset: NoiseDataset) -> float:
    """Average hotspot ratio across the dataset's vectors (Table 1 column)."""
    return float(np.mean([sample.hotspot_map.mean() for sample in dataset.samples]))
