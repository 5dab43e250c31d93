"""Dataset-factory throughput: `repro.datagen` vs the per-vector loop.

Training corpora are the other hot path next to serving: every design,
ablation and scenario family starts with thousands of transient sign-off
runs.  This benchmark covers both levers the factory has:

* **batching** — ``sequential`` (one design at a time, one vector at a
  time, per-vector ``analysis.run``) vs ``factory``
  (:func:`repro.datagen.generate_corpus`: lockstep block-RHS transient
  solves, symmetric-mode factorisation, batched feature extraction, shard
  writing, content hashing, manifest bookkeeping);
* **model-order reduction** — full-order companion labelling vs the gated
  Krylov reduced-order strategy (:mod:`repro.sim.rom`) on a large design,
  where the ROM projects the MNA system onto a small subspace once and then
  labels every vector with dense ``rank x rank`` steps.

It asserts the factory guarantees:

1. **>= 3x end-to-end speedup** of the factory over the sequential baseline
   — although the factory also pays for shard IO and hashing;
2. **equal datasets** — identical vectors/names/shapes, noise maps within
   the documented solver-rounding tolerance (see ``docs/data-pipeline.md``),
   and two factory runs of the same spec produce identical content hashes;
3. **resumability** — a run interrupted mid-corpus resumes to the same
   manifest state (same shard records and hashes) as an uninterrupted run;
4. **>= 5x ROM labelling speedup** over the full-order block solver at the
   pinned ``worst_droop`` tolerance (``ROMOptions.tolerance``), with zero
   gate fallbacks — the reduced-order guarantee ``docs/solvers.md``
   documents and CI re-checks on every push via ``--smoke``.

Full-order vs ROM rows append to the repo-root ``BENCH_datagen.json``
trajectory (every other bench persists one), together with
``shard_peak_mb``: the ``tracemalloc`` peak, above live memory, of labelling
one shard (transient solve, tile reduction and features) with each engine,
and ``rom_build_peak_mb``: the same peak of one ROM basis build.
Runs under pytest (``python -m pytest benchmarks/bench_datagen.py``) or as
a script wrapping a telemetry run::

    python benchmarks/bench_datagen.py --smoke
    python scripts/obs_report.py benchmarks/results/datagen_obs
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from common import REPO_ROOT, append_trajectory, best_of, save_records
from repro.datagen import (
    dataset_content_hash,
    generate_corpus,
    git_revision,
    load_design_dataset,
    paper_corpus_spec,
)
from repro.io import ExperimentRecord
from repro.pdn import reference_design
from repro.pdn.designs import design_from_name
from repro.sim.dynamic_noise import DynamicNoiseAnalysis
from repro.sim.rom import ReducedOrderStrategy, ROMOptions
from repro.sim.transient import TransientOptions
from repro.workloads import generate_test_vectors
from repro.workloads.dataset import build_dataset
from repro.workloads.vectors import TestVectorGenerator, VectorConfig

#: The benchmark corpus: the paper's four-design sweep, scaled far down so
#: the whole comparison runs in seconds (speedup ratios, not absolute times,
#: are what this benchmark reproduces — the quick-preset philosophy).
SPEC = paper_corpus_spec(scale=0.08, num_vectors=48, num_steps=400, shard_size=48)
ROUNDS = 3
MIN_SPEEDUP = 3.0

#: The ROM labelling comparison runs on a *large* design — model-order
#: reduction pays off when the full-order system is big (thousands of
#: nodes), which the tiny factory corpus above deliberately is not.
ROM_DESIGN = "D1"
ROM_SCALE = 0.5
ROM_VECTORS = 96
ROM_STEPS = 400
ROM_DT = 1e-11
ROM_SEED = 7
#: Explicit rank (instead of the auto heuristic): measured on this design
#: and vector suite, rank 192 is the joint sweet spot — relative
#: ``worst_droop`` error ~0.072 (10% under the pinned tolerance) at ~6.3x
#: the full-order block solver (26% over the speedup gate).
ROM_OPTIONS = ROMOptions(rank=192)
MIN_ROM_SPEEDUP = 5.0
#: Vectors in the shard whose labelling peak is recorded.
SHARD_VECTORS = 16


def _sequential_baseline() -> dict:
    """Generate the corpus the pre-factory way: per design, per vector."""
    datasets = {}
    for design_spec in SPEC.designs:
        design = design_from_name(design_spec.design)
        generator = TestVectorGenerator(design, design_spec.vector_config())
        traces = generator.generate_suite(design_spec.num_vectors, seed=design_spec.seed)
        analysis = DynamicNoiseAnalysis(design, design_spec.dt, TransientOptions())
        datasets[design_spec.label] = build_dataset(
            design,
            traces,
            compression_rate=design_spec.compression_rate,
            rate_step=design_spec.rate_step,
            analysis=analysis,
        )
    return datasets


def test_datagen_speedup_and_equivalence(benchmark, tmp_path):
    """Factory >= 3x the per-vector loop, with equal corpus contents."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    sequential_seconds, baseline = best_of(ROUNDS, _sequential_baseline)

    roots = [tmp_path / f"corpus-{i}" for i in range(ROUNDS)]
    run_index = iter(range(ROUNDS))
    factory_seconds, report = best_of(
        ROUNDS,
        lambda: generate_corpus(SPEC, roots[next(run_index)], num_workers=0),
    )
    assert report.complete
    speedup = sequential_seconds / factory_seconds

    records = [
        ExperimentRecord(
            "datagen",
            "sequential_loop",
            {
                "total_s": sequential_seconds,
                "vectors": SPEC.total_vectors,
                "vectors_per_sec": SPEC.total_vectors / sequential_seconds,
            },
        ),
        ExperimentRecord(
            "datagen",
            "factory",
            {
                "total_s": factory_seconds,
                "vectors": SPEC.total_vectors,
                "vectors_per_sec": SPEC.total_vectors / factory_seconds,
                "shards": report.shards_total,
                "speedup_vs_sequential": speedup,
            },
        ),
    ]
    save_records(records, "datagen", "Dataset factory vs sequential per-vector loop")

    # Equal corpus contents: same vectors, names and shapes; noise maps
    # within the documented solver-rounding tolerance; and the two factory
    # runs bit-reproduce each other (identical shard content hashes).
    for design_spec in SPEC.designs:
        label = design_spec.label
        factory_ds = load_design_dataset(roots[0], label, verify=True)
        reference = baseline[label]
        assert len(factory_ds) == len(reference)
        for ours, theirs in zip(factory_ds.samples, reference.samples):
            assert ours.name == theirs.name
            np.testing.assert_array_equal(
                ours.features.current_maps.shape, theirs.features.current_maps.shape
            )
            np.testing.assert_allclose(
                ours.features.current_maps, theirs.features.current_maps,
                rtol=1e-12, atol=1e-15,
            )
            np.testing.assert_allclose(
                ours.target, theirs.target, rtol=1e-9, atol=1e-12
            )
        assert dataset_content_hash(load_design_dataset(roots[1], label)) == (
            dataset_content_hash(factory_ds)
        )

    # The headline guarantee.
    assert speedup >= MIN_SPEEDUP, (
        f"dataset factory is only {speedup:.2f}x the sequential loop "
        f"(needs >= {MIN_SPEEDUP}x)"
    )


def test_datagen_resume_matches_uninterrupted(benchmark, tmp_path):
    """An interrupted + resumed run converges to the uninterrupted manifest."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    uninterrupted = tmp_path / "full"
    interrupted = tmp_path / "resumed"

    full_report = generate_corpus(SPEC, uninterrupted, num_workers=0)
    assert full_report.complete

    first = generate_corpus(SPEC, interrupted, num_workers=0, max_shards=2)
    assert not first.complete
    assert first.shards_generated == 2
    second = generate_corpus(SPEC, interrupted, num_workers=0)
    assert second.complete
    assert second.shards_skipped == first.shards_generated

    full_records = [record.to_dict() for record in full_report.manifest.records]
    resumed_records = [record.to_dict() for record in second.manifest.records]
    assert resumed_records == full_records


# --------------------------------------------------------------------- #
# reduced-order labelling
# --------------------------------------------------------------------- #


def run_rom_benchmark(rounds: int = ROUNDS):
    """Full-order vs gated ROM labelling on one large design.

    Both engines persist across rounds, the way the dataset factory holds
    one analysis per (design, solver) pair for a whole corpus — so the
    sparse factorisation and the one-time Krylov projection amortise over
    every labelled vector, and best-of-N measures the steady-state labelling
    throughput.  The ROM rounds run the *production* gated path: every
    ``run_many`` call validates a deterministic sample against the
    full-order reference and would fall back wholesale on a tolerance miss.

    Returns ``(records, entry)``: the comparison table rows and the
    ``BENCH_datagen.json`` trajectory entry.
    """
    design = reference_design(ROM_DESIGN, scale=ROM_SCALE, seed=0)
    traces = generate_test_vectors(
        design, ROM_VECTORS, VectorConfig(num_steps=ROM_STEPS, dt=ROM_DT), seed=ROM_SEED
    )

    full_analysis = DynamicNoiseAnalysis(design, ROM_DT, TransientOptions())
    build_started = time.perf_counter()
    rom_analysis = DynamicNoiseAnalysis(
        design, ROM_DT, TransientOptions(solver_mode="rom", rom=ROM_OPTIONS)
    )
    build_seconds = time.perf_counter() - build_started
    full_engine, rom_engine = full_analysis.engine, rom_analysis.engine

    full_seconds, full_results = best_of(rounds, lambda: full_engine.run_many(traces))
    rom_seconds, rom_results = best_of(rounds, lambda: rom_engine.run_many(traces))
    speedup = full_seconds / rom_seconds

    # Accuracy over *every* vector, not just the gate's sample: the relative
    # worst_droop error the ROM labels carry into a training corpus.
    max_rel = max(
        abs(rom.worst_droop - full.worst_droop)
        / max(abs(full.worst_droop), ROM_OPTIONS.droop_floor)
        for rom, full in zip(rom_results, full_results)
    )
    stats = rom_engine.rom_stats

    records = [
        ExperimentRecord(
            "datagen",
            "labels_full_order",
            {
                "total_s": full_seconds,
                "vectors": ROM_VECTORS,
                "vectors_per_sec": ROM_VECTORS / full_seconds,
            },
        ),
        ExperimentRecord(
            "datagen",
            "labels_rom",
            {
                "total_s": rom_seconds,
                "vectors": ROM_VECTORS,
                "vectors_per_sec": ROM_VECTORS / rom_seconds,
                "rank": rom_engine.strategy.rank,
                "build_s": build_seconds,
                "speedup_vs_full": speedup,
                "max_rel_error": max_rel,
                "fallbacks": stats.fallbacks,
            },
        ),
    ]
    entry = {
        "timestamp": time.time(),
        "git_rev": git_revision(REPO_ROOT),
        "design": f"{ROM_DESIGN}@{ROM_SCALE}",
        "nodes": design.mna.num_nodes,
        "vectors": ROM_VECTORS,
        "steps": ROM_STEPS,
        "rank": rom_engine.strategy.rank,
        "rom_build_s": build_seconds,
        "full_s": full_seconds,
        "rom_s": rom_seconds,
        "speedup": speedup,
        "max_rel_error": max_rel,
        "tolerance": ROM_OPTIONS.tolerance,
        "validated": stats.validated,
        "fallbacks": stats.fallbacks,
    }
    shard = traces[:SHARD_VECTORS]

    def label_shard(analysis):
        # One lockstep block per shard, as the dataset factory runs it.
        return lambda: build_dataset(design, shard, analysis=analysis, sim_batch_size=len(shard))

    entry["shard_peak_mb"] = {
        "vectors": len(shard),
        "full": _peak_mb(label_shard(full_analysis)),
        "rom": _peak_mb(label_shard(rom_analysis)),
    }
    entry["rom_build_peak_mb"] = _peak_mb(
        lambda: ReducedOrderStrategy.build(full_engine.strategy, ROM_OPTIONS)
    )
    return records, entry


def _peak_mb(run) -> float:
    """The tracemalloc peak of ``run()``, in MB.

    Counted above what was live when it began, so it is the call's own
    working set: for a shard, the solver block, the tile reduction and the
    features; for a ROM build, the Krylov moment stack and its truncation.
    """
    tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        run()
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    return peak / 2**20


def finish_rom(records, entry) -> None:
    """Persist the ROM comparison table and the trajectory row."""
    save_records(
        records, "datagen_rom", "Labelling throughput — full-order vs gated ROM"
    )
    append_trajectory(
        "datagen",
        entry,
        header={
            "metric": "transient labelling throughput, gated Krylov ROM vs "
            "full-order block solver",
            "min_speedup": MIN_ROM_SPEEDUP,
            "tolerance": ROM_OPTIONS.tolerance,
        },
    )


def check_rom(records, entry) -> None:
    """The gates: >= 5x at the pinned tolerance, and the gate never tripped."""
    assert entry["fallbacks"] == 0, (
        f"ROM gate fell back {entry['fallbacks']} time(s) during a clean "
        "benchmark run — the pinned tolerance no longer holds on this design"
    )
    assert entry["max_rel_error"] <= entry["tolerance"], (
        f"ROM worst_droop error {entry['max_rel_error']:.4f} exceeds the "
        f"pinned tolerance {entry['tolerance']}"
    )
    assert entry["speedup"] >= MIN_ROM_SPEEDUP, (
        f"ROM labelling is only {entry['speedup']:.2f}x the full-order "
        f"solver (needs >= {MIN_ROM_SPEEDUP}x)"
    )


def test_rom_labelling_speedup_and_accuracy(benchmark):
    """Pytest entry point: measure, persist, and gate the ROM comparison."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    records, entry = run_rom_benchmark()
    finish_rom(records, entry)
    check_rom(records, entry)


def main(argv=None) -> int:
    """Script entry point; wraps the run in a ``repro.obs`` telemetry run."""
    import argparse

    from repro import obs
    from repro.io import format_table

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single measurement round (the CI ROM-gate mode)",
    )
    parser.add_argument(
        "--obs-dir",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "results" / "datagen_obs",
        help="telemetry run directory (run_report.json lands here)",
    )
    args = parser.parse_args(argv)

    rounds = 1 if args.smoke else ROUNDS
    obs.start_run(args.obs_dir, config={"bench": "datagen_rom", "rounds": rounds})
    try:
        records, entry = run_rom_benchmark(rounds=rounds)
    finally:
        report = obs.finish_run(extra={"bench": "datagen_rom"})
    finish_rom(records, entry)
    print(format_table(records, title="Labelling throughput — full-order vs gated ROM"))
    print(f"telemetry report: {report}")
    check_rom(records, entry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
