#!/usr/bin/env python3
"""Chaos drill: generate a tiny corpus while dying at scripted seams.

The process-level half of the resilience story: ``tests/resilience/`` models
kills *inline* with :class:`~repro.faults.WorkerKilled`, while this drill
raises a **real** ``SIGKILL`` against its own process at exact fault-seam
ordinals — no handlers run, no ``finally`` blocks, the kernel just takes the
process.  ``tests/resilience/test_chaos_e2e.py`` runs it as a subprocess:
several killed runs against one workdir, a final run to completion, and a
clean single run in a fresh workdir — the two manifests must be
byte-identical, quarantined vectors included.

A deterministic label-poisoning fault is always armed (the first vector of
shard ``small:0`` gets a NaN label), so the drill also proves quarantine
decisions survive kill/resume cycles.

Usage::

    python scripts/chaos_drill.py --workdir /tmp/drill \
        --kill-at datagen.shard:1 --kill-at sim.solve:5
    python scripts/chaos_drill.py --workdir /tmp/drill   # run to completion

Exit status: ``-SIGKILL`` when a scripted kill fires (by construction),
``0`` after a completed run.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import faults
from repro.datagen import CorpusDesignSpec, CorpusSpec, generate_corpus
from repro.resilience import RetryPolicy

#: Seams a drill can die at, in the order the engine reaches them.
KILLABLE_SEAMS = ("datagen.shard", "datagen.dataset", "datagen.shard_write", "sim.solve")


def drill_spec(solver_mode: str = "full") -> CorpusSpec:
    """The drill corpus: one design, 4 vectors, 2 shards — seconds to build.

    ``solver_mode="rom"`` labels the corpus through the gated Krylov
    reduced-order strategy instead of the full-order companion solver, so
    the kill/resume byte-identity guarantee is drilled against both
    labelling paths (the ROM projection is rebuilt deterministically on
    every resume — see ``docs/solvers.md``).
    """
    return CorpusSpec(
        designs=(
            CorpusDesignSpec(
                label="small",
                design="small@6",
                num_vectors=4,
                num_steps=24,
                shard_size=2,
                seed=3,
            ),
        ),
        sim_batch_size=4,
        solver_mode=solver_mode,
    )


class ChaosInjector(faults.FaultInjector):
    """SIGKILL this process at scripted seam ordinals; always poison one label.

    The poisoning runs in *every* drill (killed or clean), so the quarantine
    decision recorded in the manifest is part of the byte-identity check,
    not an artefact of which run happened to survive.
    """

    def __init__(self, kill_at):
        self.kill_at = set(kill_at)
        self.calls: dict[str, int] = {}

    def _seam(self, seam: str) -> None:
        ordinal = self.calls.get(seam, 0)
        self.calls[seam] = ordinal + 1
        if (seam, ordinal) in self.kill_at:
            os.kill(os.getpid(), signal.SIGKILL)

    def before_shard(self, label, index):
        self._seam("datagen.shard")

    def on_shard_dataset(self, label, index, dataset):
        self._seam("datagen.dataset")
        if (label, index) == ("small", 0):
            dataset.samples[0].target[...] = np.nan
        return dataset

    def during_shard_write(self, label, index, temporary):
        self._seam("datagen.shard_write")

    def before_solve(self, design_name, num_traces):
        self._seam("sim.solve")


def parse_kill_at(specs) -> list[tuple[str, int]]:
    """Parse repeated ``seam:ordinal`` arguments into ``(seam, int)`` pairs."""
    kill_at = []
    for spec in specs:
        seam, separator, ordinal = spec.rpartition(":")
        if not separator or seam not in KILLABLE_SEAMS or not ordinal.isdigit():
            raise SystemExit(
                f"bad --kill-at {spec!r}: expected <seam>:<ordinal> with seam "
                f"one of {', '.join(KILLABLE_SEAMS)}"
            )
        kill_at.append((seam, int(ordinal)))
    return kill_at


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (or never, if killed)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", required=True, help="corpus root directory")
    parser.add_argument(
        "--kill-at",
        action="append",
        default=[],
        metavar="SEAM:ORDINAL",
        help="SIGKILL self at this seam call ordinal (repeatable)",
    )
    parser.add_argument(
        "--num-workers", type=int, default=0,
        help="worker processes; 0 (default) runs inline so kills hit this process",
    )
    parser.add_argument(
        "--solver-mode", default="full", choices=("full", "rom"),
        help="transient strategy labelling the drill corpus (default: full)",
    )
    args = parser.parse_args(argv)

    faults.install(ChaosInjector(parse_kill_at(args.kill_at)))
    report = generate_corpus(
        drill_spec(args.solver_mode),
        args.workdir,
        num_workers=args.num_workers,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0),
    )
    print(
        "chaos drill complete: "
        f"generated={report.shards_generated} skipped={report.shards_skipped} "
        f"regenerated={report.shards_regenerated} "
        f"quarantined={report.vectors_quarantined} complete={report.complete}"
    )
    return 0 if report.complete else 1


if __name__ == "__main__":
    sys.exit(main())
