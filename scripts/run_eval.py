#!/usr/bin/env python3
"""Run a cross-design evaluation campaign and gate it against its baseline.

The tier-2 entry point: generates (or resumes) the campaign corpus, runs the
leave-one-design-out evaluation and the scenario sweep, prints the
paper-style tables, and compares the gated accuracy metrics against the
golden baseline under ``eval/baselines/`` — exiting non-zero on drift, which
is what CI keys off.

Usage::

    python scripts/run_eval.py --budget smoke             # run + gate
    python scripts/run_eval.py --budget smoke --check     # baseline required
    python scripts/run_eval.py --budget smoke --update-baseline
    python scripts/run_eval.py --budget tiny --workdir /tmp/campaign

The campaign workdir (default ``eval/runs/<budget>``) holds the resumable
artefacts — corpus shards, served checkpoints, ``report.json`` and
``sweep.json`` — so an interrupted run picks up where it stopped and a
completed run re-verifies in seconds.  Delete the workdir to start from
scratch.  See ``docs/evaluation.md`` for the protocols and the
baseline-refresh workflow.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import obs
from repro.eval import BaselineStore, CrossDesignEvaluator, ScenarioSweep, budget, budget_names
from repro.io import format_table


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--budget", default="smoke", choices=budget_names(),
        help="evaluation budget to run (default: smoke)",
    )
    parser.add_argument(
        "--workdir", type=Path, default=None,
        help="campaign workdir (default: eval/runs/<budget>)",
    )
    parser.add_argument(
        "--baselines", type=Path, default=REPO_ROOT / "eval" / "baselines",
        help="golden-baseline directory (default: eval/baselines)",
    )
    parser.add_argument(
        "--num-workers", type=int, default=None,
        help="worker processes for corpus generation and the sweep "
        "(default: auto; 0 = inline)",
    )
    parser.add_argument(
        "--fresh", action="store_true",
        help="ignore existing report/sweep rows and re-evaluate everything "
        "(the corpus is still reused)",
    )
    parser.add_argument(
        "--skip-sweep", action="store_true",
        help="skip the scenario sweep (leave-one-design-out rows only)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the measured metrics as the new golden baseline",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="require a baseline: fail when it is missing instead of "
        "warning (the CI mode; without this flag a missing baseline is "
        "only a warning)",
    )
    parser.add_argument(
        "--serving-dtype", default="float64", choices=("float64", "float32"),
        help="precision the held-out screening runs at (training is always "
        "float64); float32 is gated against the same golden numbers via the "
        "baseline's per-dtype tolerance bands (default: float64)",
    )
    parser.add_argument(
        "--solver-mode", default="full", choices=("full", "rom"),
        help="transient strategy labelling the campaign corpus: the "
        "full-order companion solver or the gated Krylov reduced-order "
        "model (see docs/solvers.md; default: full)",
    )
    args = parser.parse_args(argv)

    full_order = budget(args.budget)
    config = full_order
    if args.solver_mode != "full":
        config = replace(config, solver_mode=args.solver_mode)
    # A non-default serving dtype or label solver gets its own workdir:
    # report.json rows are measured against one configuration and must not
    # be resumed under another.
    default_dir = config.name
    if args.serving_dtype != "float64":
        default_dir = f"{default_dir}-{args.serving_dtype}"
    if args.solver_mode != "full":
        default_dir = f"{default_dir}-{args.solver_mode}"
    workdir = args.workdir or (REPO_ROOT / "eval" / "runs" / default_dir)

    # The campaign runs inside a telemetry run: every layer's metrics and
    # spans (including pool workers') merge into <workdir>/obs/run_report.json,
    # which scripts/obs_report.py renders (and CI exercises on every push).
    obs.start_run(
        workdir / "obs",
        config={
            "budget": config.name,
            "config_hash": config.config_hash(),
            "serving_dtype": args.serving_dtype,
            "solver_mode": args.solver_mode,
        },
    )
    try:
        evaluator = CrossDesignEvaluator(config, workdir, serving_dtype=args.serving_dtype)
        report = evaluator.run(num_workers=args.num_workers, resume=not args.fresh)
        print(report.table())

        if config.scenarios and not args.skip_sweep:
            sweep = ScenarioSweep(config, workdir)
            records = sweep.run(num_workers=args.num_workers, resume=not args.fresh)
            print(format_table(records, title="scenario sweep"))
    finally:
        telemetry_path = obs.finish_run()
        print(f"telemetry report: {telemetry_path}")

    store = BaselineStore(args.baselines)
    metrics = report.gated_metrics()
    if args.update_baseline:
        if args.serving_dtype != "float64":
            print("ERROR: golden baselines are measured at float64; "
                  "re-run --update-baseline without --serving-dtype")
            return 1
        if args.solver_mode != "full":
            print("ERROR: golden baselines are measured against full-order "
                  "labels; re-run --update-baseline without --solver-mode")
            return 1
        path = store.save(
            config.name, metrics, config.config_hash(), git_rev=report.git_rev
        )
        print(f"baseline refreshed: {path}")
        return 0
    if not store.exists(config.name):
        message = (
            f"no baseline for budget {config.name!r} under {args.baselines}; "
            "create one with --update-baseline"
        )
        if args.check:
            print(f"ERROR: {message}")
            return 1
        print(f"WARNING: {message}")
        return 0
    # Baselines are measured against full-order labels; a run labelled by
    # another solver is judged against the same bands, so it is compared
    # under the hash of its full-order campaign.
    drift = store.compare(
        config.name, metrics, full_order.config_hash(), dtype=args.serving_dtype
    )
    print(drift.summary())
    return 0 if drift.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
