"""End-to-end benchmark of the three hot paths: screening, training, labelling.

Run from the repository root::

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --pin          # rewrite perfbench/reference.npz

One workload runs per process, so process-global state (the kernel
backend, telemetry, the peak RSS) never leaks between workloads; ``all``
runs each in its own child process.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Lines before it stamp the environment and print
the path-specific metrics by name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Fixed thread settings: every BLAS/OpenMP pool and the kernel layer run
#: single-threaded, so runs compare like with like on any machine.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_KERNEL_THREADS": "1",
}

WORKLOAD_NAMES = ("screen", "train", "label", "label_rom")

#: How often set-up runs in one process; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: The speed probe either side of each set-up.  Every set-up builds designs
#: and most of them label vectors; over minutes this probe followed the
#: drift of the ``screen`` and ``train`` set-ups closer than ``dense`` did.
SETUP_SPEED_KIND = "sparse"

#: End-to-end metric name -> unit; every workload reports every one.  Times
#: are process CPU time (every path runs single-threaded here, so on an idle
#: machine they equal wall-clock time), each operation scaled by the speed
#: probes timed either side of it, so the host's drift cancels (see METRICS.md).
END_TO_END = {
    "setup_s": "s",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
    "cpu_ms_per_op": "ms",
}

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite reference.npz and exit")
    return parser.parse_args(argv)


def environment(root: Path) -> dict:
    """Everything a result depends on besides the code and the seed."""
    import numpy
    import scipy

    from repro.nn import kernels
    from repro.utils.artifacts import git_revision

    return {
        "nproc": os.cpu_count(),
        **{name: os.environ.get(name, "") for name in THREAD_ENV},
        "kernel_threads": kernels.kernel_threads(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # Only ask git inside a git checkout; it would otherwise search the
        # directories above this one.
        "git_revision": git_revision(root) if (root / ".git").exists() else "unknown",
    }


def run_all(args, root: Path) -> int:
    """Each workload in its own child process; prints their results."""
    results = {}
    for name in WORKLOAD_NAMES:
        completed = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            cwd=root, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {completed.returncode}", file=sys.stderr)
            return completed.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(result["correct"] for result in results.values()) else 1


def run_workload(args, root: Path) -> int:
    import hotpaths
    import layers
    import speed
    from repro.nn import kernels
    from spans import Recorder, make_timing_backend

    workdir = root / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = hotpaths.WORKLOADS[args.workload](args.seed, workdir)
    recorder = None
    try:
        if args.trace:
            recorder = Recorder()
            workload.recorder = recorder
            workload.trace(recorder)
            kernels.register_backend("perfbench-timing", make_timing_backend(recorder, kernels))
            recorder.active = True
        setup_times, setup_probes = [], [workload.probe(SETUP_SPEED_KIND)]
        for _ in range(SETUP_REPEATS):
            began = time.process_time()
            workload.setup()
            setup_times.append(time.process_time() - began)
            setup_probes.append(workload.probe(SETUP_SPEED_KIND))
        setup_scaled = speed.bracketed(setup_times, setup_probes, SETUP_SPEED_KIND)
        if recorder is not None:
            recorder.active = False
        workload.warm()
        plain = workload.measure(args.seconds)
        traced = None
        if recorder is not None:
            # set_backend is process-wide, so the gateway's shard thread
            # dispatches to the timing backend too (use_backend would not).
            recorder.phase = "measure"
            kernels.set_backend("perfbench-timing")
            recorder.active = True
            traced = workload.measure(args.seconds / 2)
            recorder.active = False
            kernels.set_backend("numpy")
        checks = workload.check()
    finally:
        workload.close()
        if recorder is not None:
            recorder.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = _peak_rss_mb()

    check_failures = [message for message in checks if message]
    runs = [plain] if traced is None else [plain, traced]
    attempted = sum(run.attempted for run in runs) + len(checks)
    failed = sum(run.failed for run in runs) + len(check_failures)
    for message in workload.failures + check_failures:
        print(f"FAILED: {message}", file=sys.stderr)

    print("env " + json.dumps(environment(root), sort_keys=True))
    path_metrics = {
        "setup_s_unscaled": (statistics.median(setup_times), "s"),
        "cpu_ms_per_op_unscaled": (plain.cpu_ms, "ms"),
        **{
            f"probe_{kind}_s": (statistics.median(times), "s")
            for kind, times in workload.probe_times.items()
        },
        "error_rate": (failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        **plain.path_metrics,
    }
    for name, (value, unit) in path_metrics.items():
        print(f"metric {args.workload} {name} = {value:.6g} {unit}")

    if recorder is None:
        values = {
            "setup_s": statistics.median(setup_scaled),
            "success_rate": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
            "cpu_ms_per_op": plain.norm_ms,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        spans = recorder.of_phase("measure")
        values = layers.compute(
            spans, recorder.spans, traced.elapsed, traced.units,
            (recorder.pool_hits, recorder.pool_takes),
        )
        values.update(workload.layer_metrics(spans))
        for name in ("screen_p95_ms", "label_err_max", "label_bias_abs", "train_test_mre_pct"):
            if name in plain.path_metrics:
                values[name] = plain.path_metrics[name][0]
        values["trace.overhead"] = traced.cpu_ms / plain.cpu_ms - 1
        trace_path = root / ".perfbench" / f"trace-{args.workload}-{args.seed}.jsonl"
        recorder.dump(trace_path)
        print(f"trace {trace_path.relative_to(root)} ({len(recorder.spans)} spans)")
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in layers.PER_LAYER.items()
        }
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def pin(root: Path) -> int:
    """Recompute every pinned reference output and store it."""
    import numpy as np

    import hotpaths

    workdir = root / ".perfbench" / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    for name in ("screen", "train", "label"):
        workload = hotpaths.WORKLOADS[name](0, workdir)
        try:
            workload.setup()
            outputs.update(workload.pinned())
        finally:
            workload.close()
    np.savez(hotpaths.REFERENCE_FILE, **outputs)
    shutil.rmtree(workdir, ignore_errors=True)
    print(f"pinned {sorted(outputs)} to {hotpaths.REFERENCE_FILE.relative_to(root)}")
    return 0


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    # Before numpy is imported anywhere: thread pools size themselves once.
    os.environ.update(THREAD_ENV)
    os.environ["REPRO_OBS"] = "0"
    os.environ.pop("REPRO_OBS_DIR", None)
    sys.path.insert(0, str(root / "src"))
    if args.pin:
        return pin(root)
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
