"""Unified telemetry: metrics registry, span tracing, run reports.

``repro.obs`` is the observability substrate every layer reports through:

* :mod:`repro.obs.metrics` — counters, gauges and fixed-bucket latency
  histograms with p50/p95/p99 extraction, no-ops when disabled;
* :mod:`repro.obs.trace` — nested ``with span(...)`` contexts producing
  parent/child span records with durations and attributes;
* :mod:`repro.obs.sink` — process-pool-safe JSONL event shards merged
  deterministically into a config-hash-stamped ``run_report.json``.

This package module owns the **process-global context**: one registry and
one tracer per process, resolved lazily.  Instrumented call sites do::

    from repro import obs

    obs.metrics().counter("gateway.requests").inc()
    with obs.get_tracer().span("eval.heldout", design=name) as span:
        ...
    elapsed = span.duration_s

and pay one no-op method call when observability is off.

**Enabling.** Observability is off by default.  It turns on when the
``REPRO_OBS`` environment variable is truthy (``1``/``true``/``yes``/``on``)
or :func:`configure`/:func:`start_run` enable it programmatically.
:func:`start_run` additionally exports ``REPRO_OBS`` and ``REPRO_OBS_DIR``
into the environment so pool workers — whether forked or spawned — inherit
the run and flush their own event shards into the run directory.

**Process-pool safety.**  The context is keyed to the creating pid: a
worker that inherited the parent's module state via ``fork`` gets a fresh
registry/tracer on first use instead of double-counting the parent's
telemetry.  Workers flush shards labelled ``w<pid>``; the process that
called :func:`start_run` flushes as ``main`` and merges everything in
:func:`finish_run`.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.trace import Span, SpanTracer
from repro.obs.sink import (
    RUN_REPORT_NAME,
    build_run_report,
    config_hash,
    load_run_report,
    merge_shards,
    read_event_shard,
    write_event_shard,
    write_run_report,
)

__all__ = [
    "enabled",
    "configure",
    "reset",
    "metrics",
    "get_tracer",
    "start_run",
    "finish_run",
    "active_run",
    "flush_shard",
    "worker_label",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Span",
    "SpanTracer",
    "RUN_REPORT_NAME",
    "config_hash",
    "read_event_shard",
    "write_event_shard",
    "merge_shards",
    "build_run_report",
    "write_run_report",
    "load_run_report",
]

#: Environment variable that turns observability on when truthy.
ENV_ENABLED = "REPRO_OBS"

#: Environment variable naming the active run directory for event shards.
ENV_RUN_DIR = "REPRO_OBS_DIR"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

# Process-global context.  _ctx_pid keys the registry/tracer to the process
# that built them, so fork'd pool workers rebuild instead of inheriting (and
# double-counting) the parent's telemetry.
_registry: Optional[MetricsRegistry] = None
_tracer: Optional[SpanTracer] = None
_ctx_pid: Optional[int] = None
_enabled_override: Optional[bool] = None
_run_dir: Optional[Path] = None
_run_config: Optional[dict] = None
_owner_pid: Optional[int] = None


def enabled() -> bool:
    """Whether observability is on for this process.

    Programmatic :func:`configure`/:func:`start_run` settings win; otherwise
    the ``REPRO_OBS`` environment variable decides (truthy values: ``1``,
    ``true``, ``yes``, ``on``; case-insensitive).
    """
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get(ENV_ENABLED, "").strip().lower() in _TRUTHY


def _ensure_context() -> None:
    """(Re)build the per-process registry/tracer when absent or after fork."""
    global _registry, _tracer, _ctx_pid
    pid = os.getpid()
    if _registry is None or _ctx_pid != pid:
        on = enabled()
        _registry = MetricsRegistry() if on else NULL_REGISTRY
        _tracer = SpanTracer(enabled=on)
        _ctx_pid = pid


def metrics() -> MetricsRegistry:
    """The process-global metrics registry (a null registry when disabled)."""
    _ensure_context()
    return _registry


def get_tracer() -> SpanTracer:
    """The process-global span tracer (non-recording when disabled)."""
    _ensure_context()
    return _tracer


def configure(enabled: Optional[bool] = None) -> None:
    """Programmatically force observability on/off for this process.

    Passing ``None`` drops the override and defers to ``REPRO_OBS`` again.
    The registry and tracer are rebuilt fresh either way.
    """
    global _enabled_override, _registry, _tracer
    _enabled_override = enabled
    _registry = None
    _tracer = None
    _ensure_context()


def reset() -> None:
    """Restore the pristine disabled state (test isolation hook).

    Clears the context, the override, any active run, and removes the
    ``REPRO_OBS``/``REPRO_OBS_DIR`` environment variables.
    """
    global _registry, _tracer, _ctx_pid, _enabled_override
    global _run_dir, _run_config, _owner_pid
    _registry = None
    _tracer = None
    _ctx_pid = None
    _enabled_override = None
    _run_dir = None
    _run_config = None
    _owner_pid = None
    os.environ.pop(ENV_ENABLED, None)
    os.environ.pop(ENV_RUN_DIR, None)


def active_run() -> Optional[Path]:
    """The active run directory, or ``None`` when no run is in progress.

    Resolves the directory :func:`start_run` recorded in this process, or —
    in a pool worker — the ``REPRO_OBS_DIR`` environment variable inherited
    from the parent.
    """
    if _run_dir is not None:
        return _run_dir
    from_env = os.environ.get(ENV_RUN_DIR)
    return Path(from_env) if from_env else None


def worker_label() -> str:
    """This process's shard label: ``main`` for the run owner, else ``w<pid>``."""
    if _owner_pid == os.getpid():
        return "main"
    return f"w{os.getpid()}"


def start_run(directory: Union[str, Path], config: Optional[dict] = None) -> Path:
    """Begin a telemetry run rooted at ``directory``.

    Enables observability, starts this process's context fresh, creates the
    run directory, and exports ``REPRO_OBS``/``REPRO_OBS_DIR`` so pool
    workers (forked *or* spawned) inherit the run and shard into it.

    Parameters
    ----------
    directory:
        Run directory; event shards and the merged report live here.
    config:
        The run configuration; remembered and stamped (as ``config_hash``)
        into the report that :func:`finish_run` writes.

    Returns
    -------
    The run directory as a :class:`~pathlib.Path`.
    """
    global _enabled_override, _run_dir, _run_config, _owner_pid, _registry, _tracer
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _enabled_override = True
    _run_dir = directory
    _run_config = config
    _owner_pid = os.getpid()
    os.environ[ENV_ENABLED] = "1"
    os.environ[ENV_RUN_DIR] = str(directory)
    _registry = None
    _tracer = None
    _ensure_context()
    return directory


def flush_shard() -> Optional[Path]:
    """Write this process's cumulative event shard into the active run.

    No-op (returns ``None``) when observability is disabled or no run is
    active.  Safe to call repeatedly — the shard is overwritten atomically
    with the process's complete current telemetry each time.
    """
    run = active_run()
    if run is None or not enabled():
        return None
    return write_event_shard(run, worker_label(), metrics(), get_tracer())


def finish_run(extra: Optional[dict] = None) -> Path:
    """Flush the owner shard, merge all shards, and write ``run_report.json``.

    Ends the run: the environment toggles set by :func:`start_run` are
    removed and the process context is reset to the disabled default.

    Parameters
    ----------
    extra:
        Optional additional top-level report keys, forwarded to
        :func:`~repro.obs.sink.build_run_report`.

    Returns
    -------
    Path of the written report.

    Raises
    ------
    RuntimeError
        When no run is active in this process.
    """
    if _run_dir is None:
        raise RuntimeError("finish_run() called with no active run; call start_run() first")
    flush_shard()
    report_path = write_run_report(_run_dir, config=_run_config, extra=extra)
    reset()
    return report_path
