"""Shared deterministic fault-injection seams for every pipeline stage.

Production code calls the hooks of a :class:`FaultInjector` at every point
where a real deployment can fail: gateway queue delivery and batch
execution, datagen shard generation and the mid-write window of the atomic
shard rename, the transient ground-truth solve, the trainer's optimiser
step, and eval sweep rows.  The default injector is inert — every hook is a
no-op returning the undisturbed value — so a seam costs one method call per
event (gated ≤1% of the surrounding work by
``benchmarks/bench_resilience.py``).

The test suites (``tests/gateway/``, ``tests/resilience/``) script failures
through these hooks *deterministically*: no sleeps, no racing signal
handlers — a fault fires at an exact call ordinal of an exact seam, so a
kill-and-resume cycle is as reproducible as the pipeline it interrupts.

Two ways to inject:

* **Process-global install** — pipeline call sites read the injector via
  :func:`active`; tests swap it with :func:`install` or the
  :func:`injected` context manager.  Process-pool runs pass a picklable
  zero-argument *factory* to the engine (e.g. ``generate_corpus(...,
  faults_factory=...)``) which installs the injector inside each worker.
* **Explicit argument** — the gateway keeps taking its injector as a
  constructor argument (``ScreeningGateway(..., faults=...)``); the hooks
  are the same class either way.

See ``docs/resilience.md`` for the full failure model.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from pathlib import Path

    from repro.gateway.messages import GatewayRequest
    from repro.workloads.dataset import NoiseDataset

__all__ = [
    "FaultInjector",
    "ScriptedFaults",
    "WorkerKilled",
    "NULL_FAULTS",
    "active",
    "install",
    "injected",
]


class WorkerKilled(BaseException):
    """Injected worker/process death.

    Deliberately a :class:`BaseException`: pipeline error handling catches
    :class:`Exception` to retry or quarantine a failed unit of work, and a
    *kill* must not be swallowed by that handling — it has to unwind the
    worker (thread or process) wherever it is raised, exactly like a real
    SIGKILL or preemption would.  In a process-pool worker it takes the
    whole process down (the parent sees a broken pool); inline it unwinds
    straight out of the engine, which is how the chaos tests model dying
    mid-run without actually forking.
    """


class FaultInjector:
    """No-op fault hooks at every pipeline seam; subclass to script failures.

    Gateway seams (run on gateway worker threads):

    * :meth:`on_dequeue` — returns the deliveries to process for one
      dequeued request; return it twice to duplicate, ``()`` to delay.
    * :meth:`before_batch` — once per micro-batch before prediction;
      raising :class:`WorkerKilled` here crashes the worker mid-batch.
    * :meth:`on_checkpoint_load` — before a design's predictor fetch;
      raising fails only that design group.
    * :meth:`before_swap` — as a shard applies a hot checkpoint swap;
      raising fails the swap future.

    Pipeline seams (datagen / sim / training / eval):

    * :meth:`before_shard` — as a datagen worker starts a claimed shard.
    * :meth:`on_shard_dataset` — with a shard's freshly simulated dataset,
      before quarantine scanning and the shard write; return a replacement
      dataset to poison labels.
    * :meth:`during_shard_write` — between the shard's temp-file write and
      the atomic rename; raising :class:`WorkerKilled` here is the
      SIGKILL-mid-write scenario.
    * :meth:`before_solve` — before each transient ground-truth solve.
    * :meth:`on_train_step` — after each optimiser step; raise to model
      preemption, or write NaNs into the model to poison training.
    * :meth:`before_row` — before each eval row/sweep job attempt.
    """

    # -- gateway seams -------------------------------------------------- #

    def on_dequeue(
        self, shard_id: int, request: "GatewayRequest"
    ) -> Sequence["GatewayRequest"]:
        """Deliveries to process for one dequeued request (default: itself)."""
        return (request,)

    def before_batch(self, shard_id: int, requests: Sequence["GatewayRequest"]) -> None:
        """Called with each micro-batch before prediction; raise to crash."""

    def on_checkpoint_load(self, shard_id: int, design_name: str) -> None:
        """Called before a predictor fetch; raise to fail the load."""

    def before_swap(self, shard_id: int, design_name: str) -> None:
        """Called as a shard applies a checkpoint swap; raise to fail it."""

    # -- datagen seams --------------------------------------------------- #

    def before_shard(self, label: str, index: int) -> None:
        """Called as a worker starts one claimed shard; raise to fail the attempt."""

    def on_shard_dataset(
        self, label: str, index: int, dataset: "NoiseDataset"
    ) -> "NoiseDataset":
        """Called with a shard's freshly built dataset; return it (possibly poisoned)."""
        return dataset

    def during_shard_write(
        self, label: str, index: int, temporary: "Path"
    ) -> None:
        """Called between a shard's temp write and its atomic rename; raise to die mid-write."""

    # -- simulation seam -------------------------------------------------- #

    def before_solve(self, design_name: str, num_traces: int) -> None:
        """Called before each transient ground-truth solve; raise to fail it."""

    # -- training seam ---------------------------------------------------- #

    def on_train_step(self, epoch: int, step: int, model) -> None:
        """Called after each optimiser step; raise to crash, mutate ``model`` to poison."""

    # -- eval seam --------------------------------------------------------- #

    def before_row(self, key: str) -> None:
        """Called before each eval row attempt; raise to fail it."""


#: Shared inert injector used when no faults are configured.
NULL_FAULTS = FaultInjector()

# Process-global injector read by the pipeline seams.  Unlike the obs
# context this is NOT re-keyed per pid: a forked pool worker inheriting the
# parent's scripted injector is exactly what the chaos tests install a
# factory for, and the inert default has no per-process state to confuse.
_ACTIVE: FaultInjector = NULL_FAULTS


def active() -> FaultInjector:
    """The process-global injector (the inert :data:`NULL_FAULTS` by default)."""
    return _ACTIVE


def install(injector: Optional[FaultInjector]) -> FaultInjector:
    """Install the process-global injector and return the previous one.

    ``None`` restores the inert default.  Pool engines call this from their
    worker initialisers with the product of a picklable factory, so the same
    scripted faults fire no matter how the run is parallelised.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = injector if injector is not None else NULL_FAULTS
    return previous


@contextmanager
def injected(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Install ``injector`` for the duration of a ``with`` block (test helper)."""
    previous = install(injector)
    try:
        yield injector
    finally:
        install(previous)


#: A scripted error: an exception instance, or a zero-argument factory.
_ErrorScript = Union[BaseException, Callable[[], BaseException]]


class ScriptedFaults(FaultInjector):
    """Injector firing scripted exceptions at exact seam-call ordinals.

    Arm failures with :meth:`fail_at`; each seam counts its calls (0-based,
    per seam name) and raises the armed error when its ordinal comes up.
    Counting is deterministic because every pipeline seam is called at
    deterministic points, so "kill the second shard build" or "fail the
    fourth solve" reproduce exactly across runs — the property every
    ``tests/resilience/`` scenario is built on.

    Seam names: ``datagen.shard`` (:meth:`before_shard`),
    ``datagen.dataset`` (:meth:`on_shard_dataset`), ``datagen.shard_write``
    (:meth:`during_shard_write`), ``sim.solve`` (:meth:`before_solve`),
    ``training.step`` (:meth:`on_train_step`), ``eval.row``
    (:meth:`before_row`), ``gateway.batch`` (:meth:`before_batch`),
    ``gateway.checkpoint_load`` (:meth:`on_checkpoint_load`),
    ``gateway.swap`` (:meth:`before_swap`).

    Every fired fault increments the ``faults.injected`` counter and is
    recorded in :attr:`fired` as ``(seam, ordinal)``.
    """

    def __init__(self) -> None:
        self._scripts: dict[str, dict[int, _ErrorScript]] = {}
        #: Per-seam call counts (inspectable by tests).
        self.calls: dict[str, int] = {}
        #: ``(seam, ordinal)`` of every fault that fired, in order.
        self.fired: list[tuple[str, int]] = []

    def fail_at(self, seam: str, ordinal: int, error: _ErrorScript) -> "ScriptedFaults":
        """Arm ``error`` to fire on the ``ordinal``-th call of ``seam`` (chainable)."""
        self._scripts.setdefault(seam, {})[int(ordinal)] = error
        return self

    def _fire(self, seam: str) -> None:
        """Count one seam call; raise the armed error when scripted."""
        count = self.calls.get(seam, 0)
        self.calls[seam] = count + 1
        error = self._scripts.get(seam, {}).get(count)
        if error is None:
            return
        self.fired.append((seam, count))
        from repro import obs

        obs.metrics().counter("faults.injected").inc()
        if isinstance(error, BaseException):
            raise error
        raise error()

    # -- scripted overrides of every seam --------------------------------- #

    def on_dequeue(self, shard_id, request):
        """Count/fire at ``gateway.dequeue``; deliver the request unchanged."""
        self._fire("gateway.dequeue")
        return (request,)

    def before_batch(self, shard_id, requests) -> None:
        """Count/fire at ``gateway.batch``."""
        self._fire("gateway.batch")

    def on_checkpoint_load(self, shard_id, design_name) -> None:
        """Count/fire at ``gateway.checkpoint_load``."""
        self._fire("gateway.checkpoint_load")

    def before_swap(self, shard_id, design_name) -> None:
        """Count/fire at ``gateway.swap``."""
        self._fire("gateway.swap")

    def before_shard(self, label, index) -> None:
        """Count/fire at ``datagen.shard``."""
        self._fire("datagen.shard")

    def on_shard_dataset(self, label, index, dataset):
        """Count/fire at ``datagen.dataset``; pass the dataset through."""
        self._fire("datagen.dataset")
        return dataset

    def during_shard_write(self, label, index, temporary) -> None:
        """Count/fire at ``datagen.shard_write``."""
        self._fire("datagen.shard_write")

    def before_solve(self, design_name, num_traces) -> None:
        """Count/fire at ``sim.solve``."""
        self._fire("sim.solve")

    def on_train_step(self, epoch, step, model) -> None:
        """Count/fire at ``training.step``."""
        self._fire("training.step")

    def before_row(self, key) -> None:
        """Count/fire at ``eval.row``."""
        self._fire("eval.row")
