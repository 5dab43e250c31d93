"""The one process fan-out: a worker pool when possible, inline otherwise.

The datagen engine and the eval scenario sweep run independent, picklable
tasks through :func:`fan_out`.  Work that needs retries wraps it in
:func:`~repro.resilience.retry.retry_in_waves`, which consumes exactly the
``(task, result)`` pairs it yields.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from pickle import PicklingError
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from repro import faults
from repro.utils import get_logger

__all__ = ["FaultsFactory", "fan_out"]

_LOG = get_logger("resilience.fanout")

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Signature of a picklable fault-injector factory installed in each worker.
FaultsFactory = Callable[[], "faults.FaultInjector"]


def _init_worker(
    initializer: Callable[..., None],
    initargs: tuple,
    faults_factory: Optional[FaultsFactory],
) -> None:
    """Pool initializer: the caller's worker set-up, then its fault injector."""
    initializer(*initargs)
    if faults_factory is not None:
        faults.install(faults_factory())


def fan_out(
    run: Callable[[_T], _R],
    tasks: Sequence[_T],
    *,
    num_workers: Optional[int],
    initializer: Callable[..., None],
    initargs: tuple,
    faults_factory: Optional[FaultsFactory] = None,
    before_inline: Optional[Callable[[], None]] = None,
) -> Iterator[tuple[_T, _R]]:
    """Yield ``(task, run(task))`` for every task, in task order.

    ``num_workers=None`` means ``min(len(tasks), os.cpu_count())`` processes;
    ``0``, or a pool that cannot be created, runs every task inline.  After a
    broken pool or an unpicklable task, yielded pairs stay and only the rest
    runs inline.  ``run``'s own exceptions propagate unchanged.  Each worker
    calls ``initializer(*initargs)``, then installs ``faults_factory()``; an
    inline run calls ``before_inline()`` first and scopes the injector with
    :func:`repro.faults.injected`.
    """
    tasks = list(tasks)
    done = 0
    if num_workers is None:
        num_workers = min(len(tasks), os.cpu_count() or 1)
    if num_workers > 0:
        try:
            pool = ProcessPoolExecutor(
                max_workers=num_workers,
                initializer=_init_worker,
                initargs=(initializer, initargs, faults_factory),
            )
        except (OSError, NotImplementedError) as error:
            _LOG.warning("cannot create process pool (%s); running inline", error)
        else:
            with pool:
                try:
                    for task, result in zip(tasks, pool.map(run, tasks)):
                        done += 1
                        yield task, result
                    return
                except (BrokenProcessPool, PicklingError) as error:
                    # A transport failure, not a task failure: task
                    # exceptions propagate from pool.map unchanged.
                    _LOG.warning(
                        "process pool broke after %d/%d tasks (%s); "
                        "running the rest inline",
                        done,
                        len(tasks),
                        error,
                    )
    if before_inline is not None:
        before_inline()
    initializer(*initargs)
    injector = None if faults_factory is None else faults_factory()
    with nullcontext() if injector is None else faults.injected(injector):
        for task in tasks[done:]:
            yield task, run(task)
