"""Tests for repro.resilience.fan_out — the one pool-or-inline task loop.

Every scenario is deterministic and wait-free: pool creation failures are
monkeypatched, and the broken-pool case kills a worker exactly once through
an ``O_EXCL`` marker file, so which task dies never depends on timing.
"""

import os
import signal

import pytest

from repro import faults
from repro.faults import FaultInjector, ScriptedFaults
from repro.resilience import fan_out
from repro.resilience import fanout as fanout_module

# Per-process state set by _init; picklable module-level task functions
# read it, so a result tells which initializer ran where.
_STATE: dict = {}


def _init(tag: str, log: str = "") -> None:
    _STATE["tag"] = tag
    _STATE["log"] = log


def _echo(task: int) -> tuple:
    """Return the task with the pid that ran it and the initializer's tag."""
    if _STATE["log"]:
        with open(_STATE["log"], "a") as handle:
            handle.write(f"{task} {os.getpid()}\n")
    return task, os.getpid(), _STATE["tag"]


class _KillOnce:
    """Task callable that SIGKILLs its worker on task 2, exactly once."""

    def __init__(self, marker: str):
        self.marker = marker

    def __call__(self, task: int) -> tuple:
        if task == 2:
            try:
                handle = os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(handle)
                os.kill(os.getpid(), signal.SIGKILL)
        return _echo(task)


class _FailOn:
    """Task callable raising a ValueError on one task."""

    def __init__(self, bad: int):
        self.bad = bad

    def __call__(self, task: int) -> tuple:
        result = _echo(task)
        if task == self.bad:
            raise ValueError(f"task {task} failed")
        return result


class _Marked(FaultInjector):
    """Picklable injector factory whose product is recognisable by type."""

    def __call__(self) -> "_Marked":
        return _Marked()


def _active_injector(task: int) -> str:
    return type(faults.active()).__name__


def _refuse_pool(*args, **kwargs):
    raise OSError("process pools are unavailable here")


def _log_runs(path) -> list[tuple[int, int]]:
    """``(task, pid)`` of every completed run, in completion order."""
    if not path.exists():
        return []
    return [tuple(map(int, line.split())) for line in path.read_text().splitlines()]


class TestFanOut:
    def test_pool_creation_failure_runs_every_task_inline_in_order(self, monkeypatch):
        monkeypatch.setattr(fanout_module, "ProcessPoolExecutor", _refuse_pool)
        tasks = [3, 1, 2, 0]
        pairs = list(
            fan_out(_echo, tasks, num_workers=2, initializer=_init, initargs=("parent",))
        )
        assert [task for task, _ in pairs] == tasks
        assert [result for _, result in pairs] == [
            (task, os.getpid(), "parent") for task in tasks
        ]

    def test_broken_pool_yields_each_task_once_and_never_reruns_yielded_ones(
        self, tmp_path
    ):
        log = tmp_path / "runs.log"
        marker = tmp_path / "killed.marker"
        cleared = []
        tasks = list(range(6))
        pairs = list(
            fan_out(
                _KillOnce(str(marker)),
                tasks,
                num_workers=2,
                initializer=_init,
                initargs=("worker", str(log)),
                before_inline=lambda: cleared.append(len(_log_runs(log))),
            )
        )
        assert marker.exists(), "the scripted kill never fired"
        assert [task for task, _ in pairs] == tasks
        parent = os.getpid()
        inline = [task for task, (_, pid, _) in pairs if pid == parent]
        pooled = [task for task, (_, pid, _) in pairs if pid != parent]
        # The killed task and everything after it in order ran inline.
        assert 2 in inline and inline == tasks[len(pooled):]
        runs = _log_runs(log)
        for task in pooled:
            assert [pid for ran, pid in runs if ran == task] == [pairs[task][1][1]]
        for task in inline:
            assert [pid for ran, pid in runs if ran == task][-1] == parent
        # before_inline ran once, before the first inline task.
        assert len(cleared) == 1
        assert all(pid != parent for _, pid in runs[: cleared[0]])

    def test_zero_workers_never_constructs_a_pool(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("num_workers=0 must not build a pool")

        monkeypatch.setattr(fanout_module, "ProcessPoolExecutor", forbidden)
        pairs = list(
            fan_out(_echo, [0, 1], num_workers=0, initializer=_init, initargs=("inline",))
        )
        assert pairs == [(0, (0, os.getpid(), "inline")), (1, (1, os.getpid(), "inline"))]

    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_task_exception_propagates_unchanged(self, num_workers, tmp_path):
        log = tmp_path / "runs.log"
        outcomes = fan_out(
            _FailOn(1),
            [0, 1, 2],
            num_workers=num_workers,
            initializer=_init,
            initargs=("any", str(log)),
        )
        with pytest.raises(ValueError, match="task 1 failed"):
            list(outcomes)
        if num_workers:
            # A task failure is not a transport failure: nothing ran inline.
            assert os.getpid() not in {pid for _, pid in _log_runs(log)}

    def test_inline_injector_is_scoped_to_the_run(self):
        before = ScriptedFaults()
        with faults.injected(before):
            seen = [
                name
                for _, name in fan_out(
                    _active_injector,
                    [0, 1],
                    num_workers=0,
                    initializer=_init,
                    initargs=("inline",),
                    faults_factory=_Marked(),
                )
            ]
            assert faults.active() is before
        assert seen == ["_Marked", "_Marked"]

    def test_pooled_workers_install_the_factory_product(self):
        pairs = fan_out(
            _active_injector,
            [0, 1],
            num_workers=2,
            initializer=_init,
            initargs=("worker",),
            faults_factory=_Marked(),
        )
        assert [name for _, name in pairs] == ["_Marked", "_Marked"]
