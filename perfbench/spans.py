"""In-memory span tracing driven from the benchmark's own files.

Nothing under ``src/`` is instrumented.  Instead a :class:`Recorder`
replaces the stage functions of each layer *where their callers look them
up* (a module global or a class attribute) with wrappers that open a span
around the original call, and a :class:`TimingBackend` registered through
the public kernel-backend registry times every matmul / im2col / col2im.

A span is ``(id, parent, name, thread, start, end, phase, counts)``; the
parent is the innermost open span on the same thread.  Spans stay in
memory until :meth:`Recorder.dump` writes them out.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

from arith import im2col_bytes, col2im_bytes, matmul_flops


@dataclass
class Span:
    """One timed call."""

    span_id: int
    parent: Optional[int]
    name: str
    thread: str
    start: float
    end: float = 0.0
    phase: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_tuple(self) -> tuple:
        return (self.span_id, self.parent, self.start, self.end)


class Recorder:
    """Collects spans from every thread while :attr:`active` is set.

    ``phase`` tags new spans (``setup`` / ``measure``) so set-up work can be
    reported apart from the measured loop.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        #: Workspace-pool takes and hits, counted by the benchmark's pool hook.
        self.pool_takes = 0
        self.pool_hits = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a span (a no-op while inactive)."""
        if not self.active:
            yield None
            return
        stack = self._stack()
        record = Span(
            span_id=next(self._ids),
            parent=stack[-1].span_id if stack else None,
            name=name,
            thread=threading.current_thread().name,
            start=time.perf_counter(),
            phase=self.phase,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrapped(self, function: Callable, name: str, counter: Optional[Callable] = None):
        """``function`` wrapped in a span; ``counter(args, kwargs, result)`` adds counts."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if counter is not None:
                    record.counts.update(counter(args, kwargs, result))
                return result

        return wrapper

    def patch(self, owner, attribute: str, name: str, counter: Optional[Callable] = None):
        """Replace ``owner.attribute`` with a span-timed wrapper (undone by :meth:`unpatch`)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrapped(original.__func__, name, counter))
        else:
            replacement = self.wrapped(original, name, counter)
        self.replace(owner, attribute, replacement)

    def replace(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute`` to ``replacement`` until :meth:`unpatch`."""
        current = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patches.append((owner, attribute, current))
        setattr(owner, attribute, replacement)

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def of_phase(self, phase: str) -> list[Span]:
        """Finished spans recorded in ``phase``."""
        return [span for span in self.spans if span.phase == phase]

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda item: item.start):
                handle.write(
                    json.dumps(
                        {
                            "id": span.span_id,
                            "parent": span.parent,
                            "name": span.name,
                            "thread": span.thread,
                            "start": span.start,
                            "end": span.end,
                            "phase": span.phase,
                            "counts": span.counts,
                        }
                    )
                    + "\n"
                )


def make_timing_backend(recorder: Recorder, kernels):
    """A kernel backend that times and counts every call of the numpy reference.

    Built lazily so this module imports without ``repro``.  Counts are the
    computed work of each call (FLOPs for matmul, bytes for im2col/col2im;
    see :mod:`arith`), not hardware counters.
    """
    inner = kernels.NumpyBackend()

    class TimingBackend(kernels.KernelBackend):
        name = "perfbench-timing"

        def matmul(self, a, b):
            with recorder.span("kernels.matmul") as record:
                result = inner.matmul(a, b)
                if record is not None:
                    record.counts["flop"] = matmul_flops(a.shape, b.shape)
                return result

        def im2col(self, x_padded, kernel, stride, out=None):
            with recorder.span("kernels.im2col") as record:
                result = inner.im2col(x_padded, kernel, stride, out=out)
                if record is not None:
                    record.counts["bytes"] = im2col_bytes(
                        x_padded.shape, kernel, stride, x_padded.dtype.itemsize
                    )
                return result

        def col2im(self, columns, padded_shape, kernel, stride):
            with recorder.span("kernels.col2im") as record:
                result = inner.col2im(columns, padded_shape, kernel, stride)
                if record is not None:
                    record.counts["bytes"] = col2im_bytes(
                        padded_shape, kernel, stride, columns.dtype.itemsize
                    )
                return result

    return TimingBackend()
