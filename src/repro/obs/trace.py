"""Span tracing: nested timed contexts with attributes.

A *span* is one timed region of work — ``with tracer.span("datagen.shard",
design="small")`` — recorded with its duration, its attributes, and its
position in the span tree (parent/child links via per-span ids and a
thread-local parent stack).  A span still *exposes* its duration
(``span.duration_s`` stays valid after the ``with`` block exits), so call
sites in ``eval.protocol``, ``eval.sweep`` and the baselines read their own
timings while the tracer records them centrally.

Spans always measure — entering a span on a disabled tracer still costs one
``perf_counter`` pair so ``duration_s`` is usable — but only an **enabled**
tracer retains records.  The retained list is capped (:attr:`SpanTracer.cap`)
with a dropped-span counter, so a long campaign cannot grow memory without
bound.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Iterator, Optional

__all__ = ["Span", "SpanTracer", "DEFAULT_SPAN_CAP"]

#: Default maximum number of span records a tracer retains.
DEFAULT_SPAN_CAP = 100_000


class Span:
    """One timed region of work; usable as a context manager.

    The object stays meaningful after the ``with`` block exits:
    ``duration_s`` holds the measured wall-clock duration and ``attributes``
    the (possibly updated) attribute mapping.  Create spans through
    :meth:`SpanTracer.span`, not directly.
    """

    __slots__ = (
        "name", "attributes", "span_id", "parent_id",
        "started_s", "duration_s", "_tracer",
    )

    def __init__(self, tracer: "SpanTracer", name: str, attributes: dict):
        self.name = name
        self.attributes = attributes
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.started_s = 0.0
        self.duration_s = 0.0
        self._tracer = tracer

    def set(self, **attributes) -> "Span":
        """Attach or update attributes mid-span; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        self.started_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self.started_s
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)

    def to_dict(self) -> dict:
        """JSON-serialisable span record (id, parent, name, duration, attrs)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }


class SpanTracer:
    """Factory and recorder of :class:`Span` objects.

    Parameters
    ----------
    enabled:
        A disabled tracer hands out spans that measure (``duration_s`` works)
        but records nothing — the per-span overhead is two ``perf_counter``
        calls and one thread-local stack push/pop.
    cap:
        Maximum retained span records; further spans are counted in
        :attr:`dropped` instead of stored.

    Thread behaviour: the parent stack is thread-local, so spans nest
    correctly per thread; the record list is appended under a lock.
    """

    def __init__(self, enabled: bool = True, cap: int = DEFAULT_SPAN_CAP):
        self.enabled = bool(enabled)
        self.cap = int(cap)
        self.dropped = 0
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)

    def span(self, name: str, **attributes) -> Span:
        """A new span called ``name``; use as ``with tracer.span(...) as s:``."""
        return Span(self, name, attributes)

    def record(self, name: str, duration_s: float, parent_id: Optional[int] = None, **attributes) -> None:
        """Record an externally measured duration as a complete span.

        For call sites that already hold a measured duration (e.g. a worker
        result dict carrying solver seconds) and need it in the span stream
        without re-timing the work.
        """
        if not self.enabled:
            return
        record = {
            "span_id": next(self._ids),
            "parent_id": parent_id if parent_id is not None else self._current_id(),
            "name": name,
            "duration_s": float(duration_s),
            "attributes": attributes,
        }
        self._append(record)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _enter(self, span: Span) -> None:
        stack = self._stack()
        span.parent_id = stack[-1] if stack else None
        span.span_id = next(self._ids)
        stack.append(span.span_id)

    def _exit(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        if self.enabled:
            self._append(span.to_dict())

    def _append(self, record: dict) -> None:
        with self._lock:
            if len(self._records) >= self.cap:
                self.dropped += 1
            else:
                self._records.append(record)

    def records(self) -> list[dict]:
        """Snapshot (copy) of the retained span records, in completion order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        """Number of retained span records."""
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        """Iterate a snapshot of the retained span records."""
        return iter(self.records())

    def clear(self) -> None:
        """Drop all retained records and reset the dropped counter."""
        with self._lock:
            self._records.clear()
            self.dropped = 0
