"""Metric instruments: counters, gauges, fixed-bucket latency histograms.

Three instrument kinds cover every quantity the stack reports:

* :class:`Counter` — a monotonically increasing event count (requests served,
  shards generated, cache hits).
* :class:`Gauge` — a sampled level (queue depth, batch size, gradient norm);
  tracks the last, extreme and count of the samples, not their history.
* :class:`LatencyHistogram` — positive measurements (latencies, throughputs)
  bucketed into **fixed log-spaced buckets** shared by every process of a
  run, so histograms merge exactly (bucket-wise addition) across worker
  shards and percentiles come from cumulative bucket counts instead of
  re-sorting raw sample lists.

All instruments live in a :class:`MetricsRegistry`.  A disabled registry
(:data:`NULL_REGISTRY`) hands out shared no-op instruments whose methods do
nothing — the cost of instrumentation at a disabled call site is one Python
call, which is what lets the hot paths stay instrumented unconditionally
(gated by ``benchmarks/bench_obs.py``).

Instruments are intentionally lock-free on the hot path: an increment is a
handful of interpreter operations protected by the GIL.  Call sites that
need exact counts under concurrent writers (the screening service) update
instruments under their own lock, exactly as they already did for their
counter bags; unsynchronised concurrent updates only risk losing individual
increments, never corrupting an instrument.
"""

from __future__ import annotations

from bisect import bisect_right
from threading import Lock
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS_PER_DECADE",
    "DEFAULT_LOW",
    "DEFAULT_HIGH",
]

#: Default histogram resolution: buckets per decade of the value range.
DEFAULT_BUCKETS_PER_DECADE = 24

#: Default lower edge of the histogram range (seconds / generic units).
DEFAULT_LOW = 1e-9

#: Default upper edge of the histogram range.  The wide span (1 ns .. 1 M)
#: lets one bucket layout serve latencies, shard times and throughputs.
DEFAULT_HIGH = 1e6

_BOUNDS_CACHE: dict[tuple[float, float, int], tuple[float, ...]] = {}


def _bucket_bounds(low: float, high: float, per_decade: int) -> tuple[float, ...]:
    """Log-spaced bucket edges from ``low`` to ``high`` (inclusive), cached."""
    key = (low, high, per_decade)
    bounds = _BOUNDS_CACHE.get(key)
    if bounds is None:
        import math

        decades = math.log10(high / low)
        count = int(round(decades * per_decade))
        bounds = tuple(low * 10.0 ** (i / per_decade) for i in range(count + 1))
        _BOUNDS_CACHE[key] = bounds
    return bounds


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the count."""
        self.value += n

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (``{"type": "counter", "value": ...}``)."""
        return {"type": "counter", "value": self.value}

    def merge(self, payload: dict) -> None:
        """Fold another counter's :meth:`to_dict` snapshot into this one."""
        self.value += int(payload["value"])


class Gauge:
    """A sampled level: tracks last / min / max / count of ``set()`` calls."""

    __slots__ = ("name", "last", "min", "max", "count")

    def __init__(self, name: str):
        self.name = name
        self.last = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.count = 0

    def set(self, value: float) -> None:
        """Record one sample of the level."""
        value = float(value)
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot of the gauge statistics."""
        return {
            "type": "gauge",
            "last": self.last,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "count": self.count,
        }

    def merge(self, payload: dict) -> None:
        """Fold another gauge's snapshot in (extremes combine; last wins by
        merge order, which the deterministic shard ordering fixes)."""
        if not payload["count"]:
            return
        if not self.count:
            self.min = float("inf")
            self.max = float("-inf")
        self.last = float(payload["last"])
        self.min = min(self.min, float(payload["min"]))
        self.max = max(self.max, float(payload["max"]))
        self.count += int(payload["count"])


class LatencyHistogram:
    """Fixed-bucket log-spaced histogram with percentile extraction.

    Parameters
    ----------
    name:
        Metric name.
    low / high / buckets_per_decade:
        Bucket layout.  All histograms sharing a name across a run **must**
        share a layout or merging raises; the defaults cover 1 ns .. 1e6 at
        ~10% relative bucket width, which bounds the percentile error.

    Exact ``count`` / ``total`` / ``min`` / ``max`` are kept alongside the
    buckets, so means and extremes are exact and only intermediate
    percentiles carry the bucket-resolution error.
    """

    __slots__ = (
        "name", "low", "high", "buckets_per_decade",
        "_bounds", "_counts", "underflow", "overflow",
        "count", "total", "min", "max",
    )

    def __init__(
        self,
        name: str,
        low: float = DEFAULT_LOW,
        high: float = DEFAULT_HIGH,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ):
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.buckets_per_decade = int(buckets_per_decade)
        self._bounds = _bucket_bounds(self.low, self.high, self.buckets_per_decade)
        self._counts = [0] * (len(self._bounds) - 1)
        self.underflow = 0
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one measurement (non-negative; the hot-path entry point)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.low:
            self.underflow += 1
        elif value >= self.high:
            self.overflow += 1
        else:
            self._counts[bisect_right(self._bounds, value) - 1] += 1

    @property
    def mean(self) -> float:
        """Exact mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (0..100) from the bucket counts.

        The returned value is linearly interpolated inside the bucket that
        contains the requested rank, so the relative error is bounded by the
        bucket width (~10% at the default resolution).  The extremes are
        exact: ranks falling into the first/last occupied position clamp to
        the recorded ``min`` / ``max``.
        """
        if not self.count:
            raise ValueError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = q / 100.0 * self.count
        seen = self.underflow
        if rank <= seen:  # inside the underflow bucket: clamp to exact min
            return self.min
        for index, bucket_count in enumerate(self._counts):
            if not bucket_count:
                continue
            if rank <= seen + bucket_count:
                lo = max(self._bounds[index], self.min)
                hi = min(self._bounds[index + 1], self.max)
                fraction = (rank - seen) / bucket_count
                return lo + fraction * (hi - lo)
            seen += bucket_count
        return self.max

    def percentiles(self, qs: Sequence[float] = (50.0, 95.0, 99.0)) -> dict:
        """Mapping ``{"p50": ..., "p95": ..., ...}`` for the requested ranks."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    def merge(self, other: Union["LatencyHistogram", dict]) -> None:
        """Fold another histogram (object or :meth:`to_dict` snapshot) in.

        Raises
        ------
        ValueError
            When the bucket layouts differ — merged histograms must share
            their edges exactly.
        """
        payload = other.to_dict() if isinstance(other, LatencyHistogram) else other
        layout = (payload["low"], payload["high"], payload["buckets_per_decade"])
        if layout != (self.low, self.high, self.buckets_per_decade):
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket layout "
                f"{layout} != {(self.low, self.high, self.buckets_per_decade)}"
            )
        if not payload["count"]:
            return
        for index, bucket_count in payload["buckets"]:
            self._counts[int(index)] += int(bucket_count)
        self.underflow += int(payload["underflow"])
        self.overflow += int(payload["overflow"])
        self.count += int(payload["count"])
        self.total += float(payload["total"])
        self.min = min(self.min, float(payload["min"]))
        self.max = max(self.max, float(payload["max"]))

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (sparse ``[index, count]`` buckets)."""
        return {
            "type": "histogram",
            "low": self.low,
            "high": self.high,
            "buckets_per_decade": self.buckets_per_decade,
            "buckets": [
                [index, count] for index, count in enumerate(self._counts) if count
            ],
            "underflow": self.underflow,
            "overflow": self.overflow,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }

    def summary(self) -> dict:
        """Compact rendering payload: count, mean, p50/p95/p99, min, max."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            **self.percentiles(),
            "min": self.min,
            "max": self.max,
        }


class _NullCounter:
    """Shared no-op counter handed out by a disabled registry."""

    __slots__ = ()
    name = "null"
    value = 0

    def inc(self, n: int = 1) -> None:
        """Do nothing (disabled instrumentation)."""

    def to_dict(self) -> dict:
        """Empty counter snapshot."""
        return {"type": "counter", "value": 0}


class _NullGauge:
    """Shared no-op gauge handed out by a disabled registry."""

    __slots__ = ()
    name = "null"
    last = 0.0
    count = 0

    def set(self, value: float) -> None:
        """Do nothing (disabled instrumentation)."""


class _NullHistogram:
    """Shared no-op histogram handed out by a disabled registry."""

    __slots__ = ()
    name = "null"
    count = 0
    total = 0.0

    def observe(self, value: float) -> None:
        """Do nothing (disabled instrumentation)."""


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Name-keyed home of every instrument of one process (or component).

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first call
    under a name creates the instrument, later calls return the same object,
    so call sites can resolve instruments lazily without coordination.
    Creation is locked; instrument *updates* are lock-free (see the module
    docstring).

    Parameters
    ----------
    enabled:
        ``False`` turns the registry into a null registry: every lookup
        returns a shared no-op instrument and ``snapshot()`` is empty.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._lock = Lock()
        self._instruments: dict[str, object] = {}

    def _get_or_create(self, name: str, kind, *args):
        instrument = self._instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(name)
                if instrument is None:
                    instrument = kind(name, *args)
                    self._instruments[name] = instrument
        if not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} already registered as {type(instrument).__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        if not self.enabled:
            return _NULL_COUNTER
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        if not self.enabled:
            return _NULL_GAUGE
        return self._get_or_create(name, Gauge)

    def histogram(
        self,
        name: str,
        low: float = DEFAULT_LOW,
        high: float = DEFAULT_HIGH,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
    ) -> LatencyHistogram:
        """Get or create the histogram called ``name`` (layout set on first use)."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self._get_or_create(name, LatencyHistogram, low, high, buckets_per_decade)

    def get(self, name: str) -> Optional[object]:
        """The instrument called ``name``, or ``None`` when absent."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        """Sorted names of every registered instrument."""
        return sorted(self._instruments)

    def snapshot(self) -> dict:
        """Deterministic ``{name: instrument.to_dict()}`` mapping, name-sorted."""
        return {name: self._instruments[name].to_dict() for name in self.names()}

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker shard) into this registry."""
        for name in sorted(snapshot):
            payload = snapshot[name]
            kind = payload.get("type")
            if kind == "counter":
                self.counter(name).merge(payload)
            elif kind == "gauge":
                self.gauge(name).merge(payload)
            elif kind == "histogram":
                self.histogram(
                    name,
                    low=payload["low"],
                    high=payload["high"],
                    buckets_per_decade=payload["buckets_per_decade"],
                ).merge(payload)
            else:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")

    def __iter__(self) -> Iterator[tuple[str, object]]:
        """Iterate ``(name, instrument)`` pairs in name order."""
        for name in self.names():
            yield name, self._instruments[name]


#: The registry handed out when observability is disabled: every instrument
#: lookup returns a shared no-op object.
NULL_REGISTRY = MetricsRegistry(enabled=False)
