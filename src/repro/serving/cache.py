"""Result caching for the screening gateway.

Sign-off screening traffic is highly repetitive: the same release candidates
are re-validated after every design spin, and scenario suites overlap heavily
between runs.  The cache exploits that by keying each prediction on a
*content hash* of the test vector plus the serving predictor's version
fingerprint — a cache entry can therefore never outlive the model that
produced it, and two byte-identical vectors always share one forward pass.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, Optional, TypeVar, Union

import numpy as np

from repro.core.inference import NoisePredictor
from repro.features.extraction import VectorFeatures
from repro.sim.waveform import CurrentTrace
from repro.utils import check_positive

ValueT = TypeVar("ValueT")

#: A concrete test vector the gateway can cache (scenario payloads are not).
ScreeningPayload = Union[CurrentTrace, VectorFeatures]


def trace_content_hash(payload: ScreeningPayload) -> str:
    """Deterministic content hash of a test vector (or extracted features).

    Hashes the raw sample values and the quantities that change the model
    input (``dt`` for traces, the stamp count for features) — *not* the name,
    so renamed copies of the same vector still hit the cache.
    """
    digest = hashlib.sha256()
    if isinstance(payload, CurrentTrace):
        digest.update(b"trace")
        digest.update(repr(payload.currents.shape).encode())
        digest.update(np.ascontiguousarray(payload.currents).tobytes())
        digest.update(repr(float(payload.dt)).encode())
    elif isinstance(payload, VectorFeatures):
        maps = np.asarray(payload.current_maps)
        digest.update(b"features")
        digest.update(repr(maps.shape).encode())
        digest.update(np.ascontiguousarray(maps).tobytes())
    else:
        raise TypeError(
            f"expected CurrentTrace or VectorFeatures, got {type(payload).__name__}"
        )
    return digest.hexdigest()


def result_cache_key(payload: ScreeningPayload, predictor: NoisePredictor) -> str:
    """Cache key combining vector content with the predictor version.

    The fingerprint folds in the predictor's serving dtype, so the same
    checkpoint served at float32 and float64 yields distinct keys — a cached
    low-precision result can never be returned to a full-precision client
    (or vice versa).
    """
    return f"{predictor.fingerprint}:{trace_content_hash(payload)}"


@dataclass
class CacheStats:
    """Hit/miss counters of an :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0


class LRUCache(Generic[ValueT]):
    """A small least-recently-used mapping with hit/miss accounting."""

    def __init__(self, capacity: int = 1024):
        check_positive(capacity, "capacity")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, ValueT]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable) -> Optional[ValueT]:
        """Look up ``key``, refreshing its recency; ``None`` on a miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: ValueT) -> None:
        """Insert (or refresh) an entry, evicting the oldest beyond capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()
