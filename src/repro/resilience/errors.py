"""Typed failures of the resilient pipeline.

Every way the offline pipeline gives up is a distinct exception type
carrying the evidence an operator (or a test) needs: which shard is
corrupt and what the hashes were, which shards exhausted their retries.  Raw numpy/zipfile/OS errors never
escape the resilience layer — they are wrapped into these types at the
boundary where the failed artefact is known.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Union

__all__ = [
    "ResilienceError",
    "CorruptShardError",
    "ShardFailedError",
]


class ResilienceError(RuntimeError):
    """Base class of every typed resilience failure."""


class CorruptShardError(ResilienceError, ValueError):
    """A shard file on disk does not match its manifest record.

    Raised when a shard is unreadable (truncated/bit-flipped ``.npz``) or
    when its recomputed content hash differs from the hash the manifest
    recorded at write time.  Subclasses :class:`ValueError` so callers that
    historically caught the loader's plain ``ValueError`` keep working.

    Attributes
    ----------
    path:
        The shard file.
    expected_hash / actual_hash:
        The manifest's content hash vs. the recomputed one.  ``actual_hash``
        is ``None`` when the shard could not even be read.
    reason:
        Human-readable cause (e.g. the underlying loader error).
    """

    def __init__(
        self,
        path: Union[str, Path],
        expected_hash: Optional[str] = None,
        actual_hash: Optional[str] = None,
        reason: str = "",
    ):
        self.path = Path(path)
        self.expected_hash = expected_hash
        self.actual_hash = actual_hash
        self.reason = reason
        expected = (expected_hash or "?")[:12]
        if actual_hash is None:
            detail = f"unreadable (expected content hash {expected}…)"
        else:
            detail = f"expected content hash {expected}…, file hashes to {actual_hash[:12]}…"
        message = f"corrupt shard {self.path}: {detail}"
        if reason:
            message = f"{message} [{reason}]"
        super().__init__(message)


class ShardFailedError(ResilienceError):
    """One or more shards exhausted their retry budget.

    Raised at the *end* of a generation run — every other shard has been
    generated and recorded first, so the completed work survives and a
    resumed run retries only the failed shards.

    Attributes
    ----------
    failures:
        One dict per failed shard: ``label``, ``index``, ``error`` (repr of
        the last attempt's exception) and ``attempts``.
    """

    def __init__(self, failures: Sequence[dict]):
        self.failures = list(failures)
        names = ", ".join(f"{f['label']}:{f['index']}" for f in self.failures)
        super().__init__(
            f"{len(self.failures)} shard(s) failed after exhausting retries: {names}"
        )
