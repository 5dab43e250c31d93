"""Random-number handling.

Every stochastic component in the library accepts either an integer seed,
``None`` (meaning "non-deterministic"), or an existing
:class:`numpy.random.Generator`.  :func:`ensure_rng` normalises all three into
a ``Generator`` so that experiment scripts can thread a single seed through
design generation, workload synthesis and model initialisation and obtain
fully reproducible results.
"""

from __future__ import annotations

from typing import Union

import numpy as np

#: Type accepted everywhere a source of randomness is needed.
RandomState = Union[None, int, np.random.Generator]


def ensure_rng(seed: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for OS-entropy seeding, an ``int`` for a deterministic
        generator, or an existing ``Generator`` which is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(
        f"seed must be None, an int, or a numpy Generator, got {type(seed)!r}"
    )


def spawn_rngs(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Used when a pipeline stage fans out into parallel sub-tasks (e.g. one
    generator per test vector) and each sub-task must be reproducible in
    isolation.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = ensure_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]
