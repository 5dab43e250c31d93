"""Small argument-validation helpers used across the library.

These helpers raise ``ValueError``/``TypeError`` with consistent messages so
that user-facing entry points fail loudly on malformed input instead of
propagating NaNs into a simulation or a training run.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np


def check_finite(array: np.ndarray, name: str = "array") -> np.ndarray:
    """Raise ``ValueError`` if ``array`` contains NaN or infinity."""
    arr = np.asarray(array)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values (NaN or inf)")
    return arr


def check_positive(value: float, name: str = "value", strict: bool = True) -> float:
    """Raise ``ValueError`` unless ``value`` is positive (or non-negative)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_non_negative(value: float, name: str = "value") -> float:
    """Raise ``ValueError`` unless ``value`` is >= 0 (zero allowed)."""
    return check_positive(value, name, strict=False)


def check_probability(value: float, name: str = "value") -> float:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")
    return value


def require_key(payload: Mapping, key: str, source) -> Any:
    """``payload[key]``, or a ``ValueError`` naming the missing key and ``source``."""
    if key not in payload:
        raise ValueError(f"{source} has no {key!r} entry")
    return payload[key]


class FixedKeys:
    """Keys a serialised payload records with one fixed value each.

    Settings that became constants keep their pairs in the payloads that
    recorded them (manifests, baselines, checkpoints), so hashes stay put.
    """

    def __init__(self, **pairs: Any):
        self.pairs = pairs

    def write(self, payload: dict) -> dict:
        """Add every fixed pair to ``payload`` (in place) and return it."""
        payload.update(self.pairs)
        return payload

    def pop(self, payload: dict, source) -> dict:
        """Remove the fixed keys from ``payload`` (in place) and return it.

        A missing key reads as its fixed value; any other value raises a
        ``ValueError`` naming the key and ``source``.
        """
        for key, fixed in self.pairs.items():
            value = payload.pop(key, fixed)
            if value != fixed:
                raise ValueError(
                    f"{source} records {key}={value!r}, but {key} is fixed at {fixed!r}"
                )
        return payload
