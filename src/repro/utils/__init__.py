"""Shared utilities: RNG handling, validation helpers, logging, artefacts."""

from repro.utils.artifacts import atomic_write_text, git_revision
from repro.utils.random import RandomState, ensure_rng
from repro.utils.validation import (
    FixedKeys,
    check_finite,
    check_non_negative,
    check_positive,
    check_probability,
    require_key,
)
from repro.utils.logging import get_logger

__all__ = [
    "atomic_write_text",
    "git_revision",
    "RandomState",
    "ensure_rng",
    "FixedKeys",
    "check_finite",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "require_key",
    "get_logger",
]
