"""Shared conventions of resumable on-disk artefacts.

Every resumable artefact in the repository — corpus manifests, evaluation
reports, sweep manifests, golden baselines, observability run reports —
follows the same two conventions: files are written atomically (temp file +
``os.replace``) so a reader can never observe a torn artefact, and each
artefact stamps the git revision of the generating code for provenance.
Both helpers lived in :mod:`repro.datagen.shards` historically (which still
re-exports them).  The atomic-write implementation itself now lives in
:mod:`repro.io.atomic` (fsync + ``os.replace``); this module re-exports it
for the layers that import it from here, and keeps :func:`git_revision`.
"""

from __future__ import annotations

import functools
import subprocess
from pathlib import Path
from typing import Union

from repro.io.atomic import atomic_write_text

__all__ = ["atomic_write_text", "git_revision"]


def git_revision(repo_root: Union[str, Path, None] = None) -> str:
    """Best-effort git revision of the generating code.

    Resolved once per process and repository root: every later artefact
    reuses the first answer instead of starting another ``git`` child
    (tests that fake ``git`` clear the cache with
    ``_resolve_revision.cache_clear()``).

    Parameters
    ----------
    repo_root:
        Directory to resolve the revision in; defaults to this file's
        repository checkout.

    Returns
    -------
    The full commit hash, suffixed ``-dirty`` when tracked files differed
    from it at the first call (untracked files do not count), or
    ``"unknown"`` when git (or the checkout) is unavailable — artefact
    generation never fails for provenance reasons.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parent
    return _resolve_revision(str(Path(repo_root).resolve()))


@functools.lru_cache(maxsize=None)
def _resolve_revision(repo_root: str) -> str:
    """:func:`git_revision` of one resolved root, asking ``git`` once."""
    try:
        completed = subprocess.run(
            # ``--exclude='*'`` ignores tags, so the stamp is always the hash.
            [
                "git", "-C", repo_root, "describe", "--always", "--dirty",
                "--abbrev=40", "--exclude=*",
            ],
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    revision = completed.stdout.strip()
    return revision if completed.returncode == 0 and revision else "unknown"
