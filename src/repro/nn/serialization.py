"""Checkpoint save / load for :class:`~repro.nn.modules.Module` models.

Checkpoints are plain ``.npz`` archives: one array per parameter keyed by its
qualified name, plus optional JSON-encoded metadata (e.g. the feature
normaliser or training configuration) and optional *extra* arrays (e.g. a
design's distance tensor).  Non-parameter entries use reserved ``__``-prefixed
keys so they can never collide with parameter names.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from repro.nn.modules import Module

_METADATA_KEY = "__metadata_json__"
_EXTRA_PREFIX = "__extra__"
_RESERVED_PREFIX = "__"

# numpy parses every ``.npy`` header with ``ast.literal_eval``, and CPython
# 3.11 keeps the AST builder's recursion counter in interpreter-wide state:
# two threads parsing at once can fail with "SystemError: AST constructor
# recursion depth mismatch".  Serving shards load checkpoints on their own
# threads, so every checkpoint read holds this one process-wide lock.
_READ_LOCK = threading.Lock()


@contextmanager
def read_archive(path: Union[str, Path]) -> Iterator[np.lib.npyio.NpzFile]:
    """Open a checkpoint archive for reading, one reader thread at a time.

    Arrays are decoded when indexed, so index them inside the ``with`` block.
    """
    with _READ_LOCK, np.load(path, allow_pickle=False) as data:
        yield data


def save_checkpoint(
    module: Module,
    path: Union[str, Path],
    metadata: Optional[dict] = None,
    extras: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Save a module's parameters (plus optional metadata/extras) to ``path``.

    ``extras`` maps names to arrays stored alongside the parameters in the
    same archive.  :func:`read_checkpoint` reads the parameters, metadata
    and extras back in one pass; load the parameters into a module with
    :meth:`~repro.nn.modules.Module.load_state_dict`.

    Parameters are always stored as float64 master weights regardless of the
    module's serving dtype — upcasting float32 values is lossless, so a
    float32 module round-trips exactly and the checkpoint can later be served
    at either precision.
    """
    payload = {
        name: np.asarray(value, dtype=np.float64)
        for name, value in module.state_dict().items()
    }
    if metadata is not None:
        payload[_METADATA_KEY] = np.array(json.dumps(metadata))
    for name, value in (extras or {}).items():
        payload[_EXTRA_PREFIX + name] = np.asarray(value)
    np.savez_compressed(path, **payload)


def read_checkpoint(
    path: Union[str, Path],
) -> tuple[dict[str, np.ndarray], Optional[dict], dict[str, np.ndarray]]:
    """Read a checkpoint's parameters, metadata and extras in one archive pass.

    Returns ``(state, metadata, extras)``: the parameter arrays keyed by
    qualified name, the metadata dictionary (``None`` when none was stored)
    and the extra arrays keyed by the names given to :func:`save_checkpoint`.
    """
    state, extras, metadata = {}, {}, None
    with read_archive(path) as data:
        for key in data.files:
            if key == _METADATA_KEY:
                metadata = json.loads(str(data[key]))
            elif key.startswith(_EXTRA_PREFIX):
                extras[key[len(_EXTRA_PREFIX):]] = np.asarray(data[key])
            elif not key.startswith(_RESERVED_PREFIX):
                state[key] = data[key]
    return state, metadata, extras
