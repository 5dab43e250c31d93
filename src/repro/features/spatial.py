"""Spatial compression: from per-instance quantities to per-tile feature maps.

Sec. 3.2 of the paper replaces per-node prediction by per-tile prediction:
the layout is partitioned into an ``m x n`` tile array, instance currents are
summed per tile to form the load-current feature map, and the per-tile
worst-case noise is the maximum over the nodes inside the tile (Eq. 2, see
:func:`repro.sim.waveform.per_tile_maximum`).  This module tiles the load
currents with a sparse incidence matrix so that a whole trace is tiled in
one sparse-matrix product.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.pdn.designs import Design
from repro.sim.waveform import CurrentTrace


def tile_incidence_matrix(tile_index: np.ndarray, num_tiles: int) -> sp.csr_matrix:
    """Sparse one-hot matrix mapping items to tiles.

    ``incidence[item, tile] = 1`` when ``tile_index[item] == tile``; summing
    item values per tile is then a single sparse product
    ``values @ incidence``.
    """
    tile_index = np.asarray(tile_index, dtype=int)
    if tile_index.ndim != 1:
        raise ValueError(f"tile_index must be 1-D, got shape {tile_index.shape}")
    if tile_index.size and (tile_index.min() < 0 or tile_index.max() >= num_tiles):
        raise ValueError("tile_index entries out of range")
    num_items = tile_index.shape[0]
    data = np.ones(num_items)
    return sp.coo_matrix(
        (data, (np.arange(num_items), tile_index)), shape=(num_items, num_tiles)
    ).tocsr()


def load_tile_incidence(design: Design) -> sp.csr_matrix:
    """The design's load-to-tile incidence matrix, cached on the design.

    Feature extraction tiles every vector with the same ``(L, m*n)``
    incidence, so it is built once per :class:`~repro.pdn.designs.Design`
    instance and memoised on the object — corpus generation extracts
    features for thousands of vectors per design and must not rebuild it
    each time.
    """
    cached = getattr(design, "_load_tile_incidence", None)
    if cached is None:
        cached = tile_incidence_matrix(design.load_tile_index, design.tile_grid.num_tiles)
        design._load_tile_incidence = cached  # lazily attached cache slot
    return cached


def load_current_maps(trace: CurrentTrace, design: Design) -> np.ndarray:
    """Per-stamp load-current tile maps, shape ``(T, m, n)``.

    ``maps[k, i, j]`` is the total current (A) drawn inside tile ``(i, j)`` at
    time stamp ``k`` — the "load current organised as a feature map" input of
    Sec. 3.3.
    """
    if trace.num_loads != design.num_loads:
        raise ValueError(
            f"trace has {trace.num_loads} loads but design {design.name!r} has {design.num_loads}"
        )
    tile_grid = design.tile_grid
    incidence = load_tile_incidence(design)
    tiled = trace.currents @ incidence  # (T, num_tiles)
    return np.asarray(tiled).reshape(trace.num_steps, tile_grid.m, tile_grid.n)
