"""Waveform containers shared by the simulation engine and the workloads.

A *test vector* in the paper is a transient trace of switching currents: for
every load and every time stamp, the current drawn from the grid.  The
simulator consumes a :class:`CurrentTrace` and keeps only the running
per-node maximum of the droop, which is all worst-case noise validation
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.utils import check_finite, check_positive


@dataclass
class CurrentTrace:
    """Per-load switching currents over time.

    Attributes
    ----------
    currents:
        Array of shape ``(T, L)``: ``currents[k, j]`` is the current in
        amperes drawn by load ``j`` at time stamp ``k``.
    dt:
        Time-step between consecutive stamps, in seconds (the paper uses
        ``dt = 1 ps``).
    name:
        Optional identifier (vector id in a workload suite).
    """

    currents: np.ndarray
    dt: float
    name: str = ""

    def __post_init__(self) -> None:
        self.currents = np.asarray(self.currents, dtype=float)
        if self.currents.ndim != 2:
            raise ValueError(f"currents must be 2-D (T, L), got shape {self.currents.shape}")
        check_positive(self.dt, "dt")
        check_finite(self.currents, "currents")
        if np.any(self.currents < 0):
            raise ValueError("load currents must be non-negative")

    @property
    def num_steps(self) -> int:
        """Number of time stamps ``T``."""
        return int(self.currents.shape[0])

    @property
    def num_loads(self) -> int:
        """Number of loads ``L``."""
        return int(self.currents.shape[1])

    @property
    def duration(self) -> float:
        """Trace duration in seconds."""
        return self.num_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        """Time stamps in seconds, shape ``(T,)``."""
        return np.arange(self.num_steps) * self.dt

    def total_current(self) -> np.ndarray:
        """Total drawn current per time stamp, shape ``(T,)``.

        This is the quantity Algorithm 1 sorts when deciding which time
        stamps to keep.
        """
        return np.sum(self.currents, axis=1)

    def scaled(self, factor: float) -> "CurrentTrace":
        """Return a copy with every current multiplied by ``factor``."""
        check_positive(factor, "factor")
        return CurrentTrace(self.currents * factor, self.dt, name=self.name)


def per_tile_maximum(values: np.ndarray, tile_index: np.ndarray, num_tiles: int) -> np.ndarray:
    """Reduce per-node values to per-tile maxima.

    Parameters
    ----------
    values:
        Per-node values, shape ``(N,)``.
    tile_index:
        Flat tile index of each node, shape ``(N,)``.
    num_tiles:
        Total number of tiles ``m * n``.

    Returns
    -------
    Per-tile maxima, shape ``(num_tiles,)``; tiles containing no node get 0.
    """
    values = np.asarray(values, dtype=float)
    tile_index = np.asarray(tile_index, dtype=int)
    if values.shape != tile_index.shape:
        raise ValueError("values and tile_index must have the same shape")
    out = np.full(num_tiles, -np.inf)
    np.maximum.at(out, tile_index, values)
    out[out == -np.inf] = 0.0
    return out
