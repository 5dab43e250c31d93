"""Die geometry, tile partitioning and bump placement.

The paper's spatial compression (Sec. 3.2) partitions the PDN layout into an
``m x n`` array of tiles and predicts the worst-case noise per tile
(Eq. 2).  The distance feature (Sec. 3.3) measures the Euclidean distance
from each tile centre to every power bump.  This module holds the purely
geometric pieces of that story: the die outline, the tile grid, and bump
placement patterns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_positive
from repro.utils.random import RandomState, ensure_rng


@dataclass(frozen=True)
class DieArea:
    """Rectangular die outline in micrometres.

    Attributes
    ----------
    width:
        Die extent along x in um.
    height:
        Die extent along y in um.
    """

    width: float
    height: float

    def __post_init__(self) -> None:
        check_positive(self.width, "width")
        check_positive(self.height, "height")

    @property
    def area(self) -> float:
        """Die area in um^2."""
        return self.width * self.height

    def contains(self, x: float, y: float) -> bool:
        """Return True if ``(x, y)`` lies inside (or on the edge of) the die."""
        return 0.0 <= x <= self.width and 0.0 <= y <= self.height

    def grid_points(self, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(xs, ys)`` of an ``nx x ny`` uniform grid covering the die.

        Points are placed at cell centres so the outermost points sit half a
        pitch away from the die edge, matching how routed power stripes avoid
        the die boundary.
        """
        if nx < 1 or ny < 1:
            raise ValueError(f"grid must have at least one point per axis, got {nx}x{ny}")
        xs = (np.arange(nx) + 0.5) * (self.width / nx)
        ys = (np.arange(ny) + 0.5) * (self.height / ny)
        return xs, ys


@dataclass(frozen=True)
class TileGrid:
    """An ``m x n`` partition of the die used for spatial compression.

    ``m`` counts tiles along y (rows) and ``n`` counts tiles along x
    (columns), so feature maps produced from this grid have shape ``(m, n)``,
    matching the ``m x n`` notation of the paper.
    """

    die: DieArea
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"tile grid must be at least 1x1, got {self.m}x{self.n}")

    @property
    def shape(self) -> tuple[int, int]:
        """Feature-map shape ``(m, n)``."""
        return (self.m, self.n)

    @property
    def num_tiles(self) -> int:
        """Total number of tiles ``m * n``."""
        return self.m * self.n

    @property
    def tile_width(self) -> float:
        """Tile extent along x in um."""
        return self.die.width / self.n

    @property
    def tile_height(self) -> float:
        """Tile extent along y in um."""
        return self.die.height / self.m

    def tile_of(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map coordinates to tile indices ``(row, col)``.

        Coordinates exactly on the die's far edge are clamped into the last
        tile so that every on-die point belongs to exactly one tile.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        col = np.clip((x / self.tile_width).astype(int), 0, self.n - 1)
        row = np.clip((y / self.tile_height).astype(int), 0, self.m - 1)
        return row, col

    def flat_index(self, row: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Flatten ``(row, col)`` tile indices into ``row * n + col``."""
        return np.asarray(row) * self.n + np.asarray(col)

    def tile_centers(self) -> np.ndarray:
        """Return tile-centre coordinates with shape ``(m, n, 2)`` (x, y)."""
        cx = (np.arange(self.n) + 0.5) * self.tile_width
        cy = (np.arange(self.m) + 0.5) * self.tile_height
        centers = np.empty((self.m, self.n, 2), dtype=float)
        centers[:, :, 0] = cx[np.newaxis, :]
        centers[:, :, 1] = cy[:, np.newaxis]
        return centers

    def aggregate(
        self,
        x: np.ndarray,
        y: np.ndarray,
        values: np.ndarray,
        reduce: str = "sum",
    ) -> np.ndarray:
        """Aggregate point ``values`` located at ``(x, y)`` into an (m, n) map.

        Parameters
        ----------
        reduce:
            ``"sum"``, ``"max"`` or ``"count"``.
        """
        row, col = self.tile_of(x, y)
        flat = self.flat_index(row, col)
        out = np.zeros(self.num_tiles, dtype=float)
        values = np.asarray(values, dtype=float)
        if reduce == "sum":
            np.add.at(out, flat, values)
        elif reduce == "max":
            out[:] = -np.inf
            np.maximum.at(out, flat, values)
            out[out == -np.inf] = 0.0
        elif reduce == "count":
            np.add.at(out, flat, 1.0)
        else:
            raise ValueError(f"unknown reduce mode {reduce!r}")
        return out.reshape(self.m, self.n)


def uniform_bump_array(
    die: DieArea,
    rows: int,
    cols: int,
    margin_fraction: float = 0.05,
) -> np.ndarray:
    """Place bumps on a regular ``rows x cols`` array over the die.

    Flip-chip packages place C4 bumps on a near-uniform array across the die;
    this mirrors that arrangement.  Returns an array of shape ``(rows*cols, 2)``
    with (x, y) coordinates in um.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"bump array must be at least 1x1, got {rows}x{cols}")
    if not 0.0 <= margin_fraction < 0.5:
        raise ValueError(f"margin_fraction must be in [0, 0.5), got {margin_fraction}")
    x0 = die.width * margin_fraction
    y0 = die.height * margin_fraction
    xs = np.linspace(x0, die.width - x0, cols)
    ys = np.linspace(y0, die.height - y0, rows)
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def jittered_bump_array(
    die: DieArea,
    rows: int,
    cols: int,
    jitter_fraction: float = 0.1,
    seed: RandomState = None,
    margin_fraction: float = 0.05,
) -> np.ndarray:
    """Uniform bump array with per-bump random jitter.

    Real designs shift bumps to avoid macros; jitter breaks the perfect
    symmetry so the distance feature maps are not trivially periodic.
    """
    rng = ensure_rng(seed)
    bumps = uniform_bump_array(die, rows, cols, margin_fraction)
    pitch_x = die.width / max(cols, 1)
    pitch_y = die.height / max(rows, 1)
    jitter = rng.uniform(-jitter_fraction, jitter_fraction, size=bumps.shape)
    bumps = bumps + jitter * np.array([pitch_x, pitch_y])
    bumps[:, 0] = np.clip(bumps[:, 0], 0.0, die.width)
    bumps[:, 1] = np.clip(bumps[:, 1], 0.0, die.height)
    return bumps


def distance_to_bumps(tile_grid: TileGrid, bumps: np.ndarray) -> np.ndarray:
    """Distance feature tensor ``D`` with shape ``(B, m, n)``.

    For every bump ``b`` and tile ``(i, j)``, ``D[b, i, j]`` is the Euclidean
    distance in um between the tile centre and the bump location — exactly the
    feature matrix defined in Sec. 3.3 of the paper.
    """
    bumps = np.asarray(bumps, dtype=float)
    if bumps.ndim != 2 or bumps.shape[1] != 2:
        raise ValueError(f"bumps must have shape (B, 2), got {bumps.shape}")
    centers = tile_grid.tile_centers()  # (m, n, 2)
    diff = centers[np.newaxis, :, :, :] - bumps[:, np.newaxis, np.newaxis, :]
    return np.sqrt(np.sum(diff**2, axis=-1))
