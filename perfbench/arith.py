"""The benchmark's own arithmetic, kept free of I/O so it can be unit-tested.

Everything a reported number depends on beyond a raw clock reading lives
here: which latency percentile a sample count supports, the run-to-run
spread statistic, self time from a span tree, the work formulas of the three
dense kernels, and the ROM label-error definitions.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

import numpy as np

#: Candidate tail percentiles in per-mille, highest first.
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, per_mille: int) -> int:
    """Samples strictly beyond the ``per_mille``/1000 quantile of ``count``.

    Integer arithmetic, so 200 samples leave exactly 10 beyond p95.
    """
    return count * (1000 - per_mille) // 1000


def tail_per_mille(count: int, min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """Highest candidate percentile (per mille) with ``min_beyond`` samples past it.

    ``None`` when even the median leaves fewer than ``min_beyond`` samples.
    """
    for per_mille in TAIL_PER_MILLE:
        if samples_beyond(count, per_mille) >= min_beyond:
            return per_mille
    return None


def percentile(values: Sequence[float], per_mille: int) -> float:
    """Linear-interpolated percentile of ``values`` at ``per_mille``/1000."""
    return float(np.percentile(np.asarray(values, dtype=float), per_mille / 10.0))


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the ``exclusive`` method),
    which is how the acceptance check of the benchmark computes it.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else math.inf


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[tuple]) -> dict:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds ``(span_id, parent_id, start, end)`` tuples (extra
    fields are ignored).  Children are clipped to their parent's interval
    and overlapping children are counted once, so a parent's self time is
    never negative.
    """
    children: dict = {}
    for span in spans:
        span_id, parent, start, end = span[:4]
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span in spans:
        span_id, _, start, end = span[:4]
        result[span_id] = (end - start) - _covered(children.get(span_id, ()), start, end)
    return result


def layer_of(span_name: str) -> str:
    """Layer a span belongs to: the name's first dotted component."""
    return span_name.split(".", 1)[0]


def _conv_output(size: int, kernel: int, stride: int) -> int:
    return (size - kernel) // stride + 1


def im2col_bytes(
    x_shape: Sequence[int], kernel: int, stride: int, itemsize: int
) -> int:
    """Computed bytes of one im2col: the padded input read once plus the columns written.

    ``x_shape`` is the padded ``(N, C, H, W)`` input; the columns hold
    ``N * C * k * k * OH * OW`` elements.
    """
    batch, channels, height, width = x_shape
    columns = (
        batch * channels * kernel * kernel
        * _conv_output(height, kernel, stride) * _conv_output(width, kernel, stride)
    )
    return (batch * channels * height * width + columns) * itemsize


def col2im_bytes(
    padded_shape: Sequence[int], kernel: int, stride: int, itemsize: int
) -> int:
    """Computed bytes of one col2im: the columns read once plus the image written.

    The adjoint of :func:`im2col_bytes`, so both directions move the same
    number of bytes for the same geometry.
    """
    return im2col_bytes(padded_shape, kernel, stride, itemsize)


def matmul_flops(a_shape: Sequence[int], b_shape: Sequence[int]) -> int:
    """Floating-point operations of ``a @ b`` (2 per multiply-add).

    Follows numpy's matmul rules: 1-D operands are promoted to a row or
    column, leading axes broadcast to a batch.
    """
    a_shape = tuple(a_shape)
    b_shape = tuple(b_shape)
    if len(a_shape) == 1:
        a_shape = (1,) + a_shape
    if len(b_shape) == 1:
        b_shape = b_shape + (1,)
    rows, inner = a_shape[-2:]
    cols = b_shape[-1]
    batch = math.prod(np.broadcast_shapes(a_shape[:-2], b_shape[:-2]))
    return 2 * rows * inner * cols * batch


def tile_errors(labels: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Signed per-tile label error as a fraction of each vector's largest reference tile.

    Both arrays are ``(V, m, n)`` noise maps in volts; the result has the
    same shape.  Positive means the label over-predicts droop.
    """
    labels = np.asarray(labels, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = np.abs(reference).reshape(len(reference), -1).max(axis=1)
    return (labels - reference) / scale[:, None, None]


def label_err_max(labels: np.ndarray, reference: np.ndarray) -> float:
    """The largest absolute per-tile error (see :func:`tile_errors`)."""
    return float(np.abs(tile_errors(labels, reference)).max())


def label_bias_abs(labels: np.ndarray, reference: np.ndarray) -> float:
    """The absolute value of the mean signed per-tile error."""
    return float(abs(tile_errors(labels, reference).mean()))
