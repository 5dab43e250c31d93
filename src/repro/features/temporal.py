"""Temporal compression of current vectors (Algorithm 1 of the paper).

The idea: time stamps with *moderate* total current rarely set the worst-case
noise — the dangerous stamps are the heavy-switching ones (and the low ones
matter for the di/dt swing into them).  Algorithm 1 therefore keeps a
fraction ``r`` of the stamps, taken from the two tails of the total-current
distribution, choosing the tail split so that the retained set's
``mu + 3*sigma`` statistic matches the original sequence as closely as
possible.

The implementation mirrors the paper's pseudo-code exactly (ascending sort of
the per-stamp total current, sweep of the lower-tail share ``r0`` in steps of
``delta_r``), and returns both the compressed maps and enough bookkeeping to
reproduce Fig. 6 (accuracy / runtime versus compression rate).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


#: Sweep step ``delta_r`` of the lower-tail share in Algorithm 1.
RATE_STEP = 0.05


@dataclass
class TemporalCompressionResult:
    """Outcome of Algorithm 1 on one current-map sequence.

    Attributes
    ----------
    selected_indices:
        Indices of the retained time stamps, in original (chronological)
        order.
    compressed_maps:
        The retained current maps, shape ``(r*N, m, n)``.
    compression_rate:
        The requested rate ``r`` (fraction of stamps retained).
    lower_tail_rate:
        The selected lower-tail share ``r_s`` from the sweep.
    original_mu_3sigma / compressed_mu_3sigma:
        The matched statistic before and after compression.
    """

    selected_indices: np.ndarray
    compressed_maps: np.ndarray
    compression_rate: float
    lower_tail_rate: float
    original_mu_3sigma: float
    compressed_mu_3sigma: float

    @property
    def num_selected(self) -> int:
        """Number of retained time stamps."""
        return int(self.selected_indices.shape[0])

    @property
    def statistic_error(self) -> float:
        """Absolute mismatch of the ``mu + 3*sigma`` statistic."""
        return abs(self.original_mu_3sigma - self.compressed_mu_3sigma)


def _mu_plus_3sigma(values: np.ndarray) -> float:
    """``mu + 3*sigma`` with the population standard deviation (as in Alg. 1)."""
    return float(np.mean(values) + 3.0 * np.std(values))


def compress_current_maps(
    current_maps: np.ndarray,
    compression_rate: float,
) -> TemporalCompressionResult:
    """Apply Algorithm 1 to a sequence of current tile maps.

    Parameters
    ----------
    current_maps:
        Array of shape ``(N, m, n)`` — one load-current tile map per stamp.
    compression_rate:
        Fraction ``r`` of time stamps to retain, in ``(0, 1]``.  ``1.0``
        short-circuits to "keep everything".  The lower-tail share is swept
        in steps of :data:`RATE_STEP`.
    """
    current_maps = np.asarray(current_maps, dtype=float)
    if current_maps.ndim != 3:
        raise ValueError(f"current_maps must have shape (N, m, n), got {current_maps.shape}")
    if not 0.0 < compression_rate <= 1.0:
        raise ValueError(f"compression_rate must be in (0, 1], got {compression_rate}")

    num_steps = current_maps.shape[0]
    total_current = current_maps.reshape(num_steps, -1).sum(axis=1)
    original_statistic = _mu_plus_3sigma(total_current)

    keep = max(1, int(round(compression_rate * num_steps)))
    if keep >= num_steps:
        indices = np.arange(num_steps)
        return TemporalCompressionResult(
            selected_indices=indices,
            compressed_maps=current_maps,
            compression_rate=compression_rate,
            lower_tail_rate=0.0,
            original_mu_3sigma=original_statistic,
            compressed_mu_3sigma=original_statistic,
        )

    order = np.argsort(total_current, kind="stable")  # ascending
    sorted_totals = total_current[order]

    best_distance = np.inf
    best_lower_count = 0
    lower_rate = 0.0
    while lower_rate <= compression_rate + 1e-12:
        lower_count = int(round(lower_rate * num_steps))
        lower_count = min(lower_count, keep)
        upper_count = keep - lower_count
        candidate = np.concatenate(
            [sorted_totals[:lower_count], sorted_totals[num_steps - upper_count:]]
        ) if upper_count > 0 else sorted_totals[:lower_count]
        if candidate.size:
            distance = abs(original_statistic - _mu_plus_3sigma(candidate))
            if distance < best_distance:
                best_distance = distance
                best_lower_count = lower_count
        lower_rate += RATE_STEP

    upper_count = keep - best_lower_count
    if upper_count > 0:
        selected_positions = np.concatenate(
            [order[:best_lower_count], order[num_steps - upper_count:]]
        )
    else:
        selected_positions = order[:best_lower_count]
    selected_indices = np.sort(selected_positions)
    compressed = current_maps[selected_indices]
    return TemporalCompressionResult(
        selected_indices=selected_indices,
        compressed_maps=compressed,
        compression_rate=compression_rate,
        lower_tail_rate=best_lower_count / num_steps,
        original_mu_3sigma=original_statistic,
        compressed_mu_3sigma=_mu_plus_3sigma(total_current[selected_indices]),
    )
