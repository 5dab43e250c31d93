"""Accuracy metrics used in the paper's evaluation (Tables 2 and 3).

For every test vector the model predicts a worst-case noise map; the paper
reports, over all tiles of all test vectors:

* mean / 99th-percentile / maximum absolute error (AE, in mV),
* mean / 99th-percentile / maximum relative error (RE, in %),
* the hotspot *missing rate* — the fraction of ground-truth hotspot tiles the
  prediction fails to flag,
* the ROC AUC of hotspot classification (used in the PowerNet comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_positive


def absolute_error(predicted: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Elementwise absolute error ``|v_hat - v|`` (same shape as the inputs)."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    return np.abs(predicted - truth)


def relative_error(
    predicted: np.ndarray, truth: np.ndarray, floor: float = 1e-6
) -> np.ndarray:
    """Elementwise relative error ``|v_hat - v| / max(v, floor)``.

    ``floor`` (volts) guards against division by tiles with essentially zero
    noise; the paper notes that its largest relative errors come precisely
    from tiles with very small worst-case noise.
    """
    check_positive(floor, "floor")
    truth = np.asarray(truth, dtype=float)
    return absolute_error(predicted, truth) / np.maximum(truth, floor)


def hotspot_missing_rate(
    predicted: np.ndarray, truth: np.ndarray, threshold: float
) -> float:
    """Fraction of true hotspot tiles that the prediction misses.

    A tile is a hotspot when its worst-case noise exceeds ``threshold``
    (10% of the nominal supply in the paper).  Returns 0 when the ground
    truth contains no hotspots.
    """
    check_positive(threshold, "threshold")
    truth_hot = np.asarray(truth, dtype=float) > threshold
    predicted_hot = np.asarray(predicted, dtype=float) > threshold
    total_hot = int(np.count_nonzero(truth_hot))
    if total_hot == 0:
        return 0.0
    missed = int(np.count_nonzero(truth_hot & ~predicted_hot))
    return missed / total_hot


def hotspot_precision_recall(
    predicted: np.ndarray, truth: np.ndarray, threshold: float
) -> tuple[float, float]:
    """Precision and recall of hotspot classification at ``threshold``.

    A tile is a hotspot when its worst-case noise exceeds ``threshold``.
    Precision is the fraction of *predicted* hotspot tiles that are real;
    recall is the fraction of *true* hotspot tiles the prediction flags
    (``1 - hotspot_missing_rate``).  Degenerate cases follow the usual
    conventions: precision is 1.0 when nothing is predicted hot, recall is
    1.0 when the ground truth has no hotspots — an empty claim is never
    wrong.

    Parameters
    ----------
    predicted / truth:
        Noise maps (any matching shapes) in volts.
    threshold:
        Absolute hotspot threshold in volts.

    Returns
    -------
    The ``(precision, recall)`` pair, both in ``[0, 1]``.
    """
    check_positive(threshold, "threshold")
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predicted.shape != truth.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {truth.shape}")
    predicted_hot = predicted > threshold
    truth_hot = truth > threshold
    true_positive = int(np.count_nonzero(predicted_hot & truth_hot))
    claimed = int(np.count_nonzero(predicted_hot))
    actual = int(np.count_nonzero(truth_hot))
    precision = true_positive / claimed if claimed else 1.0
    recall = true_positive / actual if actual else 1.0
    return precision, recall


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank statistic (Mann-Whitney U).

    ``scores`` are continuous predictions (here: predicted noise), ``labels``
    are boolean ground-truth hotspot flags.  Returns 0.5 when either class is
    empty (no information).
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"shape mismatch: {scores.shape} vs {labels.shape}")
    num_positive = int(np.count_nonzero(labels))
    num_negative = labels.size - num_positive
    if num_positive == 0 or num_negative == 0:
        return 0.5
    # Average ranks handle ties correctly.
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=float)
    sorted_scores = scores[order]
    ranks[order] = np.arange(1, scores.size + 1)
    # Assign tied groups their average rank.
    unique, inverse, counts = np.unique(sorted_scores, return_inverse=True, return_counts=True)
    cumulative = np.cumsum(counts)
    average_rank = cumulative - (counts - 1) / 2.0
    ranks[order] = average_rank[inverse]
    rank_sum_positive = ranks[labels].sum()
    u_statistic = rank_sum_positive - num_positive * (num_positive + 1) / 2.0
    return float(u_statistic / (num_positive * num_negative))


@dataclass(frozen=True)
class AccuracyReport:
    """Aggregate accuracy of a predictor on a set of test vectors.

    All error statistics are computed over every tile of every vector, the
    way the paper's Table 2 aggregates them.  Absolute errors are in volts
    (properties expose mV), relative errors are fractions (properties expose
    percent).
    """

    mean_ae: float
    mean_re: float
    p99_ae: float
    p99_re: float
    max_ae: float
    max_re: float
    hotspot_missing_rate: float
    auc: float
    num_vectors: int
    num_tiles: int

    @property
    def mean_ae_mv(self) -> float:
        """Mean absolute error in millivolts."""
        return self.mean_ae * 1e3

    @property
    def p99_ae_mv(self) -> float:
        """99th-percentile absolute error in millivolts."""
        return self.p99_ae * 1e3

    @property
    def max_ae_mv(self) -> float:
        """Maximum absolute error in millivolts."""
        return self.max_ae * 1e3

    @property
    def mean_re_percent(self) -> float:
        """Mean relative error in percent."""
        return self.mean_re * 100.0

    @property
    def p99_re_percent(self) -> float:
        """99th-percentile relative error in percent."""
        return self.p99_re * 100.0

    @property
    def max_re_percent(self) -> float:
        """Maximum relative error in percent."""
        return self.max_re * 100.0

    def as_dict(self) -> dict:
        """Flat dictionary (used by the benchmark harness and EXPERIMENTS.md)."""
        return {
            "mean_AE_mV": self.mean_ae_mv,
            "mean_RE_%": self.mean_re_percent,
            "p99_AE_mV": self.p99_ae_mv,
            "p99_RE_%": self.p99_re_percent,
            "max_AE_mV": self.max_ae_mv,
            "max_RE_%": self.max_re_percent,
            "hotspot_missing_rate_%": self.hotspot_missing_rate * 100.0,
            "AUC": self.auc,
            "num_vectors": self.num_vectors,
            "num_tiles": self.num_tiles,
        }

    def table_row(self) -> str:
        """One formatted row in the style of the paper's Table 2."""
        return (
            f"{self.mean_ae_mv:.2f}mV/{self.mean_re_percent:.2f}% | "
            f"{self.p99_ae_mv:.2f}mV/{self.p99_re_percent:.2f}% | "
            f"{self.max_ae_mv:.2f}mV/{self.max_re_percent:.2f}% | "
            f"missing {self.hotspot_missing_rate * 100.0:.2f}% | AUC {self.auc:.3f}"
        )


def evaluate_predictions(
    predicted_maps: np.ndarray,
    truth_maps: np.ndarray,
    hotspot_threshold: float,
    relative_floor: float = 1e-3,
) -> AccuracyReport:
    """Compute an :class:`AccuracyReport` from stacked prediction/truth maps.

    Parameters
    ----------
    predicted_maps / truth_maps:
        Arrays of shape ``(num_vectors, m, n)`` in volts.
    hotspot_threshold:
        Absolute hotspot threshold in volts (10% of Vdd in the paper).
    relative_floor:
        Lower bound (volts) on the denominator of relative errors.
    """
    predicted_maps = np.asarray(predicted_maps, dtype=float)
    truth_maps = np.asarray(truth_maps, dtype=float)
    if predicted_maps.shape != truth_maps.shape:
        raise ValueError(f"shape mismatch: {predicted_maps.shape} vs {truth_maps.shape}")
    if predicted_maps.ndim != 3:
        raise ValueError(
            f"expected stacked maps of shape (num_vectors, m, n), got {predicted_maps.shape}"
        )

    ae = absolute_error(predicted_maps, truth_maps)
    re = relative_error(predicted_maps, truth_maps, floor=relative_floor)
    truth_hot = truth_maps > hotspot_threshold

    return AccuracyReport(
        mean_ae=float(ae.mean()),
        mean_re=float(re.mean()),
        p99_ae=float(np.percentile(ae, 99.0)),
        p99_re=float(np.percentile(re, 99.0)),
        max_ae=float(ae.max()),
        max_re=float(re.max()),
        hotspot_missing_rate=hotspot_missing_rate(
            predicted_maps, truth_maps, hotspot_threshold
        ),
        auc=roc_auc(predicted_maps, truth_hot),
        num_vectors=predicted_maps.shape[0],
        num_tiles=int(np.prod(predicted_maps.shape[1:])),
    )
