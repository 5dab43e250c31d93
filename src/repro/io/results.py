"""Result records and export helpers for the benchmark harness.

Every benchmark regenerating a table or figure of the paper produces an
:class:`ExperimentRecord`; the helpers here render those records as aligned
text tables (what the benchmark prints), CSV, JSON, or an ASCII heat map for
the figure-style outputs, so results can be inspected without matplotlib.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.io.atomic import atomic_write_text


@dataclass
class ExperimentRecord:
    """One row of a reproduced table (or one series point of a figure).

    Attributes
    ----------
    experiment:
        Identifier such as ``"table2"`` or ``"fig6"``.
    label:
        Row label, e.g. the design name or a sweep value.
    values:
        Ordered mapping of column name to value.
    """

    experiment: str
    label: str
    values: dict = field(default_factory=dict)

    def as_flat_dict(self) -> dict:
        """Single-level dictionary including the identifying fields."""
        flat = {"experiment": self.experiment, "label": self.label}
        flat.update(self.values)
        return flat


def format_table(records: Sequence[ExperimentRecord], title: Optional[str] = None) -> str:
    """Render records as an aligned text table (all records share columns)."""
    if not records:
        return "(no records)"
    value_columns: list[str] = []
    for record in records:
        for key in record.values.keys():
            if key not in value_columns:
                value_columns.append(key)
    columns = ["label"] + value_columns
    rows = []
    for record in records:
        row = [record.label] + [_format_value(record.values.get(col)) for col in columns[1:]]
        rows.append(row)
    widths = [max(len(col), *(len(row[i]) for row in rows)) for i, col in enumerate(columns)]
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(col.ljust(width) for col, width in zip(columns, widths))
    lines.append(header)
    lines.append("-+-".join("-" * width for width in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def _format_value(value) -> str:
    """Human-friendly formatting of a table cell."""
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def write_csv(records: Sequence[ExperimentRecord], path: Union[str, Path]) -> None:
    """Write records to a CSV file atomically (one column per value key).

    Records are allowed to carry different value keys (e.g. solver-specific
    diagnostics); the header is the union of all keys and missing cells are
    left empty.
    """
    if not records:
        raise ValueError("no records to write")
    fieldnames: list[str] = []
    for record in records:
        for key in record.as_flat_dict().keys():
            if key not in fieldnames:
                fieldnames.append(key)
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    for record in records:
        writer.writerow(record.as_flat_dict())
    atomic_write_text(path, buffer.getvalue())


def write_json(records: Sequence[ExperimentRecord], path: Union[str, Path]) -> None:
    """Write records to a JSON file atomically."""
    payload = [record.as_flat_dict() for record in records]
    atomic_write_text(path, json.dumps(payload, indent=2, default=_json_default))


def _json_default(value):
    """JSON encoder fallback for numpy scalars/arrays."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)!r}")


def read_json(path: Union[str, Path]) -> list[ExperimentRecord]:
    """Read records previously written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    records = []
    for entry in payload:
        experiment = entry.pop("experiment")
        label = entry.pop("label")
        records.append(ExperimentRecord(experiment=experiment, label=label, values=entry))
    return records


def latency_throughput_columns(
    latencies_seconds,
    total_seconds: Optional[float] = None,
    vectors: Optional[int] = None,
) -> dict:
    """Standard throughput/latency columns for runtime tables.

    Parameters
    ----------
    latencies_seconds:
        Per-item wall-clock latencies in seconds — either a raw sequence of
        floats, or a :class:`repro.obs.metrics.LatencyHistogram` whose
        bucket counts already aggregate the samples (the serving stack's
        ``gateway.request_latency.*`` instruments).  Percentiles from a
        histogram are interpolated within its buckets rather than re-sorted
        from raw lists.
    total_seconds:
        Wall-clock span of the whole run; defaults to the sum of the
        latencies (correct for sequential execution, pass the real span for
        batched/concurrent runs).
    vectors:
        Number of items processed; defaults to the sample count.

    Returns
    -------
    Mapping with ``p50_latency_ms``, ``p95_latency_ms``, ``p99_latency_ms``
    and ``vectors_per_sec`` keys, ready to merge into an
    :class:`ExperimentRecord`'s values.
    """
    if hasattr(latencies_seconds, "percentile") and hasattr(latencies_seconds, "total"):
        histogram = latencies_seconds
        if not histogram.count:
            raise ValueError("at least one latency measurement is required")
        span = float(histogram.total) if total_seconds is None else float(total_seconds)
        count = int(histogram.count) if vectors is None else int(vectors)
        p50 = float(histogram.percentile(50.0))
        p95 = float(histogram.percentile(95.0))
        p99 = float(histogram.percentile(99.0))
    else:
        latencies = np.asarray(latencies_seconds, dtype=float).ravel()
        if latencies.size == 0:
            raise ValueError("at least one latency measurement is required")
        if np.any(latencies < 0):
            raise ValueError("latencies must be non-negative")
        span = float(np.sum(latencies)) if total_seconds is None else float(total_seconds)
        count = int(latencies.size) if vectors is None else int(vectors)
        p50 = float(np.percentile(latencies, 50))
        p95 = float(np.percentile(latencies, 95))
        p99 = float(np.percentile(latencies, 99))
    return {
        "p50_latency_ms": p50 * 1e3,
        "p95_latency_ms": p95 * 1e3,
        "p99_latency_ms": p99 * 1e3,
        "vectors_per_sec": float(count / span) if span > 0 else float("inf"),
    }


def ascii_heatmap(
    values: np.ndarray,
    title: str = "",
    width: int = 60,
    characters: str = " .:-=+*#%@",
) -> str:
    """Render a 2-D map as an ASCII heat map (figure stand-in without matplotlib).

    The map is downsampled to at most ``width`` columns; rows are downsampled
    proportionally so the aspect ratio is roughly preserved in a terminal.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-D map, got shape {values.shape}")
    rows, cols = values.shape
    col_step = max(1, int(np.ceil(cols / width)))
    row_step = max(1, int(np.ceil(rows / (width / 2))))
    sampled = values[::row_step, ::col_step]
    low, high = float(sampled.min()), float(sampled.max())
    span = high - low if high > low else 1.0
    normalized = (sampled - low) / span
    indices = np.clip((normalized * (len(characters) - 1)).round().astype(int), 0, len(characters) - 1)
    lines = []
    if title:
        lines.append(f"{title}  [min={low:.4g}, max={high:.4g}]")
    for row in indices:
        lines.append("".join(characters[i] for i in row))
    return "\n".join(lines)


def ascii_histogram(
    values: np.ndarray,
    bins: int = 20,
    width: int = 50,
    title: str = "",
) -> str:
    """Render a histogram as ASCII bars (used for Fig. 5(a))."""
    values = np.asarray(values, dtype=float).ravel()
    counts, edges = np.histogram(values, bins=bins)
    peak = counts.max() if counts.size and counts.max() > 0 else 1
    lines = []
    if title:
        lines.append(title)
    for count, low, high in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"{low:10.4g} - {high:10.4g} | {bar} {count}")
    return "\n".join(lines)
