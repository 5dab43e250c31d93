"""Per-layer metrics of a traced run, computed from its spans.

Every workload reports every metric in :data:`PER_LAYER`; a layer the
workload does not load reads 0.  Counts and times are per unit of work of
the workload (request, optimizer step or label) unless the name says
otherwise.  Which end-to-end metric each one should move, and on which
workload, is tabulated in ``METRICS.md``.
"""

from __future__ import annotations

import statistics

import arith

#: Layers self time is attributed to (a span's first dotted name component).
LAYERS = ("pdn", "workloads", "sim", "features", "datagen", "core", "nn", "kernels", "gateway")

#: Per-layer metric name -> unit, in report order.
PER_LAYER = {
    "pdn.build_s": "s",
    "workloads.vector_ms": "ms",
    "sim.factor_s": "s",
    "sim.full.ms_per_label": "ms",
    "sim.full.us_per_stamp": "us",
    "sim.reduce_ms_per_label": "ms",
    "sim.rom.build_s": "s",
    "sim.rom.ms_per_label": "ms",
    "sim.rom.validated": "count",
    "sim.rom.fallbacks": "count",
    "sim.rom.useful_ratio": "ratio",
    "features.ms_per_vector": "ms",
    "features.stamp_keep_ratio": "ratio",
    "datagen.shards": "count",
    "datagen.write_ms_per_shard": "ms",
    "datagen.bytes_per_label": "B",
    "datagen.retries": "count",
    "datagen.quarantined": "count",
    "kernels.im2col.calls": "count",
    "kernels.im2col.s": "s",
    "kernels.im2col.mb": "MB",
    "kernels.col2im.calls": "count",
    "kernels.col2im.s": "s",
    "kernels.col2im.mb": "MB",
    "kernels.matmul.calls": "count",
    "kernels.matmul.s": "s",
    "kernels.matmul.gflop": "GFLOP",
    "kernels.matmul.gflops": "GFLOP/s",
    "kernels.pool.hit_ratio": "ratio",
    "kernels.share": "ratio",
    "core.predict_batch.ms_per_vector": "ms",
    "core.forward_ms_per_vector": "ms",
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optimizer_ms": "ms",
    "train.eval_ms": "ms",
    "gateway.queue_wait_ms_p50": "ms",
    "gateway.queue_wait_ms_p95": "ms",
    "gateway.compute_ms_p50": "ms",
    "gateway.resolve_ms_p50": "ms",
    "gateway.batch_mean": "count",
    "gateway.batch_fill_ratio": "ratio",
    "gateway.rejected": "count",
    "gateway.restarts": "count",
    "screen_p95_ms": "ms",
    "label_err_max": "ratio",
    "label_bias_abs": "ratio",
    "train_test_mre_pct": "%",
    **{f"self.{layer}.share": "ratio" for layer in LAYERS},
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(spans, all_spans, wall: float, units: int, pool: tuple[int, int]) -> dict:
    """Generic per-layer metrics.

    ``spans`` are the measured loop's spans, ``all_spans`` include set-up
    (one-off costs such as a design build are averaged over every call),
    ``wall`` is the measured loop's wall clock, ``units`` its units of work
    and ``pool`` the ``(hits, takes)`` of the conv workspace pool.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name: str) -> float:
        return sum(span.duration for span in by_name.get(name, ()))

    def counted(name: str, key: str) -> float:
        return sum(span.counts.get(key, 0) for span in by_name.get(name, ()))

    def mean_call(name: str) -> float:
        return _mean([span.duration for span in all_spans if span.name == name])

    self_time = arith.self_times([span.as_tuple() for span in spans])
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer = arith.layer_of(span.name)
        layer_self[layer] = layer_self.get(layer, 0.0) + self_time[span.span_id]

    names = {span.span_id: span.name for span in spans}
    parents = {span.span_id: span.parent for span in spans}

    def under_eval(span) -> bool:
        parent = span.parent
        while parent is not None:
            if names.get(parent) == "core.eval":
                return True
            parent = parents.get(parent)
        return False

    train_forward = sum(
        span.duration for span in by_name.get("core.forward", ()) if not under_eval(span)
    )
    per_unit = 1.0 / units if units else 0.0
    kernel_s = {kind: total(f"kernels.{kind}") for kind in ("im2col", "col2im", "matmul")}
    flop = counted("kernels.matmul", "flop")
    trained = "core.train" in by_name

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(
        {
            "pdn.build_s": mean_call("pdn.build"),
            "workloads.vector_ms": 1e3 * mean_call("workloads.vector"),
            "sim.factor_s": mean_call("sim.factor"),
            "sim.full.ms_per_label": 1e3 * _ratio(total("sim.full"), counted("sim.full", "labels")),
            "sim.full.us_per_stamp": 1e6 * _ratio(total("sim.full"), counted("sim.full", "stamps")),
            "sim.reduce_ms_per_label": 1e3 * _ratio(
                total("sim.reduce"), len(by_name.get("sim.reduce", ()))
            ),
            "sim.rom.build_s": mean_call("sim.rom.build"),
            "sim.rom.ms_per_label": 1e3 * _ratio(total("sim.rom"), counted("sim.rom", "labels")),
            "features.ms_per_vector": 1e3 * _ratio(
                total("features.extract"), counted("features.extract", "vectors")
            ),
            "features.stamp_keep_ratio": _ratio(
                counted("features.extract", "kept"), counted("features.extract", "stamps")
            ),
            "datagen.write_ms_per_shard": 1e3 * _mean(
                [span.duration for span in by_name.get("datagen.write", ())]
            ),
            "kernels.pool.hit_ratio": _ratio(pool[0], pool[1]),
            "kernels.share": _ratio(layer_self["kernels"], wall),
            "kernels.im2col.mb": counted("kernels.im2col", "bytes") * per_unit / 1e6,
            "kernels.col2im.mb": counted("kernels.col2im", "bytes") * per_unit / 1e6,
            "kernels.matmul.gflop": flop * per_unit / 1e9,
            "kernels.matmul.gflops": _ratio(flop, kernel_s["matmul"]) / 1e9,
            "core.predict_batch.ms_per_vector": 1e3 * _ratio(
                total("core.predict_batch"), counted("core.predict_batch", "vectors")
            ),
            "core.forward_ms_per_vector": 1e3 * _ratio(
                total("core.forward"), counted("core.forward", "vectors")
            ),
            "trace.coverage": _ratio(sum(self_time.values()), wall),
        }
    )
    for kind, seconds in kernel_s.items():
        metrics[f"kernels.{kind}.calls"] = len(by_name.get(f"kernels.{kind}", ())) * per_unit
        metrics[f"kernels.{kind}.s"] = seconds * per_unit
    if trained:
        metrics.update(
            {
                "train.forward_ms": 1e3 * train_forward * per_unit,
                "train.backward_ms": 1e3 * total("nn.backward") * per_unit,
                "train.optimizer_ms": 1e3 * total("nn.optim") * per_unit,
                "train.eval_ms": 1e3 * total("core.eval") * per_unit,
            }
        )
    for layer in LAYERS:
        metrics[f"self.{layer}.share"] = _ratio(layer_self[layer], wall)
    return metrics
