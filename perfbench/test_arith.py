"""Tests of the benchmark's own arithmetic and span bookkeeping.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

import arith
import layers
import run
import speed
from spans import Recorder

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "count, expected",
    [
        (10_000, 999), (1_000, 990), (999, 950), (200, 950), (199, 900),
        (100, 900), (99, 750), (20, 500), (19, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert arith.tail_per_mille(count) == expected
    if expected is not None:
        assert arith.samples_beyond(count, expected) >= arith.MIN_BEYOND


def test_samples_beyond_is_exact_at_the_boundary():
    assert arith.samples_beyond(200, 950) == 10
    assert arith.samples_beyond(199, 950) == 9


def test_percentile_interpolates_linearly():
    values = list(range(1, 101))
    assert arith.percentile(values, 500) == pytest.approx(50.5)
    assert arith.percentile(values, 950) == pytest.approx(95.05)


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert arith.quartile_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))


def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        (1, None, 0.0, 10.0),
        (2, 1, 1.0, 3.0),
        (3, 1, 2.0, 5.0),  # overlaps span 2: the union 1..5 is subtracted once
        (4, 1, 9.0, 12.0),  # runs past its parent: only 9..10 counts
        (5, 3, 2.5, 3.5),
    ]
    result = arith.self_times(spans)
    assert result[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert result[2] == pytest.approx(2.0)
    assert result[3] == pytest.approx(3.0 - 1.0)
    assert result[4] == pytest.approx(3.0)
    assert result[5] == pytest.approx(1.0)


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    spans = [(1, None, 0.0, 8.0), (2, 1, 1.0, 4.0), (3, 2, 2.0, 3.0), (4, 1, 5.0, 7.0)]
    assert sum(arith.self_times(spans).values()) == pytest.approx(8.0)


def test_layer_is_the_first_name_component():
    assert arith.layer_of("kernels.matmul") == "kernels"
    assert arith.layer_of("sim.rom.build") == "sim"
    assert arith.layer_of("pdn") == "pdn"


def test_im2col_bytes_count_input_read_and_columns_written():
    from repro.nn import kernels

    x = np.zeros((2, 3, 6, 7))
    columns = kernels.im2col(x, 3, 2)
    assert arith.im2col_bytes(x.shape, 3, 2, x.itemsize) == x.nbytes + columns.nbytes


def test_col2im_bytes_count_columns_read_and_image_written():
    from repro.nn import kernels

    shape = (2, 3, 6, 7)
    columns = kernels.im2col(np.zeros(shape, dtype=np.float32), 3, 1)
    image = kernels.col2im(columns, shape, 3, 1)
    assert arith.col2im_bytes(shape, 3, 1, 4) == columns.nbytes + image.nbytes


@pytest.mark.parametrize(
    "a_shape, b_shape, flops",
    [
        ((4, 5), (5, 6), 2 * 4 * 5 * 6),
        ((3, 4, 5), (5, 6), 3 * 2 * 4 * 5 * 6),
        ((4, 5), (3, 5, 6), 3 * 2 * 4 * 5 * 6),
        ((2, 1, 4, 5), (3, 5, 6), 6 * 2 * 4 * 5 * 6),
        ((5,), (5, 6), 2 * 5 * 6),
        ((4, 5), (5,), 2 * 4 * 5),
    ],
)
def test_matmul_flops_follow_numpy_broadcasting(a_shape, b_shape, flops):
    assert arith.matmul_flops(a_shape, b_shape) == flops


def test_matmul_flops_equal_a_multiply_add_count():
    a = np.ones((3, 4, 5))
    b = np.ones((5, 6))
    # every output element of an all-ones product is K multiply-adds
    assert arith.matmul_flops(a.shape, b.shape) == 2 * (a @ b).sum()


def test_label_error_is_relative_to_each_vectors_largest_tile():
    reference = np.array([[[1.0, 2.0], [0.5, 0.0]], [[4.0, 1.0], [1.0, 1.0]]])
    labels = reference.copy()
    labels[0, 0, 0] += 0.2  # +0.2 / 2.0 = +10% of vector 0's max tile
    labels[1, 1, 1] -= 0.2  # -0.2 / 4.0 = -5% of vector 1's max tile
    errors = arith.tile_errors(labels, reference)
    assert errors[0, 0, 0] == pytest.approx(0.1)
    assert errors[1, 1, 1] == pytest.approx(-0.05)
    assert arith.label_err_max(labels, reference) == pytest.approx(0.1)
    assert arith.label_bias_abs(labels, reference) == pytest.approx(0.05 / 8)


def test_label_bias_is_the_absolute_mean_signed_error():
    reference = np.ones((3, 2, 2))
    assert arith.label_bias_abs(reference * 0.9, reference) == pytest.approx(0.1)
    assert arith.label_bias_abs(reference * 1.1, reference) == pytest.approx(0.1)
    assert arith.label_err_max(reference, reference) == 0.0


def test_probe_scaling_cancels_a_uniform_slowdown():
    reference = speed.REFERENCE["sparse"]
    assert speed.normalised(2.0, "sparse", reference) == pytest.approx(2.0)
    # a host 50% slower stretches the work and its probe alike
    assert speed.normalised(3.0, "sparse", 1.5 * reference) == pytest.approx(2.0)


def test_each_operation_is_scaled_by_the_probes_either_side_of_it():
    reference = speed.REFERENCE["dense"]
    probes = [reference, 3 * reference, reference]
    assert speed.bracketed([1.0, 2.0], probes, "dense") == pytest.approx([0.5, 1.0])
    assert speed.bracketed([1.0], [None, None], "dense") == []
    with pytest.raises(ValueError):
        speed.bracketed([1.0], [reference], "dense")


@pytest.mark.parametrize("kind", sorted(speed.REFERENCE))
def test_probe_kernels_do_fixed_work(kind):
    probe = speed.SpeedProbe()
    assert getattr(probe, kind)() == getattr(speed.SpeedProbe(), kind)()
    assert probe.time(kind) > 0


def test_recorder_links_parents_per_thread_and_restores_patches():
    class Target:
        def work(self, value):
            return value * 2

    recorder = Recorder()
    recorder.patch(Target, "work", "layer.work", lambda args, kwargs, result: {"out": result})
    recorder.active = True
    with recorder.span("root.op"):
        assert Target().work(3) == 6
    recorder.active = False
    assert Target().work(4) == 8  # inactive wrappers pass through unrecorded
    recorder.unpatch()
    assert "wrapper" not in Target.__dict__["work"].__code__.co_name
    root, = [span for span in recorder.spans if span.name == "root.op"]
    child, = [span for span in recorder.spans if span.name == "layer.work"]
    assert child.parent == root.span_id and root.parent is None
    assert child.counts == {"out": 6}


def test_benchmark_json_declares_exactly_the_reported_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {item["name"]: item["unit"] for item in declared["end_to_end"]} == run.END_TO_END
    assert {item["name"]: item["unit"] for item in declared["per_layer"]} == layers.PER_LAYER
    assert [item["name"] for item in declared["workloads"]] == list(run.WORKLOAD_NAMES)


def test_every_workload_name_has_an_implementation():
    import hotpaths

    assert tuple(hotpaths.WORKLOADS) == run.WORKLOAD_NAMES
