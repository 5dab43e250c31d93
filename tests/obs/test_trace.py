"""Span tracer: nesting, durations, attributes, the retention cap.

Two properties matter to the instrumented call sites: ``span.duration_s``
stays valid after the ``with`` block, so call sites read their own
timings, and it stays valid *even on a disabled tracer* — only the
recording is gated, never the measurement.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import SpanTracer


class TestSpanLifecycle:
    def test_duration_survives_the_with_block(self):
        tracer = SpanTracer()
        with tracer.span("work") as span:
            time.sleep(0.002)
        assert span.duration_s >= 0.002
        [record] = tracer.records()
        assert record["name"] == "work"
        assert record["duration_s"] == span.duration_s

    def test_disabled_tracer_measures_but_records_nothing(self):
        tracer = SpanTracer(enabled=False)
        with tracer.span("work") as span:
            time.sleep(0.001)
        assert span.duration_s >= 0.001
        assert len(tracer) == 0

    def test_attributes_from_kwargs_and_set(self):
        tracer = SpanTracer()
        with tracer.span("work", design="D1") as span:
            span.set(shards=3)
        [record] = tracer.records()
        assert record["attributes"] == {"design": "D1", "shards": 3}

    def test_exception_tags_error_attribute_and_propagates(self):
        tracer = SpanTracer()
        with pytest.raises(KeyError):
            with tracer.span("work"):
                raise KeyError("boom")
        [record] = tracer.records()
        assert record["attributes"]["error"] == "KeyError"


class TestNesting:
    def test_child_records_parent_id(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        inner_record, outer_record = tracer.records()  # completion order
        assert inner_record["name"] == "inner"
        assert inner_record["parent_id"] == outer_record["span_id"]

    def test_siblings_share_a_parent(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            with tracer.span("first") as first:
                pass
            with tracer.span("second") as second:
                pass
        assert first.parent_id == outer.span_id
        assert second.parent_id == outer.span_id
        assert first.span_id != second.span_id

    def test_record_inherits_the_open_span_as_parent(self):
        tracer = SpanTracer()
        with tracer.span("outer") as outer:
            tracer.record("external", 0.25, solver="cholesky")
        external = tracer.records()[0]
        assert external["parent_id"] == outer.span_id
        assert external["duration_s"] == 0.25
        assert external["attributes"] == {"solver": "cholesky"}

    def test_record_on_disabled_tracer_is_noop(self):
        tracer = SpanTracer(enabled=False)
        tracer.record("external", 0.1)
        assert len(tracer) == 0


class TestRetentionCap:
    def test_cap_drops_and_counts(self):
        tracer = SpanTracer(cap=3)
        for index in range(5):
            with tracer.span(f"s{index}"):
                pass
        assert len(tracer) == 3
        assert tracer.dropped == 2

    def test_clear_resets_records_and_dropped(self):
        tracer = SpanTracer(cap=1)
        for _ in range(3):
            with tracer.span("s"):
                pass
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.dropped == 0
        assert list(tracer) == []
