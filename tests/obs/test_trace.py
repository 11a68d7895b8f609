"""Unit tests for tracing spans: nesting, timing monotonicity, no-op mode,
traceparent propagation, bounded retention, and request-trace recording."""

from __future__ import annotations

import pytest

from repro.obs.trace import (
    Span,
    SpanCollector,
    TraceBuffer,
    TraceContext,
    TraceEntry,
    current_collector,
    disable_tracing,
    enable_tracing,
    format_span_id,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    span,
    spans_to_forest,
    tracing_enabled,
)


@pytest.fixture
def collector():
    """Tracing enabled for the test, always disabled afterwards."""
    active = enable_tracing()
    yield active
    disable_tracing()


class TestSpanLifecycle:
    def test_disabled_by_default_and_null_span_is_noop(self):
        assert not tracing_enabled()
        with span("anything"):
            pass  # must not raise, must not record anywhere
        assert current_collector() is None

    def test_enable_disable_roundtrip(self):
        active = enable_tracing()
        assert tracing_enabled() and current_collector() is active
        assert disable_tracing() is active
        assert not tracing_enabled()

    def test_span_records_name_and_duration(self, collector):
        with span("stage"):
            pass
        assert len(collector) == 1
        recorded = collector.spans[0]
        assert recorded.name == "stage"
        assert recorded.duration_ns >= 0
        assert recorded.end_ns >= recorded.start_ns

    def test_timing_monotonicity_across_spans(self, collector):
        with span("first"):
            pass
        with span("second"):
            pass
        first, second = collector.spans
        assert second.start_ns >= first.end_ns

    def test_span_survives_exceptions(self, collector):
        with pytest.raises(ValueError):
            with span("fails"):
                raise ValueError("boom")
        assert len(collector) == 1
        assert collector.spans[0].name == "fails"


class TestNesting:
    def test_child_closes_before_parent_and_links_to_it(self, collector):
        with span("parent"):
            with span("child"):
                pass
        child, parent = collector.spans  # completion order
        assert child.name == "child" and parent.name == "parent"
        assert child.depth == 1 and parent.depth == 0
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        # The child's interval nests inside the parent's.
        assert parent.start_ns <= child.start_ns
        assert child.end_ns <= parent.end_ns

    def test_sibling_spans_share_parent(self, collector):
        with span("parent"):
            with span("a"):
                pass
            with span("b"):
                pass
        a, b, parent = collector.spans
        assert a.parent_id == parent.span_id
        assert b.parent_id == parent.span_id
        assert a.span_id != b.span_id

    def test_deep_nesting_depths(self, collector):
        with span("d0"):
            with span("d1"):
                with span("d2"):
                    pass
        depths = {item.name: item.depth for item in collector.spans}
        assert depths == {"d0": 0, "d1": 1, "d2": 2}


class TestSummary:
    def test_summary_aggregates_per_name(self):
        collector = SpanCollector()
        enable_tracing(collector)
        try:
            for _ in range(3):
                with span("repeated"):
                    pass
            with span("once"):
                pass
        finally:
            disable_tracing()
        summary = collector.summary()
        assert summary["repeated"]["count"] == 3
        assert summary["once"]["count"] == 1
        entry = summary["repeated"]
        assert entry["min_ns"] <= entry["mean_ns"] <= entry["max_ns"]
        assert entry["total_ns"] == pytest.approx(
            entry["mean_ns"] * entry["count"]
        )

    def test_clear(self, collector):
        with span("x"):
            pass
        collector.clear()
        assert len(collector) == 0
        assert collector.summary() == {}


_TRACE_ID = "ab" * 16
_SPAN_HEX = "cd" * 8


class TestTraceparent:
    def test_roundtrip(self):
        context = TraceContext.new()
        assert parse_traceparent(context.to_traceparent()) == context

    def test_unsampled_roundtrip(self):
        context = TraceContext.new(sampled=False)
        header = context.to_traceparent()
        assert header.endswith("-00")
        assert parse_traceparent(header) == context

    def test_parse_fields(self):
        context = parse_traceparent(f"00-{_TRACE_ID}-{_SPAN_HEX}-01")
        assert context == TraceContext(_TRACE_ID, int(_SPAN_HEX, 16), True)

    def test_flags_other_bits_ignored_for_sampling(self):
        context = parse_traceparent(f"00-{_TRACE_ID}-{_SPAN_HEX}-fe")
        assert context is not None and not context.sampled

    @pytest.mark.parametrize("header", [
        None,
        "",
        "garbage",
        f"00-{_TRACE_ID}-{_SPAN_HEX}",            # missing flags
        f"0-{_TRACE_ID}-{_SPAN_HEX}-01",          # short version
        f"ff-{_TRACE_ID}-{_SPAN_HEX}-01",         # forbidden version
        f"00-{_TRACE_ID[:-2]}-{_SPAN_HEX}-01",    # short trace id
        f"00-{_TRACE_ID}-{_SPAN_HEX[:-2]}-01",    # short span id
        f"00-{'0' * 32}-{_SPAN_HEX}-01",          # all-zero trace id
        f"00-{_TRACE_ID}-{'0' * 16}-01",          # all-zero span id
        f"00-{_TRACE_ID.upper()}-{_SPAN_HEX}-01",  # uppercase hex
        f"00-{_TRACE_ID}-{_SPAN_HEX}-01-extra",   # v00 has 4 fields
        f"00-{'zz' * 16}-{_SPAN_HEX}-01",         # non-hex trace id
        f"00-{_TRACE_ID}-{_SPAN_HEX}-xx",         # non-hex flags
    ])
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_future_version_tolerates_extra_fields(self):
        context = parse_traceparent(
            f"01-{_TRACE_ID}-{_SPAN_HEX}-01-future-stuff"
        )
        assert context is not None
        assert context.trace_id == _TRACE_ID

    def test_random_ids_are_well_formed(self):
        assert len(new_trace_id()) == 32
        assert new_trace_id() != new_trace_id()
        span_id = new_span_id()
        assert 0 < span_id < (1 << 63)
        assert len(format_span_id(span_id)) == 16
        assert int(format_span_id(span_id), 16) == span_id


def _make_span(
    name: str,
    start_ns: int,
    end_ns: int,
    span_id: int,
    parent_id: int | None = None,
    trace_id: str | None = None,
    depth: int = 0,
) -> Span:
    return Span(name=name, start_ns=start_ns, end_ns=end_ns, depth=depth,
                span_id=span_id, parent_id=parent_id, trace_id=trace_id)


class TestBoundedRetention:
    def test_raw_spans_capped_but_summary_stays_exact(self):
        collector = SpanCollector(max_spans=8)
        enable_tracing(collector)
        try:
            for _ in range(20):
                with span("hot"):
                    pass
        finally:
            disable_tracing()
        assert len(collector) == 8
        assert len(collector.spans) == 8
        assert collector.dropped == 12
        entry = collector.summary()["hot"]
        assert entry["count"] == 20  # exact despite eviction
        assert entry["total_ns"] >= entry["max_ns"]

    def test_clear_resets_drop_accounting(self):
        collector = SpanCollector(max_spans=2)
        for index in range(5):
            collector.record(_make_span("s", 0, 1, span_id=index))
        collector.clear()
        assert collector.dropped == 0
        for index in range(3):
            collector.record(_make_span("s", 0, 1, span_id=index))
        assert collector.dropped == 1

    def test_bad_max_spans_rejected(self):
        with pytest.raises(ValueError, match="max_spans"):
            SpanCollector(max_spans=0)


class TestSpansToForest:
    def test_nests_children_and_formats_ids(self):
        spans = [
            _make_span("child", 10, 50, span_id=2, parent_id=1,
                       trace_id=_TRACE_ID, depth=1),
            _make_span("root", 0, 100, span_id=1, trace_id=_TRACE_ID),
        ]
        forest = spans_to_forest(spans)
        assert len(forest) == 1
        root = forest[0]
        assert root["name"] == "root"
        assert root["span_id"] == format_span_id(1)
        assert root["parent_id"] is None
        assert [c["name"] for c in root["children"]] == ["child"]
        assert root["children"][0]["parent_id"] == format_span_id(1)
        assert root["children"][0]["duration_ns"] == 40

    def test_missing_parent_becomes_root(self):
        forest = spans_to_forest(
            [_make_span("dangling", 5, 9, span_id=3, parent_id=999)]
        )
        assert len(forest) == 1
        assert forest[0]["parent_id"] is None

    def test_roots_and_children_sorted_by_start(self):
        spans = [
            _make_span("late-root", 50, 60, span_id=4),
            _make_span("early-root", 0, 40, span_id=1),
            _make_span("b", 30, 35, span_id=3, parent_id=1),
            _make_span("a", 10, 20, span_id=2, parent_id=1),
        ]
        forest = spans_to_forest(spans)
        assert [n["name"] for n in forest] == ["early-root", "late-root"]
        assert [c["name"] for c in forest[0]["children"]] == ["a", "b"]


def _trace_entry(trace_id: str, duration_ns: int) -> TraceEntry:
    return TraceEntry(
        trace_id=trace_id, root_span_id=1, remote_parent_id=None,
        duration_ns=duration_ns,
        spans=(_make_span("service.request", 0, duration_ns, span_id=1,
                          trace_id=trace_id),),
    )


class TestTraceBuffer:
    def test_evicts_fastest_when_full(self):
        buffer = TraceBuffer(capacity=3)
        for index, duration in enumerate([50, 10, 30, 40]):
            buffer.add(_trace_entry(f"t{index}", duration))
        assert len(buffer) == 3
        retained = [e.duration_ns for e in buffer.slowest()]
        assert retained == [50, 40, 30]  # t1 (fastest) evicted
        assert buffer.get("t1") is None
        assert buffer.get("t0") is not None

    def test_slowest_limit(self):
        buffer = TraceBuffer(capacity=8)
        for index in range(5):
            buffer.add(_trace_entry(f"t{index}", index * 100))
        top = buffer.slowest(2)
        assert [e.trace_id for e in top] == ["t4", "t3"]

    def test_clear_and_bad_capacity(self):
        buffer = TraceBuffer(capacity=2)
        buffer.add(_trace_entry("t", 1))
        buffer.clear()
        assert len(buffer) == 0
        with pytest.raises(ValueError, match="capacity"):
            TraceBuffer(capacity=0)


class TestRecordTrace:
    def test_record_trace_builds_entry(self):
        collector = SpanCollector()
        entry = collector.record_trace(
            [
                _make_span("service.stage.queue_wait", 10, 20, span_id=2,
                           parent_id=1, trace_id=_TRACE_ID, depth=1),
                _make_span("service.request", 0, 100, span_id=1,
                           trace_id=_TRACE_ID),
            ],
            root_span_id=1,
            remote_parent_id=0xCD,
        )
        assert entry.trace_id == _TRACE_ID
        assert entry.duration_ns == 100  # the root span's duration
        assert [s.name for s in entry.spans] == [
            "service.request", "service.stage.queue_wait",
        ]  # by start time
        assert collector.traces.get(_TRACE_ID) is entry
        # Every span also reaches the raw ring and the summary.
        assert len(collector) == 2
        assert collector.summary()["service.request"]["count"] == 1
        tree = entry.as_dict()
        assert tree["remote_parent_id"] == format_span_id(0xCD)
        assert tree["span_count"] == 2
        assert tree["root"]["name"] == "service.request"
        children = tree["root"]["children"]
        assert [c["name"] for c in children] == ["service.stage.queue_wait"]
        assert children[0]["parent_id"] == format_span_id(1)

    def test_record_alone_keeps_no_trace_entry(self):
        collector = SpanCollector()
        collector.record(_make_span("service.request", 0, 1, span_id=1,
                                    trace_id="fe" * 16))
        assert len(collector) == 1
        assert len(collector.traces) == 0
