"""End-to-end request tracing across the sharded recovery service.

The tracing tentpole's contract, pinned property-style: for every
traced request the service retains a span tree whose four stage spans
(`queue_wait`, `shard_exec`, `serialize`, `respond`) decompose the
end-to-end ``service.request`` span — contiguous, in order, inside
the root window — and the worker-side
``service.shard.execute`` span crosses the process boundary with the
right parent and lands inside ``shard_exec``.  Inbound W3C
``traceparent`` headers donate the trace id (and surface as the
entry's remote parent); requests without one get a fresh id; an
unsampled inbound header propagates ids without recording anything.
"""

from __future__ import annotations

import itertools
import json
import time
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ecc import canonical_secded_39_32
from repro.obs import trace as obs_trace
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.service import RecoveryService

CONTEXT_IDS = ("none", "mcf", "bzip2")
CODE = canonical_secded_39_32()

STAGE_NAMES = (
    "service.stage.queue_wait",
    "service.stage.shard_exec",
    "service.stage.serialize",
    "service.stage.respond",
)

#: Deterministic, never-colliding ids for generated traceparent headers
#: (hypothesis shrinks better without os.urandom in the example path).
_ID_COUNTER = itertools.count(1)


@pytest.fixture(scope="module")
def traced_service():
    """A 2-shard service with tracing on; tiny batches force splits."""
    collector = obs_trace.enable_tracing(obs_trace.SpanCollector())
    service = RecoveryService(
        port=0,
        workers=2,
        max_batch=3,
        registry=MetricsRegistry(),
        event_log=EventLog(),
    )
    try:
        with service:
            yield service, collector
    finally:
        obs_trace.disable_tracing()


def _post(service, words, context, traceparent=None):
    """POST /recover/batch; returns (payload, echoed traceparent)."""
    headers = {"Content-Type": "application/json"}
    if traceparent is not None:
        headers["traceparent"] = traceparent
    request = urllib.request.Request(
        f"{service.url}/recover/batch",
        data=json.dumps({"received": words, "context": context}).encode(),
        headers=headers,
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return (
            json.loads(response.read().decode("utf-8")),
            response.headers.get("traceparent"),
        )


def _await_trace(collector, trace_id, timeout_s=10.0):
    """The retained entry for *trace_id* (the root span is recorded
    *after* the response bytes flush, so the client can race it)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        entry = collector.traces.get(trace_id)
        if entry is not None:
            return entry
        time.sleep(0.001)
    raise AssertionError(f"trace {trace_id} never reached the buffer")


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def _word_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.lists(
            st.integers(min_value=0, max_value=CODE.n - 1),
            min_size=0, max_size=2, unique=True,
        ),
    )


def _examples_strategy():
    request = st.tuples(
        st.lists(_word_strategy(), min_size=1, max_size=5),
        st.sampled_from(CONTEXT_IDS),
        st.booleans(),  # send an inbound traceparent?
    )
    return st.lists(request, min_size=1, max_size=4)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(spec=_examples_strategy())
def test_stage_spans_decompose_end_to_end_latency(spec, traced_service):
    """Every traced request yields a well-formed, additive span tree."""
    service, collector = traced_service
    # The buffer keeps the slowest 64 requests *ever*; clear per
    # example so this example's requests cannot be evicted by a slow
    # outlier from a previous one.
    collector.traces.clear()

    sent = []
    for word_specs, context_id, with_header in spec:
        words = []
        for message, flips in word_specs:
            received = CODE.encode(message)
            for bit in flips:
                received ^= 1 << bit
            words.append(received)
        header = None
        remote_span_id = None
        if with_header:
            trace_id = f"{next(_ID_COUNTER):032x}"
            remote_span_id = next(_ID_COUNTER)
            header = (
                f"00-{trace_id}-"
                f"{obs_trace.format_span_id(remote_span_id)}-01"
            )
        payload, echoed = _post(service, words, context_id, header)
        assert len(payload["results"]) == len(words)
        context = obs_trace.parse_traceparent(echoed)
        assert context is not None and context.sampled
        if with_header:
            assert context.trace_id == trace_id  # inbound id donated
            assert context.span_id != remote_span_id  # fresh local span
        sent.append((context.trace_id, remote_span_id))

    for trace_id, remote_span_id in sent:
        entry = _await_trace(collector, trace_id)
        assert entry.remote_parent_id == remote_span_id
        tree = entry.as_dict()
        root = tree["root"]
        assert root["name"] == "service.request"
        assert root["trace_id"] == trace_id

        # Every span's parent resolves inside the document, ids are
        # 16-hex, and all spans carry the request's trace id.
        ids = {node["span_id"] for node in _walk(root)}
        assert len(ids) == tree["span_count"]
        for node in _walk(root):
            assert len(node["span_id"]) == 16
            assert node["trace_id"] == trace_id
            assert node["duration_ns"] >= 0
            if node is not root:
                assert node["parent_id"] in ids
            for child in node["children"]:
                assert child["parent_id"] == node["span_id"]

        # Exactly the four stage spans sit under the root, in
        # chronological order, contiguous and non-overlapping.
        stages = {c["name"]: c for c in root["children"]}
        assert sorted(stages) == sorted(STAGE_NAMES)
        assert len(root["children"]) == len(STAGE_NAMES)
        ordered = [stages[name] for name in STAGE_NAMES]
        for earlier, later in zip(ordered, ordered[1:]):
            assert earlier["end_ns"] <= later["start_ns"]
        for stage in ordered:
            assert root["start_ns"] <= stage["start_ns"]
            assert stage["end_ns"] <= root["end_ns"]

        # Decomposition: the stages sum to no more than the request
        # (they tile its interior, minus parse/dispatch gaps).
        stage_sum = sum(stage["duration_ns"] for stage in ordered)
        assert stage_sum <= root["duration_ns"]

        # The worker-side span crossed the process boundary: exactly
        # one per request, parented under shard_exec and clamped
        # inside its window.
        shard_exec = stages["service.stage.shard_exec"]
        workers = shard_exec["children"]
        assert [w["name"] for w in workers] == ["service.shard.execute"]
        worker = workers[0]
        assert worker["parent_id"] == shard_exec["span_id"]
        assert shard_exec["start_ns"] <= worker["start_ns"]
        assert worker["end_ns"] <= shard_exec["end_ns"]


def test_unsampled_inbound_header_propagates_without_recording(
    traced_service,
):
    """flags=00 means correlate (echo ids) but record nothing."""
    service, collector = traced_service
    trace_id = f"{next(_ID_COUNTER):032x}"
    header = f"00-{trace_id}-{obs_trace.format_span_id(0xBEEF)}-00"
    payload, echoed = _post(
        service, [CODE.encode(7) ^ 0b11], "mcf", header
    )
    assert payload["results"]
    context = obs_trace.parse_traceparent(echoed)
    assert context is not None
    assert context.trace_id == trace_id
    assert not context.sampled
    time.sleep(0.05)
    assert collector.traces.get(trace_id) is None


def test_stage_histograms_observed_for_untraced_requests(traced_service):
    """The /metrics decomposition costs nothing extra to keep hot: it
    is observed for every request, traced or not."""
    service, _ = traced_service
    before = {
        name: service.registry.histogram(name).count
        for name in STAGE_NAMES
    }
    _post(service, [CODE.encode(21) ^ 0b101], "none")
    for name in STAGE_NAMES:
        assert service.registry.histogram(name).count > before[name], name
