"""Tests for the live observability HTTP endpoint."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ObservabilityError
from repro.obs import promtext
from repro.obs.events import DueEvent
from repro.obs.server import ObsServer


@pytest.fixture()
def served(obs_swap):
    """A running server over a swapped-in registry and event log."""
    registry, log = obs_swap
    registry.counter("swdecc.recoveries").inc(3)
    registry.gauge("sweep.progress.patterns_done").set(5.0)
    for index in range(4):
        log.record(DueEvent(received=index, num_candidates=2, num_valid=2,
                            filter_fell_back=False, chosen_message=index,
                            chosen_codeword=index, tied=1, latency_ns=100))
    server = ObsServer(port=0).start()
    try:
        yield server, registry, log
    finally:
        server.stop()


def _get(server: ObsServer, path: str) -> tuple[int, str, str]:
    try:
        with urllib.request.urlopen(server.url + path, timeout=5) as response:
            return (response.status, response.headers["Content-Type"],
                    response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, error.headers["Content-Type"], \
            error.read().decode("utf-8")


class TestEndpoints:
    def test_metrics_is_valid_exposition(self, served):
        server, _, _ = served
        status, content_type, body = _get(server, "/metrics")
        assert status == 200
        assert content_type == promtext.CONTENT_TYPE
        families = promtext.parse_exposition(body)
        assert families["swdecc_recoveries"].sample_value("_total") == 3
        assert families[
            "sweep_progress_patterns_done"
        ].sample_value() == 5.0

    def test_metrics_json_mirrors_registry(self, served):
        server, registry, _ = served
        status, content_type, body = _get(server, "/metrics.json")
        assert status == 200
        assert content_type == "application/json"
        assert json.loads(body) == registry.as_dict()

    def test_events_returns_json_lines(self, served):
        server, _, log = served
        status, content_type, body = _get(server, "/events")
        assert status == 200
        assert content_type == "application/x-ndjson"
        lines = [json.loads(line) for line in body.splitlines()]
        assert len(lines) == 4
        assert [entry["received"] for entry in lines] == [0, 1, 2, 3]

    def test_events_limit_keeps_newest(self, served):
        server, _, _ = served
        _, _, body = _get(server, "/events?limit=2")
        lines = [json.loads(line) for line in body.splitlines()]
        assert [entry["received"] for entry in lines] == [2, 3]

    @pytest.mark.parametrize("raw", ["soon", "0", "-3", "1.5"])
    def test_events_bad_limit_is_400_json(self, served, raw):
        server, _, _ = served
        status, content_type, body = _get(server, f"/events?limit={raw}")
        assert status == 400
        assert content_type == "application/json"
        error = json.loads(body)
        assert "bad limit" in error["error"]
        assert "positive integer" in error["error"]

    def test_spans_reports_tracing_disabled(self, served):
        server, _, _ = served
        status, _, body = _get(server, "/spans")
        assert status == 200
        assert json.loads(body) == {"tracing": False, "stages": {}}

    def test_healthz(self, served):
        server, _, _ = served
        status, _, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_unknown_path_is_404(self, served):
        server, _, _ = served
        status, _, body = _get(server, "/nope")
        assert status == 404
        assert "no such endpoint" in body

    def test_scrape_sees_live_updates(self, served):
        server, registry, _ = served
        registry.counter("swdecc.recoveries").inc(10)
        _, _, body = _get(server, "/metrics")
        families = promtext.parse_exposition(body)
        assert families["swdecc_recoveries"].sample_value("_total") == 13


class TestTraceEndpoints:
    @pytest.fixture()
    def traced(self, served):
        from repro.obs import trace as obs_trace

        collector = obs_trace.enable_tracing(obs_trace.SpanCollector())
        try:
            yield served[0], collector
        finally:
            obs_trace.disable_tracing()

    @staticmethod
    def _finish_request(collector, trace_id: str, duration_ns: int):
        from repro.obs.trace import Span

        collector.record_trace([
            Span(
                name="service.stage.shard_exec", start_ns=10,
                end_ns=duration_ns - 10, depth=1, span_id=2, parent_id=1,
                trace_id=trace_id,
            ),
            Span(
                name="service.request", start_ns=0, end_ns=duration_ns,
                depth=0, span_id=1, parent_id=None, trace_id=trace_id,
            ),
        ], root_span_id=1)

    def test_spans_json_returns_forest(self, traced):
        server, _ = traced
        from repro.obs.trace import span
        with span("outer"):
            with span("inner"):
                pass
        status, content_type, body = _get(server, "/spans?format=json")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["tracing"] is True
        assert payload["span_count"] == 2
        assert payload["dropped"] == 0
        (root,) = payload["spans"]
        assert root["name"] == "outer"
        assert [c["name"] for c in root["children"]] == ["inner"]

    def test_spans_summary_still_default(self, traced):
        server, _ = traced
        from repro.obs.trace import span
        with span("stage"):
            pass
        _, _, body = _get(server, "/spans")
        payload = json.loads(body)
        assert payload["tracing"] is True
        assert payload["stages"]["stage"]["count"] == 1

    def test_spans_bad_format_is_400(self, traced):
        server, _ = traced
        status, content_type, body = _get(server, "/spans?format=xml")
        assert status == 400
        assert content_type == "application/json"
        assert "bad format" in json.loads(body)["error"]

    def test_traces_lists_slowest_first(self, traced):
        server, collector = traced
        self._finish_request(collector, "aa" * 16, 1_000_000)
        self._finish_request(collector, "bb" * 16, 5_000_000)
        status, content_type, body = _get(server, "/traces")
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["tracing"] is True
        assert payload["count"] == 2
        assert [t["trace_id"] for t in payload["traces"]] == \
            ["bb" * 16, "aa" * 16]
        root = payload["traces"][0]["root"]
        assert root["name"] == "service.request"
        assert [c["name"] for c in root["children"]] == \
            ["service.stage.shard_exec"]

    def test_traces_limit(self, traced):
        server, collector = traced
        for index in range(3):
            self._finish_request(
                collector, f"{index:032x}", (index + 1) * 1_000
            )
        _, _, body = _get(server, "/traces?limit=1")
        payload = json.loads(body)
        assert payload["count"] == 1
        assert payload["traces"][0]["trace_id"] == f"{2:032x}"

    def test_traces_bad_limit_is_400(self, traced):
        server, _ = traced
        status, _, body = _get(server, "/traces?limit=zero")
        assert status == 400
        assert "bad limit" in json.loads(body)["error"]

    def test_traces_with_tracing_disabled(self, served):
        server, _, _ = served
        status, _, body = _get(server, "/traces")
        assert status == 200
        assert json.loads(body) == {
            "tracing": False, "count": 0, "traces": [],
        }


class TestLifecycle:
    def test_port_zero_resolves_to_real_port(self, served):
        server, _, _ = served
        assert server.port != 0
        assert server.url == f"http://127.0.0.1:{server.port}"
        assert server.running

    def test_double_start_raises(self, served):
        server, _, _ = served
        with pytest.raises(ObservabilityError, match="already running"):
            server.start()

    def test_stop_is_idempotent_and_releases(self, served):
        server, _, _ = served
        server.stop()
        assert not server.running
        server.stop()  # no error

    def test_context_manager(self, obs_swap):
        with ObsServer(port=0) as server:
            status, _, _ = _get(server, "/healthz")
            assert status == 200
        assert not server.running

    def test_idle_stop_is_quick(self, obs_swap):
        """stop() waits for the serving thread's next shutdown check,
        so an idle server stops in well under the stdlib's 0.5 s poll
        (best of three, which rides out a descheduled thread)."""
        stops = []
        for _ in range(3):
            server = ObsServer(port=0).start()
            time.sleep(0.05)  # let serve_forever enter its wait
            start = time.perf_counter()
            server.stop()
            stops.append(time.perf_counter() - start)
        assert min(stops) < 0.2, stops
