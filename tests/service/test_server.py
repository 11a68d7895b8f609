"""RecoveryService HTTP behaviour: API, degradation, shared metrics."""

from __future__ import annotations

import http.client
import json
import multiprocessing
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.obs import trace as obs_trace
from repro.obs.promtext import parse_exposition
from repro.service import RecoveryService, ServiceCatalog
from repro.service.api import RecoveryRequest
from repro.service.catalog import DEFAULT_CODE_ID


def post(url: str, payload: dict | str, timeout: float = 10.0):
    """POST JSON (a payload, or raw JSON text), returning (status,
    parsed body, headers)."""
    text = payload if isinstance(payload, str) else json.dumps(payload)
    request = urllib.request.Request(
        url,
        data=text.encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.load(response), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.load(error), dict(error.headers)


def get(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.status, response.read().decode()


@pytest.fixture()
def service(obs_swap):
    with RecoveryService(port=0) as svc:
        yield svc


@pytest.fixture(scope="module")
def due_word():
    """A double-bit-error word over the canonical code."""
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    return code.encode(0xDEADBEEF) ^ 0b101


class TestRecoverEndpoints:
    def test_single_recover(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover", {"received": due_word}
        )
        assert status == 200
        assert body["degraded"] is False
        result = body["result"]
        assert result["status"] == "recovered"
        assert result["received"] == due_word
        assert isinstance(result["chosen_message"], int)
        assert result["targets"]  # ranked list is present
        chosen = [t for t in result["targets"] if t["chosen"]]
        assert len(chosen) == 1
        assert chosen[0]["message"] == result["chosen_message"]

    def test_single_recover_hex_string(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover", {"received": hex(due_word)}
        )
        assert status == 200
        assert body["result"]["received"] == due_word

    @pytest.mark.parametrize("batch", [False, True], ids=["single", "batch"])
    def test_word_spellings_parse_to_equal_requests(self, batch):
        # A parsed request carries its words, not the client's spelling
        # of them: "0x1f" and 31 are one recovery job.
        def parse(word):
            return RecoveryRequest.from_json(
                {"received": [word] if batch else word},
                batch=batch,
                width_for=lambda code_id: 39,
            )

        assert parse("0x1f") == parse(31)

    def test_batch_recover_preserves_order(self, service, due_word):
        catalog = service.catalog
        code = catalog.code(DEFAULT_CODE_ID)
        words = [code.encode(m) ^ 0b11 for m in (1, 2**31, 0xABCD)]
        status, body, _ = post(
            service.url + "/recover/batch",
            {"received": words, "context": "mcf"},
        )
        assert status == 200
        assert body["words"] == len(words)
        assert [r["received"] for r in body["results"]] == words

    def test_non_due_word_reports_error_status(self, service):
        code = service.catalog.code(DEFAULT_CODE_ID)
        clean = code.encode(42)  # no error: not a DUE
        status, body, _ = post(service.url + "/recover", {"received": clean})
        assert status == 200
        assert body["result"]["status"] == "error"

    def test_mixed_batch_isolates_per_word_failures(self, service, due_word):
        code = service.catalog.code(DEFAULT_CODE_ID)
        clean = code.encode(7)
        status, body, _ = post(
            service.url + "/recover/batch", {"received": [due_word, clean]}
        )
        assert status == 200
        statuses = [r["status"] for r in body["results"]]
        assert statuses == ["recovered", "error"]

    def test_unknown_code_is_400(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover",
            {"received": due_word, "code": "lol-999"},
        )
        assert status == 400
        assert "unknown code id" in body["error"]

    def test_unknown_context_is_400(self, service, due_word):
        status, body, _ = post(
            service.url + "/recover",
            {"received": due_word, "context": "nope"},
        )
        assert status == 400
        assert "unknown context id" in body["error"]

    def test_unknown_field_is_400(self, service):
        status, body, _ = post(service.url + "/recover", {"wat": 1})
        assert status == 400
        assert "unknown request field" in body["error"]

    def test_oversized_word_is_400(self, service):
        status, body, _ = post(service.url + "/recover", {"received": 1 << 60})
        assert status == 400
        assert "does not fit" in body["error"]

    def test_empty_batch_is_400(self, service):
        status, body, _ = post(
            service.url + "/recover/batch", {"received": []}
        )
        assert status == 400

    @pytest.mark.parametrize(
        "timeout_ms, error",
        [
            ("Infinity", "'timeout_ms' must be a positive number"),
            ("-Infinity", "'timeout_ms' must be a positive number"),
            ("NaN", "'timeout_ms' must be a positive number"),
            ("1e400", "'timeout_ms' must be a positive number"),
            ("1e300", "'timeout_ms' must be at most"),
            ("1" + "0" * 300, "'timeout_ms' must be at most"),
        ],
        ids=["inf", "-inf", "nan", "1e400", "1e300", "10**300"],
    )
    def test_unusable_timeout_is_400(
        self, service, obs_swap, due_word, timeout_ms, error
    ):
        status, body, _ = post(
            service.url + "/recover",
            f'{{"received": {due_word}, "timeout_ms": {timeout_ms}}}',
        )
        assert status == 400
        assert body["error"].startswith(error)
        assert obs_swap.registry.get("service.timeouts").value == 0

    @pytest.mark.parametrize("path", ["/recover", "/recover/batch"])
    def test_integer_past_digit_limit_is_400(self, service, path):
        digits = "7" * 5000  # past the interpreter's 4,300-digit limit
        received = f"[{digits}]" if path.endswith("batch") else digits
        status, body, _ = post(
            service.url + path, f'{{"received": {received}}}'
        )
        assert status == 400
        assert body["error"].startswith("request body is not valid JSON")

    @pytest.mark.parametrize("path", ["/recover", "/recover/batch"])
    @pytest.mark.parametrize("wrapped", [False, True], ids=["bare", "field"])
    def test_deeply_nested_json_is_400(self, service, path, wrapped):
        nested = "[" * 100_000 + "]" * 100_000
        text = f'{{"received": {nested}}}' if wrapped else nested
        status, body, _ = post(service.url + path, text)
        assert status == 400
        assert body["error"].startswith("request body is not valid JSON")

    def test_unknown_post_path_is_404(self, service):
        status, body, _ = post(service.url + "/nope", {"received": 1})
        assert status == 404

    def test_unread_body_closes_keep_alive_connection(
        self, service, due_word
    ):
        """A 404'd body is never read, so the service closes the
        connection instead of parsing that body as the next request."""
        body = json.dumps({"received": due_word})
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=10
        )
        try:
            connection.request("POST", "/nope", body=body)
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            assert response.getheader("Connection") == "close"
            connection.request("POST", "/recover", body=body)
            response = connection.getresponse()
            assert response.status == 200
            assert json.load(response)["result"]["received"] == due_word
        finally:
            connection.close()


class TestSharedObservability:
    def test_metrics_exposes_service_families(self, service, due_word):
        post(service.url + "/recover", {"received": due_word})
        status, text = get(service.url + "/metrics")
        assert status == 200
        families = parse_exposition(text)
        names = set(families)
        assert "service_requests" in names
        assert "service_recoveries" in names
        assert "service_queue_depth" in names
        assert "service_batch_words" in names
        assert "service_request_seconds" in names
        assert families["service_requests"].type == "counter"

    def test_healthz_reports_queue_state(self, service):
        status, text = get(service.url + "/healthz")
        assert status == 200
        body = json.loads(text)
        assert body["status"] == "ok"
        assert body["queue_limit"] == service.batcher.queue_limit
        assert body["overload_policy"] == "degrade"

    def test_unknown_get_path_is_404(self, service):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(service.url + "/nope")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_registry_carries_engine_families(self, obs_swap, workers):
        """Engines, collectors and the service share the swapped-in
        registry and log, in-process or merged home from shards."""
        catalog = ServiceCatalog()
        code = catalog.code(DEFAULT_CODE_ID)
        words = [code.encode(0x1000 + index) ^ 0b101 for index in range(8)]
        with RecoveryService(catalog, port=0, workers=workers) as svc:
            for _ in range(2):  # the replay is answered from the cache
                status, _, _ = post(
                    svc.url + "/recover/batch", {"received": words}
                )
                assert status == 200
            _, text = get(svc.url + "/metrics")
            _, events = get(svc.url + "/events")
        families = parse_exposition(text)
        for name in (
            "swdecc_recoveries", "ops_xor", "decode_table_builds",
            "energy_joules_total", "service_result_cache_hit_rate",
        ):
            assert name in families, name
        recoveries = families["swdecc_recoveries"].sample_value("_total")
        assert recoveries == len(words)
        assert families["energy_joules_total"].sample_value() > 0
        assert families[
            "service_result_cache_hit_rate"
        ].sample_value() == 0.5
        if workers == 0:
            assert len(events.splitlines()) == recoveries
        else:
            # Shard event rings stay remote; their digests come home.
            assert obs_swap.log.absorbed_digest.count == recoveries


@pytest.mark.usefixtures("obs_swap")
class TestDegradation:
    def _gated_service(self, policy: str, gate: threading.Event):
        """A service whose engine work blocks on *gate* (tiny queue)."""
        svc = RecoveryService(
            port=0,
            queue_limit=1,
            max_batch=1,
            overload_policy=policy,
        )
        real_execute = svc._engine.execute

        def gated(requests):
            gate.wait(10.0)
            return real_execute(requests)

        svc._batcher._execute = gated
        return svc

    def _saturate(self, svc, due_word):
        """Park one job in the worker and fill the queue with another.

        Direct batcher submissions make this deterministic: we wait
        for the worker to claim the parked job, then occupy the whole
        (1-word) queue, so the next HTTP request must overload.
        """
        import time

        parked = svc.batcher.submit(RecoveryRequest(words=(due_word,)))
        deadline = time.monotonic() + 5.0
        while svc.batcher.queued_words() and time.monotonic() < deadline:
            time.sleep(0.005)  # worker claims the parked job
        assert svc.batcher.queued_words() == 0
        filler = svc.batcher.submit(RecoveryRequest(words=(due_word,)))
        assert svc.batcher.queued_words() == 1
        return parked, filler

    def test_overload_degrades_to_detect_only(self, obs_swap, due_word):
        gate = threading.Event()
        svc = self._gated_service("degrade", gate)
        with svc:
            parked, filler = self._saturate(svc, due_word)
            status, body, _ = post(
                svc.url + "/recover", {"received": due_word}
            )
            gate.set()
            parked_result = parked.result(timeout=15.0)
            filler_result = filler.result(timeout=15.0)
        assert status == 200
        assert body["degraded"] is True
        assert body["reason"] == "overload"
        assert body["result"]["status"] == "detect-only"
        assert body["result"]["received"] == due_word
        assert body["retry_after_s"] > 0
        # The parked jobs still recovered once the gate lifted.
        assert (
            json.loads(parked_result["fragments"][0])["status"] == "recovered"
        )
        assert (
            json.loads(filler_result["fragments"][0])["status"] == "recovered"
        )
        assert obs_swap.registry.get("service.degraded").value == 1.0

    def test_overload_reject_policy_returns_429(self, obs_swap, due_word):
        gate = threading.Event()
        svc = self._gated_service("reject", gate)
        with svc:
            parked, filler = self._saturate(svc, due_word)
            status, body, headers = post(
                svc.url + "/recover", {"received": due_word}
            )
            gate.set()
            parked.result(timeout=15.0)
            filler.result(timeout=15.0)
        assert status == 429
        assert body["error"] == "overloaded"
        assert int(headers["Retry-After"]) >= 1
        assert obs_swap.registry.get("service.rejections").value == 1.0

    def test_timeout_degrades_to_detect_only(self, obs_swap, due_word):
        gate = threading.Event()
        svc = self._gated_service("degrade", gate)
        try:
            with svc:
                status, body, _ = post(
                    svc.url + "/recover",
                    {"received": due_word, "timeout_ms": 50},
                )
                gate.set()
            assert status == 200
            assert body["degraded"] is True
            assert body["reason"] == "timeout"
            assert body["result"]["status"] == "detect-only"
            assert obs_swap.registry.get("service.timeouts").value == 1.0
        finally:
            gate.set()

    @staticmethod
    def _retained_tree(collector, headers) -> dict:
        """The /traces tree of the request that answered *headers*."""
        import time

        context = obs_trace.parse_traceparent(headers["traceparent"])
        deadline = time.monotonic() + 10.0
        entry = collector.traces.get(context.trace_id)
        while entry is None and time.monotonic() < deadline:
            time.sleep(0.005)  # the root is recorded after the reply
            entry = collector.traces.get(context.trace_id)
        assert entry is not None
        tree = entry.as_dict()
        root = tree["root"]
        assert root["name"] == "service.request"
        for child in root["children"]:
            assert child["parent_id"] == root["span_id"]
            assert child["children"] == []
        assert tree["span_count"] == 1 + len(root["children"])
        return tree

    def test_timed_out_request_trace_has_no_execution_spans(
        self, due_word
    ):
        """The batch finishes after the degraded answer went out; its
        queue and execution spans never join the request's trace."""
        gate = threading.Event()
        svc = self._gated_service("degrade", gate)
        collector = obs_trace.enable_tracing(obs_trace.SpanCollector())
        try:
            with svc:
                status, body, headers = post(
                    svc.url + "/recover",
                    {"received": due_word, "timeout_ms": 50},
                )
                gate.set()
            assert (status, body["reason"]) == (200, "timeout")
            tree = self._retained_tree(collector, headers)
        finally:
            gate.set()
            obs_trace.disable_tracing()
        assert [c["name"] for c in tree["root"]["children"]] == [
            "service.stage.serialize", "service.stage.respond",
        ]

    def test_overload_degraded_request_trace_is_root_and_respond(
        self, due_word
    ):
        gate = threading.Event()
        svc = self._gated_service("degrade", gate)
        collector = obs_trace.enable_tracing(obs_trace.SpanCollector())
        try:
            with svc:
                parked, filler = self._saturate(svc, due_word)
                status, body, headers = post(
                    svc.url + "/recover", {"received": due_word}
                )
                gate.set()
                parked.result(timeout=15.0)
                filler.result(timeout=15.0)
            assert (status, body["reason"]) == (200, "overload")
            tree = self._retained_tree(collector, headers)
        finally:
            gate.set()
            obs_trace.disable_tracing()
        assert [c["name"] for c in tree["root"]["children"]] == [
            "service.stage.respond",
        ]


class TestLifecycleAndValidation:
    def test_bad_policy_raises(self):
        with pytest.raises(ServiceError):
            RecoveryService(overload_policy="panic")

    def test_bad_timeout_raises(self):
        with pytest.raises(ServiceError):
            RecoveryService(default_timeout_s=0)

    def test_stop_is_idempotent(self, obs_swap):
        svc = RecoveryService(port=0)
        svc.start()
        svc.stop()
        svc.stop()
        assert not svc.running

    def test_double_start_raises(self, obs_swap):
        svc = RecoveryService(port=0)
        svc.start()
        try:
            with pytest.raises(ServiceError):
                svc.start()
        finally:
            svc.stop()

    @pytest.mark.parametrize("workers", [0, 1])
    def test_failed_start_leaves_nothing_running(self, obs_swap, workers):
        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            svc = RecoveryService(port=busy.getsockname()[1], workers=workers)
            for _ in range(2):  # a retry must not fork a second pool
                with pytest.raises(OSError):
                    svc.start()
                assert not svc.running
                assert svc.shard_pool is None
                assert not svc.catalog.frozen
                assert set(threading.enumerate()) <= threads_before
                assert set(multiprocessing.active_children()) <= (
                    children_before
                )
        with svc:  # the port is free again: the same service starts
            status, _ = get(svc.url + "/healthz")
        assert status == 200

    def test_port_zero_resolves(self, service):
        assert service.port != 0
        assert str(service.port) in service.url
