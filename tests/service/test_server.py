"""RecoveryService HTTP behaviour: API, degradation, shared metrics."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ServiceError
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import parse_exposition
from repro.service import RecoveryService, ServiceCatalog
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
def service():
    svc = RecoveryService(
        port=0, registry=MetricsRegistry(), event_log=EventLog()
    )
    with svc:
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
        self, service, due_word, timeout_ms, error
    ):
        status, body, _ = post(
            service.url + "/recover",
            f'{{"received": {due_word}, "timeout_ms": {timeout_ms}}}',
        )
        assert status == 400
        assert body["error"].startswith(error)
        assert service.registry.get("service.timeouts").value == 0

    @pytest.mark.parametrize("path", ["/recover", "/recover/batch"])
    def test_integer_past_digit_limit_is_400(self, service, path):
        digits = "7" * 5000  # past the interpreter's 4,300-digit limit
        received = f"[{digits}]" if path.endswith("batch") else digits
        status, body, _ = post(
            service.url + path, f'{{"received": {received}}}'
        )
        assert status == 400
        assert body["error"].startswith("request body is not valid JSON")

    def test_unknown_post_path_is_404(self, service):
        status, body, _ = post(service.url + "/nope", {"received": 1})
        assert status == 404


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


class TestDegradation:
    def _gated_service(self, policy: str, gate: threading.Event):
        """A service whose engine work blocks on *gate* (tiny queue)."""
        svc = RecoveryService(
            port=0,
            registry=MetricsRegistry(),
            event_log=EventLog(),
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

        from repro.service.api import RecoveryRequest

        parked = svc.batcher.submit(RecoveryRequest(words=(due_word,)))
        deadline = time.monotonic() + 5.0
        while svc.batcher.queued_words() and time.monotonic() < deadline:
            time.sleep(0.005)  # worker claims the parked job
        assert svc.batcher.queued_words() == 0
        filler = svc.batcher.submit(RecoveryRequest(words=(due_word,)))
        assert svc.batcher.queued_words() == 1
        return parked, filler

    def test_overload_degrades_to_detect_only(self, due_word):
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
        assert svc.registry.get("service.degraded").value == 1.0

    def test_overload_reject_policy_returns_429(self, due_word):
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
        assert svc.registry.get("service.rejections").value == 1.0

    def test_timeout_degrades_to_detect_only(self, due_word):
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
            assert svc.registry.get("service.timeouts").value == 1.0
        finally:
            gate.set()


class TestLifecycleAndValidation:
    def test_bad_policy_raises(self):
        with pytest.raises(ServiceError):
            RecoveryService(overload_policy="panic")

    def test_bad_timeout_raises(self):
        with pytest.raises(ServiceError):
            RecoveryService(default_timeout_s=0)

    def test_stop_is_idempotent(self):
        svc = RecoveryService(
            port=0, registry=MetricsRegistry(), event_log=EventLog()
        )
        svc.start()
        svc.stop()
        svc.stop()
        assert not svc.running

    def test_double_start_raises(self):
        svc = RecoveryService(
            port=0, registry=MetricsRegistry(), event_log=EventLog()
        )
        svc.start()
        try:
            with pytest.raises(ServiceError):
                svc.start()
        finally:
            svc.stop()

    def test_port_zero_resolves(self, service):
        assert service.port != 0
        assert str(service.port) in service.url
