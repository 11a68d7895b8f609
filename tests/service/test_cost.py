"""Per-request cost attribution in the recovery service.

``RecoveryService(report_cost=True)`` attaches an op-count/joule
``cost`` block to every successful ``/recover`` and ``/recover/batch``
response; the default leaves responses byte-compatible with older
clients.  Batch-level ``service.batch_ops`` / ``service.batch_joules``
histograms record energy per executed micro-batch in both modes.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import pytest

from repro.service import RecoveryService, ServiceCatalog
from repro.service.catalog import DEFAULT_CODE_ID


def post(url: str, payload: dict, timeout: float = 10.0):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.load(response)


@pytest.fixture(scope="module")
def due_word():
    catalog = ServiceCatalog()
    code = catalog.code(DEFAULT_CODE_ID)
    return code.encode(0xDEADBEEF) ^ 0b101


def _service(**kwargs):
    return RecoveryService(port=0, **kwargs)


@pytest.mark.usefixtures("obs_swap")
class TestCostReporting:
    def test_cost_block_attached_when_enabled(self, due_word):
        with _service(report_cost=True) as svc:
            status, body = post(
                svc.url + "/recover", {"received": due_word}
            )
        assert status == 200
        cost = body["cost"]
        assert cost["joules"] > 0
        assert cost["joules_per_word"] == pytest.approx(cost["joules"])
        assert cost["ops"]  # at least one op class charged
        assert all(count > 0 for count in cost["ops"].values())
        assert cost["ops"]["ops.syndrome_computes"] >= 1

    def test_batch_cost_covers_all_words(self, due_word):
        with _service(report_cost=True) as svc:
            code = svc.catalog.code(DEFAULT_CODE_ID)
            words = [code.encode(m) ^ 0b11 for m in (1, 2, 3)]
            status, body = post(
                svc.url + "/recover/batch", {"received": words}
            )
        assert status == 200
        cost = body["cost"]
        assert cost["joules_per_word"] == pytest.approx(
            cost["joules"] / len(words)
        )

    def test_cost_absent_by_default(self, due_word):
        with _service() as svc:
            status, body = post(
                svc.url + "/recover", {"received": due_word}
            )
        assert status == 200
        assert "cost" not in body

    def test_batch_histograms_recorded_regardless(self, obs_swap, due_word):
        with _service() as svc:
            post(svc.url + "/recover", {"received": due_word})
            registry = obs_swap.registry
            ops = registry.get("service.batch_ops")
            joules = registry.get("service.batch_joules")
            assert ops.count == 1
            assert ops.sum > 0
            assert joules.count == 1
            assert joules.sum > 0

    def test_degraded_responses_never_carry_cost(self, due_word):
        # The executor blocks until the request has timed out, so the
        # response always degrades to detect-only.
        gate = threading.Event()
        svc = _service(report_cost=True)
        real_execute = svc._engine.execute

        def gated(requests):
            gate.wait(10.0)
            return real_execute(requests)

        svc._batcher._execute = gated
        with svc:
            try:
                status, body = post(
                    svc.url + "/recover",
                    {"received": due_word, "timeout_ms": 50},
                )
            finally:
                gate.set()
        assert status == 200
        assert body["degraded"] is True
        assert body["reason"] == "timeout"
        assert "cost" not in body
