"""Load-generator helpers: word synthesis, percentiles, closed loop."""

from __future__ import annotations

import pytest

from repro.ecc import canonical_secded_39_32
from repro.ecc.code import DecodeStatus
from repro.service import RecoveryService
from repro.service.loadgen import generate_due_words, percentile, run_load


class TestGenerateDueWords:
    def test_every_word_is_a_true_due(self):
        code = canonical_secded_39_32()
        for word in generate_due_words(code, count=64, seed=3):
            assert 0 <= word < (1 << code.n)
            assert code.decode(word).status is DecodeStatus.DUE

    def test_generation_is_seed_deterministic(self):
        assert generate_due_words(count=32, seed=9) == \
            generate_due_words(count=32, seed=9)
        assert generate_due_words(count=32, seed=9) != \
            generate_due_words(count=32, seed=10)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.99) == 0.0

    def test_single_value(self):
        assert percentile([4.2], 0.5) == 4.2
        assert percentile([4.2], 0.99) == 4.2

    def test_quantiles_of_a_range(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 1.00) == 100.0


@pytest.mark.usefixtures("obs_swap")
class TestRunLoad:
    def test_closed_loop_against_live_service(self):
        words = generate_due_words(count=32, seed=5)
        service = RecoveryService(port=0)
        with service:
            result = run_load(
                "127.0.0.1", service.port,
                clients=2, requests_per_client=3,
                words_per_request=4, context="none", words=words,
            )
        assert result.requests == 6
        assert result.words == 24
        assert result.recovered == 24
        assert result.http_errors == 0
        assert result.wall_s > 0
        assert result.throughput_words_per_s > 0
        assert len(result.latencies_s) == 6
        record = result.to_record()
        assert record["latency_ms"]["p50"] <= record["latency_ms"]["p99"]

    def test_clients_never_resend_a_word_from_a_large_pool(self):
        """Each client walks its own slice of the pool, so a pool larger
        than everything sent yields a stream of distinct words."""
        words = generate_due_words(count=64, seed=13)
        service = RecoveryService(port=0)
        sent: list[int] = []
        real_execute = service._engine.execute

        def recording(requests):
            for request in requests:
                sent.extend(request.words)
            return real_execute(requests)

        service._batcher._execute = recording
        with service:
            result = run_load(
                "127.0.0.1", service.port,
                clients=3, requests_per_client=4,
                words_per_request=5, context="none", words=words,
            )
        assert result.words == 60
        assert len(sent) == 60
        assert len(set(sent)) == 60

    def test_more_clients_than_words(self):
        words = generate_due_words(count=2, seed=17)
        service = RecoveryService(port=0)
        with service:
            result = run_load(
                "127.0.0.1", service.port,
                clients=3, requests_per_client=2,
                words_per_request=3, context="none", words=words,
            )
        assert result.requests == 6
        assert result.recovered == 18
        assert result.http_errors == 0

    def test_slowest_traces_name_retained_server_traces(self):
        """The generator's slow-request trace ids resolve in the
        service's /traces buffer when it serves with tracing on."""
        from repro.obs import trace as obs_trace

        words = generate_due_words(count=16, seed=11)
        collector = obs_trace.enable_tracing(obs_trace.SpanCollector())
        service = RecoveryService(port=0)
        try:
            with service:
                result = run_load(
                    "127.0.0.1", service.port,
                    clients=2, requests_per_client=3,
                    words_per_request=2, context="none", words=words,
                )
        finally:
            obs_trace.disable_tracing()
        assert len(result.traced_latencies) == 6
        slowest = result.slowest_traces(3)
        assert len(slowest) == 3
        latencies = [entry["latency_ms"] for entry in slowest]
        assert latencies == sorted(latencies, reverse=True)
        assert result.to_record()["slowest_traces"] == \
            result.slowest_traces()
        for entry in slowest:
            assert obs_trace.parse_traceparent(
                f"00-{entry['trace_id']}-{'ab' * 8}-01"
            ) is not None  # well-formed W3C trace id
            # The id the generator reports is the id the service
            # staged: the slow request is directly inspectable.
            assert collector.traces.get(entry["trace_id"]) is not None
