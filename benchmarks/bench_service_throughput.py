"""Recovery-service throughput benchmark: the online path's report card.

Self-hosts a :class:`repro.service.RecoveryService` on an ephemeral
port and drives it with the closed-loop load generator
(:mod:`repro.service.loadgen` — the same methodology as
``scripts/service_loadgen.py``): N client threads over kept-alive
connections, each sending its next ``POST /recover/batch`` only after
the previous answered.  A warm-up pass populates the engine's
decision rows and the served-answer cache first, so every measured
word is answered from that cache: this gate times HTTP, queueing and
the cache, and ``bench_serving_engine.py`` times the engine on words
it has not seen.

Three configurations run, and each must sustain at least 20,000
recovered words per second end-to-end (HTTP parse -> queue ->
micro-batch -> engine -> JSON response):

- in-process execution with 64-word requests (the request size the
  loadgen sends by default);
- in-process with 256-word requests (amortizes per-request HTTP cost,
  the configuration that demonstrates the 100k+ words/s headline);
- pre-forked shards (``workers`` = all available cores) with 256-word
  requests, proving the multi-process path carries its IPC cost.

Every run prints throughput plus p50/p90/p99 request latency per
configuration and writes no file; ``perfbench/run.py`` keeps the
provenance-stamped performance record, on words that never repeat.
"""

from __future__ import annotations

import os

from benchmarks.conftest import emit
from repro.service import RecoveryService
from repro.service.loadgen import generate_due_words, run_load

MIN_WORDS_PER_SECOND = 20000.0
CLIENTS = 4
REQUESTS_PER_CLIENT = 40
CONTEXT = "mcf"

#: (workers, words_per_request) per measured configuration.
CONFIGS = (
    (0, 64),
    (0, 256),
    (max(1, os.cpu_count() or 1), 256),
)


def _measure(workers: int, words_per_request: int, words):
    service = RecoveryService(port=0, max_batch=1024, workers=workers)
    service.catalog.preload([CONTEXT])  # before start: shards fork warm
    with service:
        # Warm-up: populate the engines' decision rows and the
        # served-answer cache so the gate measures steady state, not
        # first-touch compute.
        run_load(
            "127.0.0.1", service.port,
            clients=2, requests_per_client=8,
            words_per_request=words_per_request,
            context=CONTEXT, words=words,
        )
        return run_load(
            "127.0.0.1", service.port,
            clients=CLIENTS, requests_per_client=REQUESTS_PER_CLIENT,
            words_per_request=words_per_request,
            context=CONTEXT, words=words,
        )


def test_service_sustains_20k_recoveries_per_second():
    words = generate_due_words()
    lines = []
    failures = []
    for workers, words_per_request in CONFIGS:
        result = _measure(workers, words_per_request, words)
        lines.append(
            f"workers={workers} wpr={words_per_request:4d} : "
            f"{result.throughput_words_per_s:9.0f} words/s  "
            f"p50 {result.latency_ms(0.50):6.2f} ms  "
            f"p90 {result.latency_ms(0.90):6.2f} ms  "
            f"p99 {result.latency_ms(0.99):6.2f} ms  "
            f"({result.degraded} degraded, {result.http_errors} errors)"
        )
        if result.http_errors:
            failures.append(
                f"workers={workers}: {result.http_errors} HTTP errors"
            )
        if not result.recovered:
            failures.append(f"workers={workers}: no words were recovered")
        if result.throughput_words_per_s < MIN_WORDS_PER_SECOND:
            failures.append(
                f"workers={workers} wpr={words_per_request}: sustained "
                f"only {result.throughput_words_per_s:.0f} words/s; the "
                f"online path promises >= {MIN_WORDS_PER_SECOND:.0f}/s"
            )

    emit(
        "Performance | recovery-service throughput (closed-loop HTTP)",
        "\n".join(
            [
                f"workload      : {CLIENTS} clients x "
                f"{REQUESTS_PER_CLIENT} requests, context={CONTEXT}",
                *lines,
            ]
        ),
    )
    assert not failures, "; ".join(failures)
