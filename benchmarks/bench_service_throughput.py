"""Recovery-service throughput benchmark: the online path's report card.

Self-hosts a :class:`repro.service.RecoveryService` on an ephemeral
port and drives it with the closed-loop load generator
(:mod:`repro.service.loadgen` — the same methodology as
``scripts/service_loadgen.py``): N client threads over kept-alive
connections, each sending its next ``POST /recover/batch`` only after
the previous answered.  A warm-up pass populates the engine's
decision rows and the served-answer cache first, so the gate measures
steady state.

Three configurations run, and each must sustain at least 20,000
recovered words per second end-to-end (HTTP parse -> queue ->
micro-batch -> engine -> JSON response):

- in-process execution with the historical 64-word requests (the
  longest-running comparison in the history file);
- in-process with 256-word requests (amortizes per-request HTTP cost,
  the configuration that demonstrates the 100k+ words/s headline);
- pre-forked shards (``workers`` = all available cores) with 256-word
  requests, proving the multi-process path carries its IPC cost.

Every run appends throughput plus p50/p90/p99 request latency —
tagged with ``workers`` and load ``mode`` — to ``BENCH_service.json``
at the repo root so regressions are visible in history.
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

from benchmarks.conftest import emit
from repro.service import RecoveryService
from repro.service.loadgen import generate_due_words, run_load

MIN_WORDS_PER_SECOND = 20000.0
CLIENTS = 4
REQUESTS_PER_CLIENT = 40
CONTEXT = "mcf"
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: (workers, words_per_request) per measured configuration.
CONFIGS = (
    (0, 64),
    (0, 256),
    (max(1, os.cpu_count() or 1), 256),
)


def _append_history(record) -> None:
    history = []
    if RESULTS_PATH.exists():
        try:
            history = json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    RESULTS_PATH.write_text(json.dumps(history, indent=2) + "\n")


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
        record = {
            "timestamp": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "tool": "bench_service_throughput",
            "workers": workers,
            "context": CONTEXT,
            "words_per_request": words_per_request,
            **result.to_record(),
        }
        _append_history(record)
        latency = record["latency_ms"]
        lines.append(
            f"workers={workers} wpr={words_per_request:4d} : "
            f"{result.throughput_words_per_s:9.0f} words/s  "
            f"p50 {latency['p50']:6.2f} ms  p90 {latency['p90']:6.2f} ms  "
            f"p99 {latency['p99']:6.2f} ms  "
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
                f"history       : {RESULTS_PATH.name}",
            ]
        ),
    )
    assert not failures, "; ".join(failures)
