"""Load generation for the DUE-recovery service, closed or open loop.

Drives ``POST /recover/batch`` from N client threads and reports
throughput plus p50/p90/p99 request latency, in one of two modes:

- **closed** (default) — each client issues its next request only
  after the previous one answered.  The offered load adapts to the
  service, which is the right shape for a capacity gate but *hides*
  queueing delay: a slow service simply receives fewer requests.
- **open** — requests fire on a fixed global schedule
  (``rate_rps``), interleaved round-robin across clients, whether or
  not earlier requests have answered.  Latency is measured from each
  request's *scheduled arrival time*, so time spent waiting behind a
  stalled connection counts against the service (the standard
  coordinated-omission correction) — this is the mode that tells the
  truth about tail latency under a target load.

Used by ``scripts/service_loadgen.py`` (standalone CLI) and
``benchmarks/bench_service_throughput.py`` (the throughput gate), so
both measure with identical methodology.

Clients reuse one :class:`http.client.HTTPConnection` each — the
service speaks HTTP/1.1 with Content-Length, so keep-alive works and
connection setup stays out of the measured latency.

Every request carries a generator-minted W3C ``traceparent`` header,
and :meth:`LoadResult.slowest_traces` reports the trace ids of the
slowest requests — when the service runs with tracing enabled, those
ids resolve in its ``GET /traces`` buffer (``repro trace <id>``), so
a latency outlier in a bench run can be decomposed into queue wait /
shard execution / serialization after the fact.
"""

from __future__ import annotations

import json
import math
import random
import socket
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from http.client import HTTPConnection

from repro.ecc import canonical_secded_39_32
from repro.ecc.code import LinearBlockCode

__all__ = ["LoadResult", "generate_due_words", "percentile", "run_load"]


def generate_due_words(
    code: LinearBlockCode | None = None,
    count: int = 512,
    seed: int = 7,
) -> list[int]:
    """*count* double-bit-error words over *code* (true DUEs)."""
    if code is None:
        code = canonical_secded_39_32()
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        message = rng.getrandbits(code.k)
        first = rng.randrange(code.n)
        second = rng.randrange(code.n - 1)
        if second >= first:
            second += 1
        words.append(code.encode(message) ^ (1 << first) ^ (1 << second))
    return words


def percentile(sorted_values: list[float], q: float) -> float:
    """The *q*-quantile (0..1) of pre-sorted *sorted_values*."""
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[min(index, len(sorted_values) - 1)]


@dataclass
class LoadResult:
    """Aggregate outcome of one load run."""

    clients: int
    mode: str = "closed"
    offered_rate_rps: float | None = None
    requests: int = 0
    words: int = 0
    recovered: int = 0
    degraded: int = 0
    rejected: int = 0
    word_errors: int = 0
    http_errors: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list, repr=False)
    #: ``(latency_s, trace_id)`` per answered request — the trace id
    #: the generator sent in the request's ``traceparent`` header, so
    #: a slow request here can be looked up in the service's
    #: ``GET /traces`` buffer (when it serves with tracing on).
    traced_latencies: list[tuple[float, str]] = field(
        default_factory=list, repr=False
    )

    @property
    def throughput_words_per_s(self) -> float:
        return self.words / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def throughput_requests_per_s(self) -> float:
        return self.requests / self.wall_s if self.wall_s > 0 else 0.0

    def latency_ms(self, q: float) -> float:
        return percentile(sorted(self.latencies_s), q) * 1e3

    def slowest_traces(self, n: int = 5) -> list[dict]:
        """The *n* slowest requests as ``{latency_ms, trace_id}``,
        slowest first — cross-reference them against the service's
        ``GET /traces`` (or ``repro trace <id>``) for the latency
        decomposition."""
        slowest = sorted(self.traced_latencies, reverse=True)[:n]
        return [
            {"latency_ms": round(latency * 1e3, 3), "trace_id": trace_id}
            for latency, trace_id in slowest
        ]

    def to_record(self) -> dict:
        """A JSON-ready summary (for ``BENCH_service.json`` history)."""
        return {
            "clients": self.clients,
            "mode": self.mode,
            "offered_rate_rps": self.offered_rate_rps,
            "requests": self.requests,
            "words": self.words,
            "recovered": self.recovered,
            "degraded": self.degraded,
            "rejected": self.rejected,
            "word_errors": self.word_errors,
            "http_errors": self.http_errors,
            "wall_seconds": round(self.wall_s, 3),
            "throughput_words_per_s": round(self.throughput_words_per_s, 1),
            "throughput_requests_per_s": round(
                self.throughput_requests_per_s, 1
            ),
            "latency_ms": {
                "p50": round(self.latency_ms(0.50), 3),
                "p90": round(self.latency_ms(0.90), 3),
                "p99": round(self.latency_ms(0.99), 3),
            },
            "slowest_traces": self.slowest_traces(),
        }


def _client_loop(
    host: str,
    port: int,
    requests: int,
    words: list[int],
    words_per_request: int,
    context: str,
    offset: int,
    result: LoadResult,
    lock: threading.Lock,
    errors: list[str],
    schedule: "Callable[[int], float] | None" = None,
) -> None:
    def connect() -> HTTPConnection:
        connection = HTTPConnection(host, port, timeout=30.0)
        connection.connect()
        # Request bodies are small; without TCP_NODELAY the closed loop
        # measures Nagle/delayed-ACK stalls instead of the service.
        connection.sock.setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
        return connection

    connection = connect()
    latencies: list[float] = []
    traced: list[tuple[float, str]] = []
    # A fresh trace id per request, minted with a seeded PRNG (the low
    # bit is pinned so the ids are never the all-zero value the W3C
    # format reserves).  os.urandom would cost a syscall per request;
    # the generator must never be slower than the service it measures.
    rng = random.Random(0x7ECC ^ offset)
    counted = dict(
        requests=0, words=0, recovered=0, degraded=0,
        rejected=0, word_errors=0, http_errors=0,
    )
    try:
        for index in range(requests):
            start = (offset + index * words_per_request) % len(words)
            batch = [
                words[(start + i) % len(words)]
                for i in range(words_per_request)
            ]
            body = json.dumps({"received": batch, "context": context})
            trace_id = f"{rng.getrandbits(128) | 1:032x}"
            headers = {
                "Content-Type": "application/json",
                "traceparent": (
                    f"00-{trace_id}-{rng.getrandbits(63) | 1:016x}-01"
                ),
            }
            if schedule is not None:
                # Open loop: fire at the scheduled arrival time, and
                # measure latency *from* it — a request delayed behind
                # a stalled predecessor charges that wait to the
                # service, not to the generator.
                due = schedule(index)
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                began = due
            else:
                began = time.perf_counter()
            try:
                connection.request(
                    "POST", "/recover/batch", body=body, headers=headers,
                )
                response = connection.getresponse()
                text = response.read().decode("utf-8")
            except Exception:
                # One reconnect per failure keeps a dropped keep-alive
                # from ending the client early.
                connection.close()
                connection = connect()
                counted["http_errors"] += 1
                continue
            elapsed = time.perf_counter() - began
            latencies.append(elapsed)
            traced.append((elapsed, trace_id))
            counted["requests"] += 1
            counted["words"] += len(batch)
            if response.status == 429:
                counted["rejected"] += 1
            elif response.status != 200:
                counted["http_errors"] += 1
            elif '"degraded": true' in text:
                counted["degraded"] += 1
            else:
                # Count statuses by substring scan instead of parsing
                # the whole body: each per-word payload carries exactly
                # one status field, and a full json.loads of a large
                # batch response costs more CPU than the service spent
                # answering it — parsing would make the *generator*
                # the bottleneck on shared hardware.
                recovered = text.count('"status": "recovered"')
                counted["recovered"] += recovered
                counted["word_errors"] += len(batch) - recovered
    except Exception as error:  # noqa: BLE001 - reported to the caller
        errors.append(f"{type(error).__name__}: {error}")
    finally:
        connection.close()
    with lock:
        result.requests += counted["requests"]
        result.words += counted["words"]
        result.recovered += counted["recovered"]
        result.degraded += counted["degraded"]
        result.rejected += counted["rejected"]
        result.word_errors += counted["word_errors"]
        result.http_errors += counted["http_errors"]
        result.latencies_s.extend(latencies)
        result.traced_latencies.extend(traced)


def run_load(
    host: str,
    port: int,
    *,
    clients: int = 4,
    requests_per_client: int = 50,
    words_per_request: int = 64,
    context: str = "none",
    words: list[int] | None = None,
    mode: str = "closed",
    rate_rps: float | None = None,
) -> LoadResult:
    """Run one load test against ``host:port``; returns the totals.

    ``mode="closed"`` (default) lets each client pace itself on
    responses; ``mode="open"`` offers ``rate_rps`` requests/s on a
    fixed global schedule, interleaved round-robin across clients,
    with latency accounted from each request's scheduled arrival.

    Raises :class:`RuntimeError` if any client thread died abnormally
    (per-request HTTP failures are counted, not fatal), and
    :class:`ValueError` for a bad mode/rate combination.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    if mode == "open" and (rate_rps is None or rate_rps <= 0):
        raise ValueError("open-loop mode needs a positive rate_rps")
    if words is None:
        words = generate_due_words()
    result = LoadResult(
        clients=clients,
        mode=mode,
        offered_rate_rps=rate_rps if mode == "open" else None,
    )
    lock = threading.Lock()
    errors: list[str] = []
    epoch = time.perf_counter() + 0.05  # let every thread reach its loop

    def schedule_for(client_index: int) -> Callable[[int], float] | None:
        if mode != "open":
            return None
        assert rate_rps is not None
        interval = 1.0 / rate_rps
        return lambda index: epoch + (
            client_index + index * clients
        ) * interval

    threads = [
        threading.Thread(
            target=_client_loop,
            name=f"loadgen-client-{index}",
            args=(
                host, port, requests_per_client, words, words_per_request,
                context, index * 37, result, lock, errors,
                schedule_for(index),
            ),
        )
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    result.wall_s = ended - (epoch if mode == "open" else started)
    if errors:
        raise RuntimeError(f"load client failed: {errors[0]}")
    return result
