#!/usr/bin/env python3
"""CI smoke test: drive the DUE-recovery service end-to-end.

Starts a :class:`repro.service.RecoveryService` on an ephemeral port
and asserts, exiting nonzero on any violation:

- a brief closed-loop load completes with zero HTTP errors and every
  word recovered;
- every served answer is bit-identical to a fresh serial engine
  calling :meth:`SwdEcc.recover` on the same words;
- ``/metrics`` parses with the strict round-trip parser
  (:func:`repro.obs.promtext.parse_exposition`) and carries the
  ``service_*`` families with counts consistent with the load;
- the overload path verifiably degrades: with a gated executor and a
  one-word queue, an extra request answers ``detect-only`` with
  ``reason: overload`` (and the parked work still completes);
- the multi-process path survives a worker kill: with ``workers=2``,
  SIGKILLing a shard's process mid-serving loses and duplicates
  nothing (the parent's strict-parsed ``service_recoveries_total``
  equals exactly the words sent), the shard respawns, and the
  per-shard gauges are present on ``/metrics``.

Run from the repository root:
``PYTHONPATH=src python scripts/service_smoke.py``.
"""

from __future__ import annotations

import json
import random
import sys
import threading
import urllib.request

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.errors import ReproError
from repro.obs import promtext
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark
from repro.service import RecoveryService
from repro.service.api import error_payload, result_payload
from repro.service.catalog import _CONTEXT_IMAGE_LENGTH, _CONTEXT_SEED
from repro.service.loadgen import generate_due_words, run_load

CONTEXT = "mcf"
WORDS_PER_REQUEST = 32
CLIENTS = 2
REQUESTS = 10


def post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.load(response)


def check_load_and_metrics(failures: list[str]) -> None:
    """Closed-loop load + strict /metrics validation + bit-identity."""
    words = generate_due_words()
    registry = MetricsRegistry()
    service = RecoveryService(
        port=0, registry=registry, event_log=EventLog()
    )
    with service:
        service.catalog.preload([CONTEXT])
        result = run_load(
            "127.0.0.1", service.port,
            clients=CLIENTS, requests_per_client=REQUESTS,
            words_per_request=WORDS_PER_REQUEST,
            context=CONTEXT, words=words,
        )
        served = post(
            service.url + "/recover/batch",
            {"received": words[:16], "context": CONTEXT},
        )
        with urllib.request.urlopen(
            service.url + "/metrics", timeout=15
        ) as response:
            families = promtext.parse_exposition(
                response.read().decode("utf-8")
            )

    expected_words = CLIENTS * REQUESTS * WORDS_PER_REQUEST
    if result.http_errors:
        failures.append(f"load saw {result.http_errors} HTTP errors")
    if result.words != expected_words:
        failures.append(
            f"load completed {result.words} words, expected "
            f"{expected_words}"
        )
    if result.recovered != expected_words:
        failures.append(
            f"only {result.recovered}/{expected_words} words recovered"
        )

    for family in ("service_requests", "service_recoveries",
                   "service_batches", "service_batch_words",
                   "service_request_seconds", "service_queue_depth"):
        if family not in families:
            failures.append(f"/metrics is missing {family}")
    recovered_metric = families.get("service_recoveries")
    if recovered_metric is not None:
        total = recovered_metric.sample_value("_total")
        if total < expected_words:
            failures.append(
                f"service_recoveries_total {total} < load's "
                f"{expected_words}"
            )

    # Bit-identity: a fresh serial engine must produce the exact same
    # payloads the service returned.
    code = canonical_secded_39_32()
    engine = SwdEcc(
        code, tie_break=TieBreak.FIRST, rng=random.Random(0), cache=True
    )
    image = synthesize_benchmark(
        CONTEXT, length=_CONTEXT_IMAGE_LENGTH, seed=_CONTEXT_SEED
    )
    context = RecoveryContext.for_instructions(
        FrequencyTable.from_image(image)
    )
    for word, payload in zip(words[:16], served["results"]):
        try:
            expected = result_payload(word, engine.recover(word, context))
        except ReproError as error:
            expected = error_payload(word, error)
        if payload != expected:
            failures.append(
                f"served payload for 0x{word:x} differs from serial "
                f"recover()"
            )
            break

    print(
        f"service smoke: {result.words} words at "
        f"{result.throughput_words_per_s:.0f}/s, "
        f"p99 {result.latency_ms(0.99):.2f} ms, "
        f"{len(families)} metric families"
    )


def check_overload_degrades(failures: list[str]) -> None:
    """A saturated service must answer detect-only, not queue forever."""
    gate = threading.Event()
    service = RecoveryService(
        port=0,
        registry=MetricsRegistry(),
        event_log=EventLog(),
        max_batch=1,
        queue_limit=1,
        overload_policy="degrade",
    )
    real_execute = service._engine.execute

    def gated_execute(requests):
        gate.wait(15.0)
        return real_execute(requests)

    service._batcher._execute = gated_execute
    code = canonical_secded_39_32()
    due = code.encode(0xBEEF) ^ 0b101

    from repro.service.api import RecoveryRequest

    with service:
        import time

        parked = service.batcher.submit(RecoveryRequest(words=(due,)))
        deadline = time.monotonic() + 5.0
        while service.batcher.queued_words() and time.monotonic() < deadline:
            time.sleep(0.005)
        filler = service.batcher.submit(RecoveryRequest(words=(due,)))
        shed = post(service.url + "/recover", {"received": due})
        gate.set()
        parked_payload = parked.result(timeout=15.0)
        filler_payload = filler.result(timeout=15.0)

    if not shed.get("degraded"):
        failures.append(f"overloaded request was not degraded: {shed}")
    elif shed.get("reason") != "overload":
        failures.append(f"degradation reason was {shed.get('reason')!r}")
    elif shed["result"]["status"] != "detect-only":
        failures.append(
            f"degraded status was {shed['result']['status']!r}, "
            f"expected detect-only"
        )
    if shed.get("retry_after_s", 0) <= 0:
        failures.append("degraded answer carried no retry_after_s hint")
    for name, payload in (("parked", parked_payload),
                          ("filler", filler_payload)):
        status = json.loads(payload["fragments"][0])["status"]
        if status != "recovered":
            failures.append(f"{name} job was dropped under overload")

    print("service smoke: overload degraded to detect-only with "
          f"retry_after_s={shed.get('retry_after_s')}")


def check_worker_kill_respawn(failures: list[str]) -> None:
    """SIGKILL a shard worker mid-serving; nothing lost or doubled."""
    import os
    import signal

    words = generate_due_words()
    registry = MetricsRegistry()
    service = RecoveryService(
        port=0, workers=2, registry=registry, event_log=EventLog()
    )
    service.catalog.preload([CONTEXT])
    sent = 0
    with service:
        first = run_load(
            "127.0.0.1", service.port,
            clients=CLIENTS, requests_per_client=REQUESTS,
            words_per_request=WORDS_PER_REQUEST,
            context=CONTEXT, words=words,
        )
        sent += first.words
        pool = service.shard_pool
        victim_index = pool.route("secded-39-32", CONTEXT)
        victim_pid = pool.worker_pids()[victim_index]
        os.kill(victim_pid, signal.SIGKILL)
        second = run_load(
            "127.0.0.1", service.port,
            clients=CLIENTS, requests_per_client=REQUESTS,
            words_per_request=WORDS_PER_REQUEST,
            context=CONTEXT, words=words,
        )
        sent += second.words
        respawned_pid = pool.worker_pids()[victim_index]
        states = pool.states()
        with urllib.request.urlopen(
            service.url + "/metrics", timeout=15
        ) as response:
            families = promtext.parse_exposition(
                response.read().decode("utf-8")
            )

    for name, result in (("pre-kill", first), ("post-kill", second)):
        if result.http_errors:
            failures.append(
                f"{name} load saw {result.http_errors} HTTP errors"
            )
        if result.recovered != result.words:
            failures.append(
                f"{name} load recovered {result.recovered}/"
                f"{result.words} words"
            )
    if respawned_pid in (None, victim_pid):
        failures.append(
            f"shard {victim_index} was not respawned "
            f"(pid {victim_pid} -> {respawned_pid})"
        )
    if states.get(victim_index) != "ok":
        failures.append(
            f"shard {victim_index} state is {states.get(victim_index)!r} "
            f"after respawn"
        )

    # Exactly-once accounting across the kill: the parent's merged
    # counter equals the words sent — none lost, none double-counted.
    recoveries = families.get("service_recoveries")
    total = recoveries.sample_value("_total") if recoveries else None
    if total != sent:
        failures.append(
            f"service_recoveries_total {total} != {sent} words sent "
            f"across the worker kill"
        )
    respawns = families.get("service_shard_respawns")
    if respawns is None or respawns.sample_value("_total") < 1:
        failures.append("/metrics did not record the shard respawn")
    for family in ("service_shard_0_up", "service_shard_1_up",
                   "service_shard_0_queue_depth",
                   "service_shard_1_queue_depth",
                   "service_shard_0_batch_words"):
        if family not in families:
            failures.append(f"/metrics is missing per-shard {family}")

    # Decode tables: each serving worker builds its code's table when
    # the shard initializer pre-warms its engines, and the build
    # counters/histogram ship to the parent with the worker's first
    # delta — so the parent's strict-parsed /metrics must carry the
    # full decode_table_* group with internally consistent values.
    for family in ("decode_table_builds", "decode_table_entries",
                   "decode_table_pair_masks",
                   "decode_table_resident_bytes",
                   "decode_table_build_seconds"):
        if family not in families:
            failures.append(f"/metrics is missing {family}")
    builds_metric = families.get("decode_table_builds")
    builds = (
        builds_metric.sample_value("_total") if builds_metric else 0
    )
    if builds < 2:
        # At least the pre-kill victim and its respawn served traffic,
        # and each shipped its own table build.
        failures.append(
            f"decode_table_builds_total {builds} < 2 across the "
            f"worker kill (victim + respawn must each build)"
        )
    if "decode_table_entries" in families and builds:
        entries = families["decode_table_entries"].sample_value("_total")
        if entries != 63 * builds:
            failures.append(
                f"decode_table_entries_total {entries} != 63 per build "
                f"x {builds} builds for the (39,32) SECDED code"
            )
    if "decode_table_pair_masks" in families and builds:
        pair_masks = families["decode_table_pair_masks"].sample_value(
            "_total"
        )
        if pair_masks != 741 * builds:
            failures.append(
                f"decode_table_pair_masks_total {pair_masks} != 741 "
                f"per build x {builds} builds (C(39,2) column pairs)"
            )
    if "decode_table_build_seconds" in families:
        build_seconds = families["decode_table_build_seconds"]
        if build_seconds.sample_value("_count") != builds:
            failures.append(
                "decode_table_build_seconds_count disagrees with "
                "decode_table_builds_total"
            )
    if "decode_table_resident_bytes" in families and builds:
        resident = families["decode_table_resident_bytes"].sample_value(
            "_total"
        )
        if not 0 < resident / builds < 16 * 1024 * 1024:
            failures.append(
                f"decode_table_resident_bytes_total/build {resident}/"
                f"{builds} is outside the plausible (39,32) range"
            )

    print(
        f"service smoke: worker kill survived "
        f"(pid {victim_pid} -> {respawned_pid}, "
        f"{sent} words exactly-once, "
        f"{len(families)} metric families strict-parsed)"
    )


def main() -> int:
    failures: list[str] = []
    check_load_and_metrics(failures)
    check_overload_degrades(failures)
    check_worker_kill_respawn(failures)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("service smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
