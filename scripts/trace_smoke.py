#!/usr/bin/env python3
"""CI smoke test: end-to-end request tracing on the recovery service.

Starts a :class:`repro.service.RecoveryService` with tracing enabled,
first in-process (``workers=0``) and then with two shard processes
(``workers=2``), and asserts of each, exiting nonzero on any
violation:

- requests with and without an inbound W3C ``traceparent`` header are
  answered with a well-formed outbound ``traceparent``; an inbound
  header donates its trace id (with a fresh local span id), and an
  unsampled inbound header (flags ``00``) propagates ids without
  retaining a trace;
- ``/metrics`` strict-parses (:func:`repro.obs.promtext.parse_exposition`)
  and carries all four ``service_stage_*`` latency histogram families
  with counts covering every request served;
- ``GET /traces`` returns JSON span trees in which every span's
  parent resolves within its tree, stage names are well-formed, every
  sampled request's trace id is retained, the four stage spans sit
  under a ``service.request`` root in chronological order summing to
  no more than the end-to-end duration, and the engine's
  ``service.shard.execute`` span is nested inside ``shard_exec``;
- ``GET /spans?format=json`` parses and reports tracing enabled.

Run from the repository root:
``PYTHONPATH=src python scripts/trace_smoke.py``.
"""

from __future__ import annotations

import json
import sys
import urllib.request

from repro.obs import promtext
from repro.obs import trace as obs_trace
from repro.service import RecoveryService
from repro.service.loadgen import generate_due_words

CONTEXT = "mcf"
STAGE_FAMILIES = (
    "service_stage_queue_wait",
    "service_stage_shard_exec",
    "service_stage_serialize",
    "service_stage_respond",
)
STAGE_SPAN_NAMES = (
    "service.stage.queue_wait",
    "service.stage.shard_exec",
    "service.stage.serialize",
    "service.stage.respond",
)


def post(url: str, payload: dict, traceparent: str | None = None):
    headers = {"Content-Type": "application/json"}
    if traceparent is not None:
        headers["traceparent"] = traceparent
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(), headers=headers
    )
    with urllib.request.urlopen(request, timeout=15) as response:
        return json.load(response), response.headers.get("traceparent")


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=15) as response:
        return json.load(response)


def walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from walk(child)


def check_tree(tree: dict, failures: list[str]) -> None:
    """One /traces entry: parents resolve, names well-formed, stages
    ordered and additive, engine span nested in shard_exec."""
    trace_id = tree["trace_id"]
    root = tree["root"]
    if root["name"] != "service.request":
        failures.append(
            f"trace {trace_id}: root is {root['name']!r}, "
            f"not service.request"
        )
        return
    ids = {node["span_id"] for node in walk(root)}
    if len(ids) != tree["span_count"]:
        failures.append(
            f"trace {trace_id}: {tree['span_count']} spans claimed, "
            f"{len(ids)} distinct ids in the tree"
        )
    for node in walk(root):
        if len(node["span_id"]) != 16:
            failures.append(
                f"trace {trace_id}: span id {node['span_id']!r} is not "
                f"16 hex chars"
            )
        if node is not root and node["parent_id"] not in ids:
            failures.append(
                f"trace {trace_id}: span {node['name']} has unresolved "
                f"parent {node['parent_id']!r}"
            )
        if node["name"].startswith("service.stage.") and \
                node["name"] not in STAGE_SPAN_NAMES:
            failures.append(
                f"trace {trace_id}: malformed stage name {node['name']!r}"
            )
    stages = {c["name"]: c for c in root["children"]
              if c["name"] in STAGE_SPAN_NAMES}
    missing = set(STAGE_SPAN_NAMES) - set(stages)
    if missing:
        failures.append(
            f"trace {trace_id}: missing stage spans {sorted(missing)}"
        )
        return
    ordered = [stages[name] for name in STAGE_SPAN_NAMES]
    for earlier, later in zip(ordered, ordered[1:]):
        if earlier["end_ns"] > later["start_ns"]:
            failures.append(
                f"trace {trace_id}: {earlier['name']} overlaps "
                f"{later['name']}"
            )
    stage_sum = sum(stage["duration_ns"] for stage in ordered)
    if stage_sum > tree["duration_ns"]:
        failures.append(
            f"trace {trace_id}: stage sum {stage_sum} ns exceeds "
            f"end-to-end {tree['duration_ns']} ns"
        )
    shard_exec = stages["service.stage.shard_exec"]
    workers = [c for c in shard_exec["children"]
               if c["name"] == "service.shard.execute"]
    if not workers:
        failures.append(
            f"trace {trace_id}: no engine span under shard_exec"
        )
    for worker in workers:
        if not (shard_exec["start_ns"] <= worker["start_ns"]
                and worker["end_ns"] <= shard_exec["end_ns"]):
            failures.append(
                f"trace {trace_id}: engine span escapes the "
                f"shard_exec window"
            )


def check_service(workers: int, words: list[int]) -> list[str]:
    """Run every check against a traced service with *workers* shards."""
    failures: list[str] = []
    collector = obs_trace.enable_tracing(obs_trace.SpanCollector())
    service = RecoveryService(port=0, workers=workers, max_batch=8)
    service.catalog.preload([CONTEXT])
    try:
        with service:
            batch_url = service.url + "/recover/batch"

            # Inbound traceparent: the id is donated, the span id is ours.
            inbound_ids = []
            for index in range(4):
                trace_id = f"{0xACE0 + index:032x}"
                _, echoed = post(
                    batch_url,
                    {"received": words[index * 8:(index + 1) * 8],
                     "context": CONTEXT},
                    traceparent=f"00-{trace_id}-{'cd' * 8}-01",
                )
                context = obs_trace.parse_traceparent(echoed)
                if context is None or context.trace_id != trace_id:
                    failures.append(
                        f"inbound trace id was not donated: {echoed!r}"
                    )
                elif obs_trace.format_span_id(context.span_id) == "cd" * 8:
                    failures.append(
                        "outbound span id repeated the caller's"
                    )
                inbound_ids.append(trace_id)

            # No header: the service mints a fresh trace.
            minted_ids = []
            for index in range(4):
                _, echoed = post(
                    batch_url,
                    {"received": words[index * 8:(index + 1) * 8],
                     "context": CONTEXT},
                )
                context = obs_trace.parse_traceparent(echoed)
                if context is None or not context.sampled:
                    failures.append(
                        f"minted traceparent malformed or unsampled: "
                        f"{echoed!r}"
                    )
                else:
                    minted_ids.append(context.trace_id)

            # Unsampled inbound: ids propagate, nothing is retained.
            unsampled_id = f"{0xDEAD:032x}"
            _, echoed = post(
                batch_url,
                {"received": words[:4], "context": CONTEXT},
                traceparent=f"00-{unsampled_id}-{'cd' * 8}-00",
            )
            context = obs_trace.parse_traceparent(echoed)
            if context is None or context.sampled or \
                    context.trace_id != unsampled_id:
                failures.append(
                    f"unsampled traceparent mishandled: {echoed!r}"
                )

            # /metrics: all five stage families, strict-parsed, counting
            # every request (the unsampled one included).
            with urllib.request.urlopen(
                service.url + "/metrics", timeout=15
            ) as response:
                families = promtext.parse_exposition(
                    response.read().decode("utf-8")
                )
            served = 9  # 4 inbound + 4 minted + 1 unsampled
            for family in STAGE_FAMILIES:
                if family not in families:
                    failures.append(f"/metrics is missing {family}")
                    continue
                count = families[family].sample_value("_count")
                if count < served:
                    failures.append(
                        f"{family}_count {count} < {served} requests served"
                    )

            # /traces: every sampled request retained, trees well-formed.
            payload = get_json(service.url + "/traces")
            if not payload.get("tracing"):
                failures.append("/traces reports tracing disabled")
            retained = {t["trace_id"]: t for t in payload.get("traces", [])}
            for trace_id in inbound_ids + minted_ids:
                if trace_id not in retained:
                    failures.append(
                        f"trace {trace_id} missing from /traces"
                    )
            if unsampled_id in retained:
                failures.append("unsampled request was retained")
            for trace_id in inbound_ids:
                entry = retained.get(trace_id)
                if entry and entry["remote_parent_id"] != "cd" * 8:
                    failures.append(
                        f"trace {trace_id}: remote parent "
                        f"{entry['remote_parent_id']!r} != caller span id"
                    )
            for tree in retained.values():
                check_tree(tree, failures)

            limited = get_json(service.url + "/traces?limit=2")
            if limited["count"] > 2:
                failures.append("/traces?limit=2 returned more than 2")
            durations = [t["duration_ns"] for t in limited["traces"]]
            if durations != sorted(durations, reverse=True):
                failures.append("/traces is not sorted slowest-first")

            # /spans?format=json shares the tree exporter.
            spans_json = get_json(service.url + "/spans?format=json")
            if not spans_json.get("tracing") or \
                    not spans_json.get("spans"):
                failures.append(
                    "/spans?format=json returned no span forest"
                )
    finally:
        obs_trace.disable_tracing()

    for failure in failures:
        print(f"FAIL (workers={workers}): {failure}", file=sys.stderr)
    if not failures:
        print(
            f"trace smoke (workers={workers}): OK "
            f"({len(collector.traces)} traces retained, "
            f"{len(collector)} spans, all four stage histograms present)"
        )
    return failures


def main() -> int:
    words = generate_due_words(count=64, seed=3)
    failures = [
        failure
        for workers in (0, 2)
        for failure in check_service(workers, words)
    ]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
