"""Per-layer attribution: spans and ``/metrics`` deltas to layer metrics.

Service requests are split into spans that tile the handler's
``do_POST`` exactly::

    client                      (benchmark: send .. last response byte)
      server.request            (do_POST entry .. return)
        server.ingress          (do_POST entry .. batcher submit)
          server.parse          (RecoveryRequest.from_json)
        batcher.wait            (submit .. executor start)
        shards.exec             (BatchEngine.execute / ShardPool.execute)
        batcher.resolve         (executor end .. future resolved)
        server.egress           (future resolved .. do_POST return)

A span's self time is its duration minus the part of it its children
cover; the self times of the server-side spans of one request add up
to the time the request spent inside the server.
"""

from __future__ import annotations

import re
import statistics

#: Every per-layer metric a traced run computes, with its unit.  A layer
#: a workload never enters reads 0; BENCHMARK.json declares the subset
#: that every listed workload measures.
PER_LAYER_UNITS: dict[str, str] = {
    "client.transport_us": "us",
    "server.response_bytes_per_word": "bytes/word",
    "server.ingress_us": "us",
    "server.parse_us_per_word": "us",
    "server.egress_us": "us",
    "batcher.wait_us": "us",
    "batcher.batch_words": "words",
    "shards.exec_us_per_word": "us",
    "shards.answer_cache_hit_share": "fraction",
    "shards.serialize_us_per_word": "us",
    "shards.ipc_us_per_batch": "us",
    "shards.busy_share.0": "fraction",
    "shards.busy_share.1": "fraction",
    "shards.spawn_s": "s",
    "engine.us_per_word": "us",
    "engine.recover_us": "us",
    "engine.ranker_evals_per_word": "count",
    "engine.ops_per_word": "count",
    "engine.tie_share": "fraction",
    "engine.fallback_share": "fraction",
    "catalog.preload_s": "s",
    "decode_table.build_s": "s",
    "decode_table.resident_mb": "MiB",
    "sweep.pattern_ms": "ms",
    "sweep.filter_us_per_word": "us",
    "sweep.rank_us_per_word": "us",
    "sweep.filter_cache_hit_share": "fraction",
    "sweep.ranker_cache_hit_share": "fraction",
    "parallel.chunk_imbalance": "ratio",
    "parallel.merge_ms": "ms",
    "sweep.images_s": "s",
    "trace.accounted_share": "fraction",
    "trace.overhead_share": "fraction",
}

#: Metric families whose run deltas go into every record.
_RECORDED = re.compile(
    r"^(service_result_|swdecc_|ops_|decode_table_|filter_cache_|ranker_cache_)"
)


def flatten(families: dict) -> dict[str, float]:
    """Counter/gauge values and histogram _count/_sum, by sample name."""
    values: dict[str, float] = {}
    for family in families.values():
        if family.type == "counter":
            values[family.name] = family.sample_value("_total")
        elif family.type == "gauge" and not family.samples[0][1]:
            values[family.name] = family.sample_value()
        elif family.type == "histogram":
            values[family.name + "_count"] = family.sample_value("_count")
            values[family.name + "_sum"] = family.sample_value("_sum")
    return values


def deltas(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {name: value - before.get(name, 0.0) for name, value in after.items()}


def recorded_counts(delta: dict[str, float]) -> dict[str, float]:
    """The count deltas a record carries (cache, engine, ops, tables)."""
    return {
        name: value
        for name, value in sorted(delta.items())
        if _RECORDED.match(name) and not name.endswith("_cache_hit_rate")
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def engine_counts(delta: dict[str, float]) -> dict[str, float]:
    """Per-recovery engine counts (op counts are the energy model's basis)."""
    recoveries = delta.get("swdecc_recoveries", 0.0)
    ops = sum(value for name, value in delta.items() if name.startswith("ops_"))
    return {
        "engine.ranker_evals_per_word": _ratio(
            delta.get("ops_ranker_evals", 0.0), recoveries
        ),
        "engine.ops_per_word": _ratio(ops, recoveries),
        "engine.tie_share": _ratio(delta.get("swdecc_tie_breaks", 0.0), recoveries),
        "engine.fallback_share": _ratio(
            delta.get("swdecc_filter_fallbacks", 0.0), recoveries
        ),
    }


def self_times(spans: list[tuple[str, int, int, str | None]]) -> dict[str, int]:
    """Self time per span name: duration minus the union of its children."""
    out = {}
    for name, start, end, _ in spans:
        covered = 0
        cursor = start
        children = sorted(
            (max(c_start, start), min(c_end, end))
            for c_name, c_start, c_end, parent in spans
            if parent == name
        )
        for c_start, c_end in children:
            c_start = max(c_start, cursor)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[name] = (end - start) - covered
    return out


def request_spans(exchange, record: dict, batch: dict) -> list[tuple]:
    """The span tree of one traced request (see the module docstring)."""
    post0, post1 = record["post"]
    submit0 = record["submit"][0]
    exec0, exec1 = batch["start"], batch["end"]
    resolved = record["resolved"]
    return [
        ("client", exchange.sent_ns, exchange.done_ns, None),
        ("server.request", post0, post1, "client"),
        ("server.ingress", post0, submit0, "server.request"),
        ("server.parse", *record["parse"], "server.ingress"),
        ("batcher.wait", submit0, exec0, "server.request"),
        ("shards.exec", exec0, exec1, "server.request"),
        ("batcher.resolve", exec1, resolved, "server.request"),
        ("server.egress", resolved, post1, "server.request"),
    ]


def _median_us(values: list[int]) -> float:
    return statistics.median(values) / 1e3 if values else 0.0


def service_layers(
    trace: dict,
    load,
    delta: dict[str, float],
    after: dict[str, float],
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced service run.

    Returns the metrics and a summary of the per-request stage
    medians (for the record).
    """
    measured = {str(exchange.request_id): exchange for exchange in load.exchanges}
    batches = [
        batch for batch in trace["batches"]
        if load.start_ns <= batch["start"] <= load.end_ns
    ]
    batch_of = {rid: batch for batch in batches for rid in batch["rids"]}
    stage_ns: dict[str, list[int]] = {}
    shares = []
    parse_ns = parse_words = 0
    for rid, exchange in measured.items():
        record = trace["requests"].get(rid)
        batch = batch_of.get(rid)
        if (
            record is None or batch is None
            or not {"post", "submit", "parse", "resolved"} <= record.keys()
        ):
            continue
        spans = request_spans(exchange, record, batch)
        own = self_times(spans)
        for name, start, end, _ in spans:
            stage_ns.setdefault(name, []).append(end - start)
        stage_ns.setdefault("client.self", []).append(own["client"])
        server_self = sum(value for name, value in own.items() if name != "client")
        shares.append(server_self / (exchange.done_ns - exchange.sent_ns))
        parse_ns += record["parse"][1] - record["parse"][0]
        parse_words += record.get("words", 0)

    wall_ns = load.end_ns - load.start_ns
    busy = [0, 0]
    ipc_ns = []
    exec_ns = exec_words = 0
    for batch in batches:
        exec_ns += batch["end"] - batch["start"]
        exec_words += batch["words"]
        if batch["kind"] == "shard":
            busy[batch["shard"]] += batch["worker_exec_ns"]
            ipc_ns.append(batch["end"] - batch["start"] - batch["worker_exec_ns"])
        else:
            busy[0] += batch["end"] - batch["start"]

    batch_words_sum = batch_words_count = 0.0
    for name, value in delta.items():
        if re.fullmatch(r"service(_shard_\d+)?_batch_words_sum", name):
            batch_words_sum += value
        elif re.fullmatch(r"service(_shard_\d+)?_batch_words_count", name):
            batch_words_count += value

    hits = delta.get("service_result_cache_hits", 0.0)
    misses = delta.get("service_result_cache_misses", 0.0)
    words = sum(len(exchange.request.words) for exchange in load.exchanges)
    metrics = {
        "client.transport_us": _median_us(stage_ns.get("client.self", [])),
        "server.response_bytes_per_word": _ratio(
            sum(exchange.body_bytes for exchange in load.exchanges), words
        ),
        "server.ingress_us": _median_us(stage_ns.get("server.ingress", [])),
        "server.parse_us_per_word": _ratio(parse_ns, parse_words) / 1e3,
        "server.egress_us": _median_us(stage_ns.get("server.egress", [])),
        "batcher.wait_us": _median_us(stage_ns.get("batcher.wait", [])),
        "batcher.batch_words": _ratio(batch_words_sum, batch_words_count),
        "shards.exec_us_per_word": _ratio(exec_ns, exec_words) / 1e3,
        "shards.answer_cache_hit_share": _ratio(hits, hits + misses),
        "shards.serialize_us_per_word": _ratio(
            delta.get("perfbench_execute_ns", 0.0)
            - delta.get("perfbench_recover_ns", 0.0),
            misses,
        ) / 1e3,
        "shards.ipc_us_per_batch": (
            statistics.fmean(ipc_ns) / 1e3 if ipc_ns else 0.0
        ),
        "shards.busy_share.0": _ratio(busy[0], wall_ns),
        "shards.busy_share.1": _ratio(busy[1], wall_ns),
        "shards.spawn_s": trace["spawn_ns"] / 1e9,
        "engine.recover_us": _ratio(
            delta.get("perfbench_recover_ns", 0.0),
            delta.get("perfbench_recover_calls", 0.0),
        ) / 1e3,
        # Each recover() call answers one word.
        "engine.us_per_word": _ratio(
            delta.get("perfbench_recover_ns", 0.0),
            delta.get("perfbench_recover_calls", 0.0),
        ) / 1e3,
        **engine_counts(delta),
        "catalog.preload_s": trace["preload_ns"] / 1e9,
        "decode_table.build_s": after.get("decode_table_build_seconds_sum", 0.0),
        "decode_table.resident_mb": after.get("decode_table_resident_bytes", 0.0)
        / 2**20,
        "trace.accounted_share": statistics.median(shares) if shares else 0.0,
    }
    summary = {
        "traced_requests": len(shares),
        "measured_requests": len(measured),
        "stage_median_us": {
            name: round(_median_us(values), 3)
            for name, values in sorted(stage_ns.items())
        },
    }
    return metrics, summary


def sweep_layers(record: dict, delta: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced sweep run."""
    runs = record["runs"]
    imbalance = []
    accounted = []
    for run in runs:
        walls = run["chunk_walls_s"]
        if walls:
            imbalance.append(max(walls) / statistics.fmean(walls))
            accounted.append(
                (max(walls) + run["merge_ns"] / 1e9) / (run["wall_ns"] / 1e9)
            )
    words = delta.get("perfbench_sweep_words", 0.0)
    return {
        **engine_counts(delta),
        "engine.us_per_word": _ratio(
            delta.get("perfbench_sweep_pattern_ns", 0.0), words
        ) / 1e3,
        "sweep.pattern_ms": _ratio(
            delta.get("perfbench_sweep_pattern_ns", 0.0),
            delta.get("perfbench_sweep_patterns", 0.0),
        ) / 1e6,
        "sweep.filter_us_per_word": _ratio(
            delta.get("perfbench_sweep_filter_ns", 0.0), words
        ) / 1e3,
        "sweep.rank_us_per_word": _ratio(
            delta.get("perfbench_sweep_rank_ns", 0.0), words
        ) / 1e3,
        "sweep.filter_cache_hit_share": _ratio(
            delta.get("filter_cache_hits", 0.0),
            delta.get("filter_cache_hits", 0.0)
            + delta.get("filter_cache_misses", 0.0),
        ),
        "sweep.ranker_cache_hit_share": _ratio(
            delta.get("ranker_cache_hits", 0.0),
            delta.get("ranker_cache_hits", 0.0)
            + delta.get("ranker_cache_misses", 0.0),
        ),
        "parallel.chunk_imbalance": (
            statistics.fmean(imbalance) if imbalance else 0.0
        ),
        "parallel.merge_ms": statistics.fmean(
            run["merge_ns"] for run in runs
        ) / 1e6,
        "sweep.images_s": record["images_ns"] / 1e9,
        "trace.accounted_share": (
            statistics.median(accounted) if accounted else 0.0
        ),
    }
