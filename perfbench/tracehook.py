"""Timing wrappers around the program's layer entry points.

Used only by traced runs.  The wrappers live here, in the benchmark's
own files; the program is not modified.  Run as a script, this module
installs the service wrappers in a fresh interpreter and then calls
the same CLI entry point as ``python -m repro``::

    PYTHONPATH=src python3 perfbench/tracehook.py serve-recovery --port 0

When the CLI returns (SIGINT), it prints the collected spans as one
JSON object on the last line of standard output.

Spans stay in memory, keyed by the client's ``X-Request-Id``.  Work
done in shard or sweep worker processes (which fork from a process
that already holds these wrappers) is summed into ``perfbench.*``
counters of the worker's metrics registry, so it comes home through
the registry deltas the program already ships to its parent.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.obs import metrics as obs_metrics

_now = time.perf_counter_ns


class ServiceTracer:
    """Per-request spans of one traced ``serve-recovery`` process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.requests: dict[str, dict] = {}
        self.batches: list[dict] = []
        self.preload_ns = 0
        self.spawn_ns = 0
        self._local = threading.local()
        self._pending: dict[int, tuple[dict, object]] = {}

    def install(self) -> None:
        from repro.core.swdecc import SwdEcc
        from repro.service import batcher, catalog, server, shards
        from repro.service.api import RecoveryRequest

        local = self._local
        requests = self.requests
        pending = self._pending
        tracer = self

        handler = server._RecoveryRequestHandler
        do_post = handler.do_POST

        def traced_do_post(self_):
            rid = self_.headers.get("X-Request-Id", "")
            record = {"rid": rid}
            local.record = record
            start = _now()
            try:
                do_post(self_)
            finally:
                record["post"] = (start, _now())
                local.record = None
                requests[rid] = record

        handler.do_POST = traced_do_post

        handle = server.RecoveryService.handle_recover

        def traced_handle(self_, body, batch, trace=None):
            start = _now()
            try:
                return handle(self_, body, batch, trace)
            finally:
                record = getattr(local, "record", None)
                if record is not None:
                    record["handle"] = (start, _now())

        server.RecoveryService.handle_recover = traced_handle

        from_json = RecoveryRequest.from_json.__func__

        def traced_from_json(cls, body, *, batch, width_for):
            start = _now()
            parsed = from_json(cls, body, batch=batch, width_for=width_for)
            record = getattr(local, "record", None)
            if record is not None:
                record["parse"] = (start, _now())
                record["words"] = len(parsed.words)
            return parsed

        RecoveryRequest.from_json = classmethod(traced_from_json)

        submit = batcher.RecoveryBatcher.submit

        def traced_submit(self_, request):
            record = getattr(local, "record", None)
            start = _now()
            if record is not None:
                # Registered before the job is queued: the batch worker
                # may start executing it before submit() returns.
                pending[id(request)] = (record, request)
            try:
                future = submit(self_, request)
            except BaseException:
                pending.pop(id(request), None)
                raise
            if record is not None:
                record["submit"] = (start, _now())
                future.add_done_callback(
                    lambda _: record.__setitem__("resolved", _now())
                )
            return future

        batcher.RecoveryBatcher.submit = traced_submit

        def claim(requests_):
            records = [pending.pop(id(request), None) for request in requests_]
            return [entry[0]["rid"] for entry in records if entry is not None]

        recover = SwdEcc.recover

        def traced_recover(self_, received, context=None):
            start = _now()
            try:
                return recover(self_, received, context)
            finally:
                totals = getattr(local, "recover_totals", None)
                if totals is not None:
                    totals[0] += _now() - start
                    totals[1] += 1

        SwdEcc.recover = traced_recover

        execute = shards.BatchEngine.execute

        def traced_execute(self_, requests_):
            totals = local.recover_totals = [0, 0]
            start = _now()
            try:
                return execute(self_, requests_)
            finally:
                end = _now()
                local.recover_totals = None
                words = sum(len(request.words) for request in requests_)
                registry = obs_metrics.get_registry()
                registry.counter("perfbench.execute_ns").inc(end - start)
                registry.counter("perfbench.executes").inc()
                registry.counter("perfbench.execute_words").inc(words)
                registry.counter("perfbench.recover_ns").inc(totals[0])
                registry.counter("perfbench.recover_calls").inc(totals[1])
                if os.getpid() == tracer.pid:
                    tracer.batches.append({
                        "kind": "engine", "start": start, "end": end,
                        "words": words, "rids": claim(requests_),
                        "recover_ns": totals[0],
                    })

        shards.BatchEngine.execute = traced_execute

        pool_execute = shards.ShardPool.execute

        def traced_pool_execute(self_, index, requests_):
            info = local.shard_batch = {"merge_ns": 0, "worker_exec_ns": 0}
            start = _now()
            try:
                return pool_execute(self_, index, requests_)
            finally:
                end = _now()
                local.shard_batch = None
                tracer.batches.append({
                    "kind": "shard", "shard": index, "start": start,
                    "end": end,
                    "words": sum(len(request.words) for request in requests_),
                    "rids": claim(requests_), **info,
                })

        shards.ShardPool.execute = traced_pool_execute

        merge = obs_metrics.merge_snapshot

        def traced_merge(snapshot, registry=None):
            start = _now()
            merge(snapshot, registry)
            info = getattr(local, "shard_batch", None)
            if info is not None:
                info["merge_ns"] += _now() - start
                shipped = snapshot.get("perfbench.execute_ns")
                if shipped is not None:
                    info["worker_exec_ns"] += shipped["value"]

        obs_metrics.merge_snapshot = traced_merge

        preload = catalog.ServiceCatalog.preload

        def traced_preload(self_, context_ids=None):
            start = _now()
            try:
                return preload(self_, context_ids)
            finally:
                if os.getpid() == tracer.pid:
                    tracer.preload_ns += _now() - start

        catalog.ServiceCatalog.preload = traced_preload

        start_pool = shards.ShardPool.start

        def traced_start(self_):
            start = _now()
            try:
                return start_pool(self_)
            finally:
                tracer.spawn_ns += _now() - start

        shards.ShardPool.start = traced_start

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "preload_ns": self.preload_ns,
            "spawn_ns": self.spawn_ns,
        }


class SweepTracer:
    """Layer timings of one traced Fig. 8 sweep process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.images_ns = 0
        self.merge_ns: list[int] = []
        self.chunk_walls: list[float] = []

    def install(self) -> None:
        from repro.analysis import experiments
        from repro.core.filters import FilterChain
        from repro.core.rankers import FrequencyRanker
        from repro.core.swdecc import SwdEcc
        from repro.obs.progress import SweepProgress

        tracer = self
        # [filter ns, rank ns] inside the current sweep_probabilities
        # call; each worker process is single-threaded.
        inner = [0, 0]

        sweep = SwdEcc.sweep_probabilities

        def traced_sweep(self_, messages, error, context=None):
            inner[0] = inner[1] = 0
            start = _now()
            try:
                return sweep(self_, messages, error, context)
            finally:
                elapsed = _now() - start
                registry = obs_metrics.get_registry()
                registry.counter("perfbench.sweep.pattern_ns").inc(elapsed)
                registry.counter("perfbench.sweep.patterns").inc()
                registry.counter("perfbench.sweep.words").inc(len(messages))
                registry.counter("perfbench.sweep.filter_ns").inc(inner[0])
                registry.counter("perfbench.sweep.rank_ns").inc(inner[1])

        SwdEcc.sweep_probabilities = traced_sweep

        apply = FilterChain.apply

        def traced_apply(self_, messages, context):
            start = _now()
            try:
                return apply(self_, messages, context)
            finally:
                inner[0] += _now() - start

        FilterChain.apply = traced_apply

        score_many = FrequencyRanker.score_many

        def traced_score_many(self_, messages, context):
            start = _now()
            try:
                return score_many(self_, messages, context)
            finally:
                inner[1] += _now() - start

        FrequencyRanker.score_many = traced_score_many

        merge = obs_metrics.merge_snapshot

        def traced_merge(snapshot, registry=None):
            start = _now()
            try:
                return merge(snapshot, registry)
            finally:
                tracer.merge_ns.append(_now() - start)

        obs_metrics.merge_snapshot = traced_merge

        images = experiments.default_images

        def traced_images(*args, **kwargs):
            start = _now()
            try:
                return images(*args, **kwargs)
            finally:
                tracer.images_ns += _now() - start

        experiments.default_images = traced_images

        on_chunk = SweepProgress.on_chunk

        def traced_on_chunk(self_, units, wall_seconds=None, success_sum=0.0):
            if wall_seconds is not None:
                tracer.chunk_walls.append(wall_seconds)
            return on_chunk(self_, units, wall_seconds, success_sum)

        SweepProgress.on_chunk = traced_on_chunk


def main(argv: list[str]) -> int:
    tracer = ServiceTracer()
    tracer.install()
    from repro.cli import main as cli_main

    status = cli_main(argv)
    sys.stdout.write(json.dumps(tracer.as_dict()) + "\n")
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
