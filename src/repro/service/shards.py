"""Pre-forked recovery shards: the service's multi-core engine room.

A single recovery engine saturates one core — the GIL serializes every
``recover()`` no matter how many HTTP threads feed it.  This module
scales the service across cores with *shards*: each shard is one
pre-warmed worker process owning its own :class:`ServiceCatalog`
(engines pinned to deterministic first-wins tie-breaking), driven by
exactly one parent-side queue, and fed whole micro-batches over a
single-worker :class:`~concurrent.futures.ProcessPoolExecutor`.

Three properties carry over from the single-process design:

- **Bit-identity** — batches route to shards by a stable hash of
  ``(code, context)``, so a given context always lands on the same
  engine; engines are deterministic, so a shard's answer equals a
  fresh serial engine's, which
  ``tests/service/test_shards.py`` proves across the process boundary
  (including across a worker kill + respawn, because a respawned
  shard rebuilds the identical engine).
- **Metrics completeness** — each batch returns a
  :func:`~repro.obs.metrics.diff_snapshot` delta of the worker's
  registry plus an :class:`~repro.obs.events.EventDigest`; the parent
  merges both, so one ``/metrics`` scrape still sees ``service.*``
  next to ``swdecc.*`` and ``ops.*`` totals across every shard.
- **Explicit failure policy** — a dead worker process breaks its
  executor; the pool respawns the shard (re-warming the catalog) and
  requeues the batch once.  If that also fails the shard is marked
  dead and the batch fails with
  :class:`~repro.errors.ShardFailureError`, which the HTTP layer maps
  to the overload policy (detect-only or 429) — requeue-or-429, never
  silent loss or duplication.

:class:`BatchEngine` — the only code that turns recovery results into
wire payloads — also serves the single-process mode (``workers=0``),
so both paths share one executor and one served-answer cache: answers
are deterministic, so each ``(code, context, word)`` is recovered once
and then replayed as its JSON fragment, written by
:func:`~repro.service.api.result_fragment` — a dict probe instead of
~26 µs in ``recover()`` plus ~26 µs of fragment writing and
bookkeeping per word (medians of three traced perfbench ``distinct``
runs on a 2-vCPU VM, Python 3.11.7).  The cache holds at most
:data:`RESULT_CACHE_WORDS` answers and clears in place when full.
That covers a hot set of re-read words, while transient upsets, which
never repeat, can fill it with at most ~4 MiB of answers nobody reads
again (about 1 KiB per word).  The cache is disabled under per-request
cost reporting, which needs true op-count deltas.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import dataclass, field
from threading import Lock
from typing import NamedTuple, Sequence

from repro.core.sideinfo import RecoveryContext
from repro.ecc.code import LinearBlockCode
from repro.errors import ReproError, ServiceError, ShardFailureError
from repro.obs import energy as obs_energy
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.service import api
from repro.service.catalog import ServiceCatalog

__all__ = ["BatchEngine", "ShardPool", "ShardSpec", "route_key"]

#: Served-answer cache bound, in words, across all (code, context)
#: pairs: the same bound, and the same clear-at-cap policy, as the
#: engines' decision-row memo (:data:`repro.core.cache.MAX_ENTRIES`).
RESULT_CACHE_WORDS = 4096

#: How long a forked shard may take to pre-warm before startup fails.
_SPAWN_TIMEOUT_S = 120.0


def route_key(code_id: str, context_id: str, shards: int) -> int:
    """The shard index serving ``(code_id, context_id)`` batches.

    A stable content hash (not Python's randomized ``hash``) so the
    same context always drains through the same shard's engine and
    served-answer cache, and so tests and a future consistent-hash
    fleet router can predict placement.
    """
    digest = zlib.crc32(f"{code_id}\x00{context_id}".encode())
    return digest % shards


class ShardSpec(NamedTuple):
    """Everything a worker needs to rebuild the parent's catalog view.

    Shipped (pickled) to each shard at fork and at every respawn, so a
    replacement worker is indistinguishable from the original.
    """

    preload: tuple[str, ...] = ()
    codes: tuple[tuple[str, LinearBlockCode], ...] = ()
    contexts: tuple[tuple[str, RecoveryContext], ...] = ()
    report_cost: bool = False

    @classmethod
    def from_catalog(
        cls,
        catalog: ServiceCatalog,
        preload: Sequence[str] = (),
        report_cost: bool = False,
    ) -> "ShardSpec":
        codes, contexts = catalog.registrations()
        return cls(
            preload=tuple(preload),
            codes=tuple(sorted(codes.items())),
            contexts=tuple(sorted(contexts.items())),
            report_cost=report_cost,
        )


class BatchEngine:
    """Execute recovery micro-batches against catalog engines.

    The single consumer of its engines (one batcher worker thread in
    the parent, or one shard process), so the served-answer cache and
    the engines' context caches need no locks.  Per request it returns
    an outcome ``{"fragments": [json str per word], "cost": dict |
    None, "engine_ns": (start, end)}`` — fragments are spliced into
    HTTP responses without re-serialization, and they pickle as
    compact strings across the shard boundary.  ``engine_ns`` times
    the request's own engine work as two offsets from the start of the
    :meth:`execute` call, because absolute ``perf_counter_ns``
    readings do not compare across processes; the batcher takes it off
    the outcome and hands it to the HTTP layer beside the result.
    """

    def __init__(
        self, catalog: ServiceCatalog, report_cost: bool = False
    ) -> None:
        registry = obs_metrics.get_registry()
        self._catalog = catalog
        self._report_cost = report_cost
        self._cache: dict[tuple[str, str], dict[int, tuple[bool, str]]] = {}
        self._cache_words = 0
        self._c_recoveries = registry.counter(
            "service.recoveries", help="Words heuristically recovered"
        )
        self._c_word_errors = registry.counter(
            "service.recovery_errors",
            help="Words that failed recovery (not a DUE, no candidates)",
        )
        self._c_cache_hits = registry.counter(
            "service.result.cache_hits",
            help="Words answered from the served-answer cache",
        )
        self._c_cache_misses = registry.counter(
            "service.result.cache_misses",
            help="Words that ran the engine and serialized fresh",
        )
        self._h_batch_ops = registry.histogram(
            "service.batch_ops",
            buckets=(64, 256, 1024, 4096, 16384, 65536),
            help="Decode op-counter delta per executed micro-batch",
        )
        self._h_batch_joules = registry.histogram(
            "service.batch_joules",
            buckets=(1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3),
            help="Modeled energy per executed micro-batch",
        )

    @property
    def catalog(self) -> ServiceCatalog:
        """The catalog resolving this engine's (code, context) ids."""
        return self._catalog

    def execute(self, requests: Sequence[api.RecoveryRequest]) -> list[dict]:
        """Run one micro-batch; one outcome dict per request, in order.

        Requests group by (code, context) so each group drains
        back-to-back through one engine, preserving context-cache
        generations.  Per-word errors (not a DUE, no candidates) are
        captured per word and never fail a neighbouring request.

        Answers are deterministic (first-wins tie-breaking, pinned
        contexts), so cache replays are bit-identical to engine runs.
        Cost attribution (``report_cost``) bypasses the cache: its op
        deltas must measure real engine work, not dict probes.
        """
        groups: dict[tuple[str, str], list[int]] = {}
        for index, request in enumerate(requests):
            key = (request.code_id, request.context_id)
            groups.setdefault(key, []).append(index)
        outcomes: list[dict] = [{} for _ in requests]
        recovered = 0
        failed = 0
        exec_start_ns = time.perf_counter_ns()
        model = obs_energy.get_energy_model()
        batch_before = obs_energy.op_counts(model=model)
        for key, indexes in groups.items():
            code_id, context_id = key
            engine, context = self._catalog.resolve(code_id, context_id)
            cache: dict[int, tuple[bool, str]] | None = None
            if not self._report_cost:
                cache = self._cache.get(key)
                if cache is None:
                    cache = self._cache.setdefault(key, {})
            for index in indexes:
                request = requests[index]
                request_start_ns = time.perf_counter_ns()
                before = (
                    obs_energy.op_counts(model=model)
                    if self._report_cost else None
                )
                fragments: list[str] = []
                for word in request.words:
                    if cache is not None:
                        hit = cache.get(word)
                        if hit is not None:
                            self._c_cache_hits.inc()
                            ok, fragment = hit
                            recovered += ok
                            failed += not ok
                            fragments.append(fragment)
                            continue
                        self._c_cache_misses.inc()
                    try:
                        result = engine.recover(word, context)
                    except ReproError as error:
                        ok = False
                        fragment = json.dumps(
                            api.error_payload(word, error), sort_keys=True
                        )
                    else:
                        ok = True
                        fragment = api.result_fragment(word, result)
                    recovered += ok
                    failed += not ok
                    if cache is not None:
                        if self._cache_words >= RESULT_CACHE_WORDS:
                            # Clear in place: engines sharing a group
                            # dict must never see resurrected entries.
                            for entries in self._cache.values():
                                entries.clear()
                            self._cache_words = 0
                        cache[word] = (ok, fragment)
                        self._cache_words += 1
                    fragments.append(fragment)
                cost = None
                if before is not None:
                    after = obs_energy.op_counts(model=model)
                    deltas = {
                        name: after[name] - before[name]
                        for name in after
                        if after[name] != before[name]
                    }
                    joules = model.joules(deltas)
                    cost = {
                        "ops": deltas,
                        "joules": joules,
                        "joules_per_word": joules / len(request.words),
                    }
                outcomes[index] = {
                    "fragments": fragments,
                    "cost": cost,
                    "engine_ns": (
                        request_start_ns - exec_start_ns,
                        time.perf_counter_ns() - exec_start_ns,
                    ),
                }
        batch_after = obs_energy.op_counts(model=model)
        batch_deltas = {
            name: batch_after[name] - batch_before[name]
            for name in batch_after
        }
        self._h_batch_ops.observe(sum(batch_deltas.values()))
        self._h_batch_joules.observe(model.joules(batch_deltas))
        if recovered:
            self._c_recoveries.inc(recovered)
        if failed:
            self._c_word_errors.inc(failed)
        return outcomes


# ----------------------------------------------------------------------
# Worker-process side (module-level: must be picklable by reference)
# ----------------------------------------------------------------------

#: Per-process shard state, populated by the pool's initializer.
_WORKER: dict | None = None


def _shard_initializer(spec: ShardSpec) -> None:
    """Build and pre-warm this worker's catalog, engine, and obs state.

    Runs once per (re)spawned shard process, before any batch.  The
    registry/event log are reset so the first shipped delta measures
    only this shard's own work, not state inherited across the fork
    (the same isolation discipline as
    :func:`repro.analysis.parallel._run_isolated`, amortized over the
    shard's lifetime instead of per task).
    """
    global _WORKER
    registry = obs_metrics.get_registry()
    registry.reset()
    event_log = obs_events.get_event_log()
    event_log.clear()
    catalog = ServiceCatalog()
    for code_id, code in spec.codes:
        catalog.register_code(code_id, code)
    for context_id, context in spec.contexts:
        catalog.register_context(context_id, context)
    catalog.preload(list(spec.preload))
    _WORKER = {
        "engine": BatchEngine(catalog, report_cost=spec.report_cost),
        "registry": registry,
        "event_log": event_log,
        "shipped": {},
    }


def _shard_execute(
    requests: tuple[api.RecoveryRequest, ...],
) -> tuple[list[dict], dict, obs_events.EventDigest]:
    """Run one micro-batch in the shard; ship outcomes + obs deltas."""
    assert _WORKER is not None, "shard executed before initialization"
    outcomes = _WORKER["engine"].execute(requests)
    current = _WORKER["registry"].as_dict()
    delta = obs_metrics.diff_snapshot(_WORKER["shipped"], current)
    _WORKER["shipped"] = current
    digest = obs_events.EventDigest.from_log(_WORKER["event_log"])
    _WORKER["event_log"].clear()
    return outcomes, delta, digest


def _shard_snapshot() -> dict:
    """The shard's cumulative registry snapshot (tests, debugging)."""
    assert _WORKER is not None, "shard snapshot before initialization"
    return _WORKER["registry"].as_dict()


def _shard_pid() -> int:
    """Worker liveness probe; forces the initializer on first call."""
    return os.getpid()


# ----------------------------------------------------------------------
# Parent-process side
# ----------------------------------------------------------------------


@dataclass
class _Shard:
    """One shard's parent-side handle."""

    index: int
    executor: ProcessPoolExecutor | None = None
    pid: int | None = None
    state: str = "starting"  # -> ok | respawning | dead
    lock: Lock = field(default_factory=Lock)


class ShardPool:
    """N pre-forked recovery shards with respawn-and-requeue recovery.

    Parameters
    ----------
    workers:
        Shard count (>= 1).  Each shard is one process pinned to one
        parent queue; size it to the cores you want recovery to use.
    spec:
        The :class:`ShardSpec` every (re)spawned worker initializes
        from.

    Shipped worker metric deltas and event digests merge into the
    process registry and event log current at construction, next to
    the pool's own ``service.shard*`` metrics.
    """

    def __init__(self, workers: int, spec: ShardSpec) -> None:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        self._spec = spec
        self._registry = obs_metrics.get_registry()
        self._event_log = obs_events.get_event_log()
        self._merge_lock = Lock()
        self._shards = [_Shard(index) for index in range(workers)]
        self._g_shards = self._registry.gauge(
            "service.shards", help="Configured recovery shard processes"
        )
        self._c_respawns = self._registry.counter(
            "service.shard.respawns",
            help="Shard processes respawned after a worker death",
        )
        self._c_failures = self._registry.counter(
            "service.shard.failures",
            help="Batches failed after the respawn+requeue policy",
        )
        self._up_gauges = [
            self._registry.gauge(
                f"service.shard.{index}.up",
                help="1 when this shard process is serving, else 0",
            )
            for index in range(workers)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Configured shard count."""
        return len(self._shards)

    def route(self, code_id: str, context_id: str) -> int:
        """The shard index for one request's (code, context)."""
        return route_key(code_id, context_id, len(self._shards))

    def states(self) -> dict[int, str]:
        """Current lifecycle state per shard index.

        A killed worker is noticed here *passively* (the executor's
        manager thread watches the process sentinel), so ``/healthz``
        degrades even before traffic trips the respawn path — the
        shard reports ``worker-lost`` until a batch triggers its
        respawn.
        """
        out: dict[int, str] = {}
        for shard in self._shards:
            state = shard.state
            if (
                state == "ok"
                and shard.executor is not None
                and getattr(shard.executor, "_broken", False)
            ):
                state = "worker-lost"
            out[shard.index] = state
        return out

    def worker_pids(self) -> dict[int, int | None]:
        """OS pid per shard (None before spawn); used by kill tests."""
        return {shard.index: shard.pid for shard in self._shards}

    def snapshots(self, timeout: float = 30.0) -> list[dict]:
        """Each live shard's cumulative registry snapshot, by index."""
        futures = []
        for shard in self._shards:
            if shard.executor is None:
                raise ServiceError(
                    f"shard {shard.index} is not running ({shard.state})"
                )
            futures.append(shard.executor.submit(_shard_snapshot))
        return [future.result(timeout=timeout) for future in futures]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardPool":
        """Fork and pre-warm every shard; returns ``self``.

        Called before the service's HTTP/batcher threads exist, so the
        initial forks happen from an effectively single-threaded
        parent.
        """
        self._g_shards.set(len(self._shards))
        for shard in self._shards:
            self._spawn(shard)
        return self

    def stop(self) -> None:
        """Shut down every shard process (idempotent)."""
        for shard in self._shards:
            executor, shard.executor = shard.executor, None
            shard.state = "stopped"
            shard.pid = None
            self._up_gauges[shard.index].set(0.0)
            if executor is not None:
                # Wait for the worker to exit.  Without the wait, a
                # service stopped inside a multiprocessing child hangs
                # that child's exit, which joins every child process
                # while the worker still waits for its stop sentinel.
                # The batchers have drained by now, so nothing queued
                # is dropped.
                executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _spawn(self, shard: _Shard) -> None:
        """Fork one worker and block until its catalog is pre-warmed."""
        executor = ProcessPoolExecutor(
            max_workers=1,
            initializer=_shard_initializer,
            initargs=(self._spec,),
        )
        try:
            shard.pid = executor.submit(_shard_pid).result(
                timeout=_SPAWN_TIMEOUT_S
            )
        except BaseException:
            executor.shutdown(wait=False, cancel_futures=True)
            raise
        shard.executor = executor
        shard.state = "ok"
        self._up_gauges[shard.index].set(1.0)

    def _respawn(self, shard: _Shard, cause: BaseException) -> None:
        """Replace a dead shard's process; raises ShardFailureError
        when the replacement cannot be brought up."""
        with shard.lock:
            shard.state = "respawning"
            self._up_gauges[shard.index].set(0.0)
            self._c_respawns.inc()
            old, shard.executor = shard.executor, None
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            try:
                self._spawn(shard)
            except BaseException as error:
                shard.state = "dead"
                self._c_failures.inc()
                raise ShardFailureError(
                    shard.index,
                    f"respawn after worker death failed: {error} "
                    f"(death cause: {cause})",
                ) from error

    # ------------------------------------------------------------------
    # Batch execution (called from shard batcher worker threads)
    # ------------------------------------------------------------------

    def execute(
        self, index: int, requests: Sequence[api.RecoveryRequest]
    ) -> list[dict]:
        """Run one micro-batch on shard *index*; requeue-once policy.

        Deterministic engines make the requeue safe: a batch that died
        mid-execution re-runs on the fresh worker and produces the
        identical answers, so a worker kill costs latency, never
        correctness — no batch is lost, none is answered twice.
        """
        shard = self._shards[index]
        payload = tuple(requests)
        try:
            executor = shard.executor
            if executor is None:
                raise ShardFailureError(index, f"shard is {shard.state}")
            outcomes, delta, digest = executor.submit(
                _shard_execute, payload
            ).result()
        except ShardFailureError:
            raise
        except BrokenExecutor as death:
            self._respawn(shard, death)  # raises ShardFailureError if not
            try:
                assert shard.executor is not None
                outcomes, delta, digest = shard.executor.submit(
                    _shard_execute, payload
                ).result()
            except BaseException as error:
                shard.state = "dead"
                self._up_gauges[shard.index].set(0.0)
                self._c_failures.inc()
                raise ShardFailureError(
                    index, f"requeued batch failed after respawn: {error}"
                ) from error
        with self._merge_lock:
            obs_metrics.merge_snapshot(delta, self._registry)
            self._event_log.absorb_digest(digest)
        return outcomes
