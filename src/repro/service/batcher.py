"""Micro-batching over a bounded queue with explicit backpressure.

Service requests arrive one at a time from many HTTP threads, but
the engines must be driven by one consumer.  :class:`RecoveryBatcher`
sits between the two:

- **Bounded queue** — ``submit`` either enqueues or raises
  :class:`~repro.errors.ServiceOverloadError` with a ``retry_after``
  hint.  There is no unbounded buffering mode: when the queue is full
  the caller is told *now*, and the HTTP layer either rejects (429) or
  degrades to detect-only, per policy.
- **Micro-batches** — a single worker thread takes the jobs already
  queued, up to ``max_batch`` words, and executes them at once in one
  call.  It never waits for more company: a lone request runs as soon
  as the worker is free, and requests that arrive while a batch runs
  form the next one.  Jobs are never split, so a job larger than
  ``max_batch`` runs as a batch of its own.
- **Single consumer** — the worker thread is the only caller of the
  executor, so the engines' context caches need no locks and batched
  results are bit-identical to the same words run serially.

Lifecycle: ``start`` / ``stop`` (or a ``with`` block).  ``stop`` drains
jobs already accepted, then joins the worker; nothing accepted is
dropped.  Cancelled futures (request timeouts) are skipped at execute
time via the standard ``set_running_or_notify_cancel`` handshake, so
abandoned work sheds instead of burning the batch budget.

Multi-process mode layers :class:`ShardedBatcher` on top: a router
over N single-consumer shard queues, one :class:`RecoveryBatcher` per
:class:`~repro.service.shards.ShardPool` shard.  Requests route by
their (code, context) hash — the same placement the pool uses — so a
context's words always drain through one shard's engine.
Backpressure is per shard (a hot context saturating its shard 429s
without starving cold contexts), and each shard batcher publishes its
own ``service.shard.<i>.*`` metrics; the aggregate
``service.queue_depth`` is derived from them at snapshot time.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Sequence
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from functools import partial
from threading import Condition, Thread

from repro.errors import ServiceError, ServiceOverloadError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.api import RecoveryRequest
from repro.service.shards import ShardPool

__all__ = ["RecoveryBatcher", "ShardedBatcher"]

#: Executor contract: one result object per request, in request order.
#: The batcher passes results through opaquely (the service returns
#: ``{"payloads": [...], "cost": ...}`` outcome dicts).
BatchExecutor = Callable[[Sequence[RecoveryRequest]], "list[dict]"]

#: Starting estimate of seconds of engine work per word, before any
#: batch has been measured (a recover() that builds its decision row
#: is tens of µs).
_INITIAL_SECONDS_PER_WORD = 5e-5

#: EWMA smoothing for the measured per-word cost.
_EWMA_ALPHA = 0.2


@dataclass
class _Job:
    """One queued request plus its completion future.

    ``enqueued_ns`` is the ``perf_counter_ns`` reading taken at submit
    time; together with the batch's execute window it decomposes each
    request's latency into the ``service.stage.*`` histograms and
    spans.
    """

    request: RecoveryRequest
    future: Future = field(default_factory=Future)
    enqueued_ns: int = field(default_factory=time.perf_counter_ns)

    @property
    def words(self) -> int:
        return len(self.request.words)


class RecoveryBatcher:
    """Coalesce recovery requests into executor micro-batches.

    Parameters
    ----------
    execute:
        Called from the worker thread with the gathered requests; must
        return one result object per request, in order (the batcher
        never looks inside).  An exception fails every request in the
        batch.
    max_batch:
        Most words one batch takes from the queue (a single larger job
        still runs, alone).
    queue_limit:
        Maximum words queued (not yet executing).  ``submit`` beyond
        this raises :class:`ServiceOverloadError` — never buffers.
    registry:
        Metrics registry (default: the process registry).  Exposes
        ``<prefix>.queue_depth``, ``<prefix>.batch_words``,
        ``<prefix>.batch_seconds``, ``<prefix>.batches``, and
        ``<prefix>.overloads``.
    metric_prefix:
        Namespace for this batcher's metrics (default ``service``).
        :class:`ShardedBatcher` uses ``service.shard.<i>`` so each
        shard queue is individually observable.
    """

    def __init__(
        self,
        execute: BatchExecutor,
        max_batch: int = 256,
        queue_limit: int = 4096,
        registry: obs_metrics.MetricsRegistry | None = None,
        metric_prefix: str = "service",
    ) -> None:
        if max_batch < 1:
            raise ServiceError(f"max_batch must be >= 1, got {max_batch}")
        if queue_limit < 1:
            raise ServiceError(f"queue_limit must be >= 1, got {queue_limit}")
        self._execute = execute
        self._metric_prefix = metric_prefix
        self._max_batch = max_batch
        self._queue_limit = queue_limit
        self._cond = Condition()
        self._queue: deque[_Job] = deque()
        self._queued_words = 0
        self._stop = False
        self._thread: Thread | None = None
        self._seconds_per_word = _INITIAL_SECONDS_PER_WORD
        registry = (
            registry if registry is not None else obs_metrics.get_registry()
        )
        self._g_depth = registry.gauge(
            f"{metric_prefix}.queue_depth",
            help="Words queued for recovery (bounded by the queue limit)",
        )
        self._h_batch_words = registry.histogram(
            f"{metric_prefix}.batch_words",
            buckets=obs_metrics.DEFAULT_COUNT_BUCKETS,
            help="Words coalesced per executed batch",
        )
        self._h_batch_seconds = registry.histogram(
            f"{metric_prefix}.batch_seconds",
            help="Executor wall time per batch",
        )
        self._c_batches = registry.counter(
            f"{metric_prefix}.batches", help="Micro-batches executed"
        )
        self._c_overloads = registry.counter(
            f"{metric_prefix}.overloads",
            help="Submissions rejected because the queue was full",
        )
        # Per-request latency decomposition.  Deliberately *not* under
        # the shard prefix: every shard batcher shares one family per
        # stage, so dashboards see one distribution per stage however
        # many shards serve it (get-or-create makes this idempotent).
        self._h_stage_queue_wait = registry.histogram(
            "service.stage.queue_wait",
            help="Per request: submit until its batch began executing",
        )
        self._h_stage_shard_exec = registry.histogram(
            "service.stage.shard_exec",
            help="Per request: executor wall time of its batch "
            "(in-process or across the shard boundary)",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._thread is not None

    @property
    def queue_limit(self) -> int:
        """Maximum queued words before backpressure."""
        return self._queue_limit

    def queued_words(self) -> int:
        """Words currently waiting (excludes the executing batch)."""
        with self._cond:
            return self._queued_words

    def retry_after_hint(self) -> float:
        """Suggested client backoff, from the measured drain rate."""
        with self._cond:
            return self._retry_after_locked()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RecoveryBatcher":
        """Spin up the worker thread; returns ``self``."""
        if self._thread is not None:
            raise ServiceError("RecoveryBatcher is already running")
        with self._cond:
            self._stop = False
        self._thread = Thread(
            target=self._worker,
            name=f"repro-batcher-{self._metric_prefix}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Drain accepted jobs, then stop the worker (idempotent).

        New submissions are refused immediately; jobs already queued
        are executed before the worker exits, so a graceful shutdown
        never drops accepted work.
        """
        thread = self._thread
        self._thread = None
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout=30.0)
        # Failsafe: if the worker died abnormally, fail anything left.
        with self._cond:
            leftovers = list(self._queue)
            self._queue.clear()
            self._queued_words = 0
        self._g_depth.set(0.0)
        for job in leftovers:
            if job.future.set_running_or_notify_cancel():
                job.future.set_exception(
                    ServiceError("recovery batcher stopped before execution")
                )

    def __enter__(self) -> "RecoveryBatcher":
        return self.start() if not self.running else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, request: RecoveryRequest) -> "Future[dict]":
        """Enqueue *request*; its future resolves to the executor's
        per-request result object.

        Raises :class:`ServiceOverloadError` (with ``retry_after``)
        when accepting the request would exceed the queue limit, and
        :class:`ServiceError` when the batcher is not running.
        """
        job = _Job(request)
        with self._cond:
            if self._stop or self._thread is None:
                raise ServiceError(
                    "recovery batcher is not running; submit() refused"
                )
            if self._queued_words + job.words > self._queue_limit:
                self._c_overloads.inc()
                queued = self._queued_words
                raise ServiceOverloadError(
                    queued, self._queue_limit, self._retry_after_locked()
                )
            self._queue.append(job)
            self._queued_words += job.words
            self._g_depth.set(self._queued_words)
            self._cond.notify()
        return job.future

    def _retry_after_locked(self) -> float:
        estimate = self._queued_words * self._seconds_per_word
        return min(max(estimate, 0.001), 5.0)

    # ------------------------------------------------------------------
    # Consumer side (worker thread)
    # ------------------------------------------------------------------

    def _gather(self) -> list[_Job] | None:
        """Block for work, then take what is queued; ``None`` means
        shut down.

        The batch is the queue's head job plus every following job
        that still fits in ``max_batch`` words; it never waits for
        more to arrive.
        """
        with self._cond:
            while not self._queue:
                if self._stop:
                    return None
                self._cond.wait()
            batch = [self._queue.popleft()]
            words = batch[0].words
            while (
                self._queue
                and words + self._queue[0].words <= self._max_batch
            ):
                batch.append(self._queue.popleft())
                words += batch[-1].words
            self._queued_words -= words
            self._g_depth.set(self._queued_words)
        return batch

    def _worker(self) -> None:
        while True:
            batch = self._gather()
            if batch is None:
                return
            self._run_batch(batch)

    def _run_batch(self, batch: list[_Job]) -> None:
        # Standard future handshake: claim each job, shedding the ones
        # a timed-out client already cancelled.
        live = [
            job for job in batch if job.future.set_running_or_notify_cancel()
        ]
        words = sum(job.words for job in live)
        self._h_batch_words.observe(words)
        self._c_batches.inc()
        if not live:
            return
        exec_start_ns = time.perf_counter_ns()
        for job in live:
            self._h_stage_queue_wait.observe(
                max(exec_start_ns - job.enqueued_ns, 0) / 1e9
            )
        # Traced jobs get a per-request shard_exec span minted *now* so
        # the executor (possibly in another process) can parent its own
        # spans under it; the context rides inside the request.
        collector = obs_trace.current_collector()
        exec_span_ids: dict[int, int] = {}
        requests = []
        for job in live:
            context = job.request.trace
            if context is not None and collector is not None:
                exec_id = obs_trace.new_span_id()
                exec_span_ids[id(job)] = exec_id
                requests.append(
                    replace(job.request, trace=context.child(exec_id))
                )
            else:
                requests.append(job.request)
        try:
            results = self._execute(requests)
        except BaseException as error:  # executor failed: fail the batch
            for job in live:
                job.future.set_exception(error)
            return
        exec_end_ns = time.perf_counter_ns()
        elapsed = (exec_end_ns - exec_start_ns) / 1e9
        self._h_batch_seconds.observe(elapsed)
        for _ in live:
            self._h_stage_shard_exec.observe(elapsed)
        if words:
            observed = elapsed / words
            self._seconds_per_word += _EWMA_ALPHA * (
                observed - self._seconds_per_word
            )
        if len(results) != len(live):
            error = ServiceError(
                f"batch executor returned {len(results)} result lists "
                f"for {len(live)} requests"
            )
            for job in live:
                job.future.set_exception(error)
            return
        for job, result in zip(live, results):
            self._record_job_spans(
                collector, job, result, exec_span_ids,
                exec_start_ns, exec_end_ns,
            )
            job.future.set_result(result)

    @staticmethod
    def _record_job_spans(
        collector: obs_trace.SpanCollector | None,
        job: _Job,
        result: object,
        exec_span_ids: dict[int, int],
        exec_start_ns: int,
        exec_end_ns: int,
    ) -> None:
        """Record one job's stage spans and re-parent shipped worker
        spans into the parent collector.

        Worker spans arrive inside the outcome dict as plain
        ``{"name", "rel_start_ns", "rel_end_ns", "span_id",
        "parent_id", "trace_id"}`` records, timed relative to the
        worker's own execute start (its clock is not ours).  Rebasing
        them onto the parent-observed execute window keeps every child
        inside its ``service.stage.shard_exec`` parent: the worker's
        own execute wall is strictly shorter than the parent-observed
        one (which also pays the IPC), so ``rel_end_ns`` never
        overruns the window.
        """
        shipped = (
            result.pop("spans", None) if isinstance(result, dict) else None
        )
        context = job.request.trace
        if collector is None or context is None:
            return
        exec_id = exec_span_ids.get(id(job))
        if exec_id is None:
            return
        root_id, trace_id = context.span_id, context.trace_id
        collector.record(obs_trace.Span(
            name="service.stage.queue_wait",
            start_ns=job.enqueued_ns,
            end_ns=max(exec_start_ns, job.enqueued_ns),
            depth=1, span_id=obs_trace.new_span_id(),
            parent_id=root_id, trace_id=trace_id,
        ))
        collector.record(obs_trace.Span(
            name="service.stage.shard_exec",
            start_ns=exec_start_ns, end_ns=exec_end_ns,
            depth=1, span_id=exec_id,
            parent_id=root_id, trace_id=trace_id,
        ))
        if shipped:
            window = exec_end_ns - exec_start_ns
            for raw in shipped:
                rel_end = min(int(raw["rel_end_ns"]), window)
                rel_start = min(int(raw["rel_start_ns"]), rel_end)
                collector.record(obs_trace.Span(
                    name=str(raw["name"]),
                    start_ns=exec_start_ns + rel_start,
                    end_ns=exec_start_ns + rel_end,
                    depth=2,
                    span_id=int(raw["span_id"]),
                    parent_id=int(raw["parent_id"]),
                    trace_id=str(raw["trace_id"]),
                ))


def _aggregate_queue_depth_collector() -> None:
    """Derive the aggregate ``service.queue_depth`` from shard gauges.

    In sharded mode each queue owns a ``service.shard.<i>.queue_depth``
    gauge; dashboards built against the single-process service still
    read one total, so it is summed here at snapshot time — never on
    the submit hot path.  When no shard gauges exist (single-process
    mode) the collector leaves the batcher-owned gauge alone.
    """
    registry = obs_metrics.get_registry()
    total = 0.0
    found = False
    for name in registry.names():
        if not (
            name.startswith("service.shard.")
            and name.endswith(".queue_depth")
        ):
            continue
        metric = registry.get(name)
        if isinstance(metric, obs_metrics.Gauge):
            found = True
            total += metric.value
    if found:
        registry.gauge(
            "service.queue_depth",
            help="Words queued for recovery (bounded by the queue limit)",
        ).set(total)


obs_metrics.add_collector(_aggregate_queue_depth_collector)


class ShardedBatcher:
    """Route requests over N single-consumer shard queues.

    The multi-process counterpart of :class:`RecoveryBatcher`: one
    shard queue (its own ``RecoveryBatcher`` + worker thread) per
    :class:`~repro.service.shards.ShardPool` shard, with requests
    placed by the pool's (code, context) hash.  Placement and queueing
    use the same hash, so ordering per context is preserved end to end
    and a shard's engine only ever sees its own contexts.

    Backpressure is per shard: the configured ``queue_limit`` divides
    evenly across shards, and a full shard queue rejects with
    :class:`~repro.errors.ServiceOverloadError` even while siblings
    are idle — deliberately, because queueing a hot context behind a
    different shard would break cache affinity and per-context
    ordering.

    Shard death surfaces here as a failed batch future carrying
    :class:`~repro.errors.ShardFailureError` (after the pool's
    respawn-and-requeue policy), which the HTTP layer maps to the
    overload policy.  The pool's lifecycle is owned by the caller;
    ``stop`` drains and stops the shard queues only.
    """

    def __init__(
        self,
        pool: ShardPool,
        max_batch: int = 256,
        queue_limit: int = 4096,
        registry: obs_metrics.MetricsRegistry | None = None,
    ) -> None:
        if queue_limit < pool.workers:
            raise ServiceError(
                f"queue_limit {queue_limit} cannot cover "
                f"{pool.workers} shard queues"
            )
        self._pool = pool
        per_shard_limit = queue_limit // pool.workers
        self._shards = [
            RecoveryBatcher(
                partial(pool.execute, index),
                max_batch=max_batch,
                queue_limit=per_shard_limit,
                registry=registry,
                metric_prefix=f"service.shard.{index}",
            )
            for index in range(pool.workers)
        ]

    # ------------------------------------------------------------------
    # Introspection (RecoveryBatcher-compatible surface)
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        """True while every shard queue's worker thread is up."""
        return all(shard.running for shard in self._shards)

    @property
    def queue_limit(self) -> int:
        """Total queued-word bound, summed across shard queues."""
        return sum(shard.queue_limit for shard in self._shards)

    def queued_words(self) -> int:
        """Words waiting across all shard queues."""
        return sum(shard.queued_words() for shard in self._shards)

    def shard_queue_depths(self) -> list[int]:
        """Per-shard queued words, by shard index (stats endpoint)."""
        return [shard.queued_words() for shard in self._shards]

    def retry_after_hint(self) -> float:
        """Backoff hint from the most backlogged shard queue."""
        return max(shard.retry_after_hint() for shard in self._shards)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "ShardedBatcher":
        """Start every shard queue's worker thread; returns ``self``."""
        for shard in self._shards:
            shard.start()
        return self

    def stop(self) -> None:
        """Drain and stop every shard queue (idempotent)."""
        for shard in self._shards:
            shard.stop()

    def __enter__(self) -> "ShardedBatcher":
        return self.start() if not self.running else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, request: RecoveryRequest) -> "Future[dict]":
        """Enqueue *request* on its (code, context) shard queue."""
        index = self._pool.route(request.code_id, request.context_id)
        return self._shards[index].submit(request)
