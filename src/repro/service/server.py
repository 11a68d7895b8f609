"""The DUE-recovery HTTP service: batched recovery over a JSON API.

:class:`RecoveryService` is the online face of the engine — the paper
frames SWD-ECC as an *on-demand* recovery path invoked when the memory
controller reports a DUE, and this server is that path as a long-lived
process:

- ``POST /recover`` — one received word; returns the ranked recovery
  targets (or a detect-only payload under overload/timeout).
- ``POST /recover/batch`` — many words under one (code, context).
- ``GET /healthz`` — liveness plus queue/overload/shard state.
- ``GET /metrics`` (and ``/metrics.json``, ``/events``, ``/spans``,
  ``/traces``) — the shared observability endpoints: the service *is*
  an :class:`~repro.obs.server.ObsServer`, and every component records
  to the process's registry and event log, so one scrape sees
  ``service.*`` next to ``swdecc.*``, ``ops.*`` and ``energy.*``.

Requests flow through a :class:`~repro.service.batcher.RecoveryBatcher`
(bounded queue, micro-batching) and are executed against
:class:`~repro.service.catalog.ServiceCatalog` engines by a
:class:`~repro.service.shards.BatchEngine` — in-process by default
(``workers=0``), or across a pre-forked
:class:`~repro.service.shards.ShardPool` of worker processes
(``workers=N``) with a :class:`~repro.service.batcher.ShardedBatcher`
routing each (code, context) to its pinned shard.  Either way the
executor returns pre-serialized JSON fragments, which the HTTP layer
splices into response bodies without re-serializing.

Graceful degradation is explicit: a full queue either rejects with 429
+ ``Retry-After`` (policy ``"reject"``) or answers detect-only (policy
``"degrade"``, the default) — the DUE is still *reported*, mirroring
the paper's crash-is-the-baseline framing, but no request ever queues
without bound.  Per-request timeouts degrade the same way and cancel
the abandoned work.  A shard that dies is respawned and its batch
requeued once; if that fails too, the request degrades or 429s under
the same policy, and ``/healthz`` turns non-200 naming the unhealthy
shards until they are back.

It reuses :class:`~repro.obs.server.ObsServer`'s stdlib
:class:`~http.server.ThreadingHTTPServer` lifecycle; binds loopback by
default and supports ``port=0`` for tests.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from concurrent.futures import TimeoutError as FutureTimeoutError
from urllib.parse import urlparse

from repro.errors import (
    ServiceError,
    ServiceOverloadError,
    ShardFailureError,
)
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import server as obs_server
from repro.obs import trace as obs_trace
from repro.service import api
from repro.service.batcher import Job, RecoveryBatcher, ShardedBatcher
from repro.service.catalog import ServiceCatalog
from repro.service.selector import AdaptiveCodeSelector
from repro.service.shards import BatchEngine, ShardPool, ShardSpec

__all__ = ["RecoveryService"]

#: Reject request bodies beyond this size outright (DoS hygiene; a
#: maximal legal batch is far smaller).
_MAX_BODY_BYTES = 8 << 20


class _RequestTrace:
    """One request's trace: the only code that builds request spans.

    Created at ingress by :meth:`RecoveryService.trace_ingress` —
    every POST gets one, so a ``traceparent`` response header is
    always emitted — but spans are recorded only while a collector is
    installed *and* the inbound header (if any) asked for sampling.
    While the request runs, the handler notes the batcher's executed
    :class:`~repro.service.batcher.Job` (``job``) and the serialize
    and respond windows (:meth:`stage`).  ``finish`` builds the
    ``service.request`` root and its children from those readings and
    records them with one collector call; it is idempotent and runs
    in a ``finally``.
    """

    __slots__ = (
        "context", "remote_parent_id", "collector",
        "root_start_ns", "job", "_stages", "_finished",
    )

    def __init__(
        self,
        context: obs_trace.TraceContext,
        remote_parent_id: int | None,
        collector: obs_trace.SpanCollector | None,
    ) -> None:
        self.context = context
        self.remote_parent_id = remote_parent_id
        self.collector = collector
        self.root_start_ns = time.perf_counter_ns()
        self.job: Job | None = None
        self._stages: list[tuple[str, int, int]] = []
        self._finished = False

    @property
    def traceparent(self) -> str:
        """The outbound ``traceparent`` response header value."""
        return self.context.to_traceparent()

    def stage(self, name: str, start_ns: int, end_ns: int) -> None:
        """Note one HTTP-layer stage span under the root (if recording)."""
        if self.collector is not None:
            self._stages.append((name, start_ns, end_ns))

    def finish(self, end_ns: int | None = None) -> None:
        """Build and record the request's spans (idempotent)."""
        if self._finished:
            return
        self._finished = True
        collector = self.collector
        if collector is None:
            return
        if end_ns is None:
            end_ns = time.perf_counter_ns()
        trace_id, root_id = self.context.trace_id, self.context.span_id

        def child(
            name: str, start_ns: int, end_ns: int,
            parent_id: int = root_id, depth: int = 1,
        ) -> obs_trace.Span:
            return obs_trace.Span(
                name, start_ns, max(end_ns, start_ns), depth,
                obs_trace.new_span_id(), parent_id, trace_id,
            )

        spans = [obs_trace.Span(
            "service.request", self.root_start_ns,
            max(end_ns, self.root_start_ns), 0, root_id, None, trace_id,
        )]
        job = self.job
        if job is not None:
            exec_start_ns, exec_end_ns = job.exec_ns
            shard_exec = child(
                "service.stage.shard_exec", exec_start_ns, exec_end_ns
            )
            spans += [
                child(
                    "service.stage.queue_wait", job.enqueued_ns,
                    exec_start_ns,
                ),
                shard_exec,
            ]
            if job.engine_ns is not None:
                # Offsets from the executor's own start, rebased onto
                # the window observed here.  A shard worker's window is
                # shorter than ours (ours also pays the IPC), so the
                # clamp only guards the span's nesting.
                rel_start, rel_end = job.engine_ns
                rel_end = min(rel_end, exec_end_ns - exec_start_ns)
                spans.append(child(
                    "service.shard.execute",
                    exec_start_ns + min(rel_start, rel_end),
                    exec_start_ns + rel_end,
                    parent_id=shard_exec.span_id, depth=2,
                ))
        spans += [child(*stage) for stage in self._stages]
        collector.record_trace(spans, root_id, self.remote_parent_id)


class _RecoveryRequestHandler(obs_server._ObsRequestHandler):
    """The shared GET endpoints plus ``POST /recover[/batch]``, routed
    to the owning :class:`RecoveryService`."""

    server_version = "repro-recovery/1.0"
    protocol_version = "HTTP/1.1"
    # Small JSON responses over keep-alive connections otherwise hit
    # the Nagle/delayed-ACK interaction (~40 ms per round-trip).
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        service: RecoveryService = self.server.obs  # type: ignore[attr-defined]
        url = urlparse(self.path)
        if url.path not in ("/recover", "/recover/batch"):
            # The body stays unread: close the connection rather than
            # parse it as the next request.
            self._reply(404, "application/json",
                        json.dumps({"error": f"no such endpoint: {url.path}"})
                        + "\n", {"Connection": "close"})
            return
        trace = service.trace_ingress(self.headers.get("traceparent"))
        try:
            try:
                # handle_recover returns a fully serialized body:
                # success responses are spliced from cached JSON
                # fragments, and re-serializing them here would cost
                # more than the recovery itself on the cache-hit path.
                status, body, headers = service.handle_recover(
                    self._read_body(),
                    batch=url.path.endswith("/batch"),
                    trace=trace,
                )
            except BrokenPipeError:  # pragma: no cover - client went away
                return
            except ServiceError as error:
                status, headers = 400, {}
                body = (
                    json.dumps({"error": str(error)}, sort_keys=True) + "\n"
                )
            except Exception as error:  # pragma: no cover - defensive
                status, headers = 500, {}
                body = (
                    json.dumps({"error": str(error)}, sort_keys=True) + "\n"
                )
            headers = {**headers, "traceparent": trace.traceparent}
            if self.close_connection:
                headers["Connection"] = "close"
            respond_start_ns = time.perf_counter_ns()
            try:
                self._reply(status, "application/json", body, headers)
            except BrokenPipeError:  # pragma: no cover - client went away
                pass
            respond_end_ns = time.perf_counter_ns()
            service.observe_respond(trace, respond_start_ns, respond_end_ns)
            trace.finish(respond_end_ns)
        finally:
            trace.finish()

    def _read_body(self) -> bytes:
        # On every error below, whatever body was sent stays unread:
        # close the connection rather than parse it as the next request.
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.close_connection = True
            raise ServiceError("bad Content-Length header")
        if length <= 0:
            self.close_connection = True
            raise ServiceError("request needs a JSON body")
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit"
            )
        return self.rfile.read(length)


class RecoveryService(obs_server.ObsServer):
    """Serve batched DUE recovery over HTTP.

    An :class:`~repro.obs.server.ObsServer` whose handler adds the
    ``POST`` routes and whose :meth:`healthz` reports queue and shard
    state.  Like every instrumented component it records to the
    process's registry and event log as of construction (swap them
    with :func:`~repro.obs.metrics.set_registry` and
    :func:`~repro.obs.events.set_event_log` before building it); the
    catalog engines bind theirs when the first request builds them.

    Parameters
    ----------
    catalog:
        Code/context resolution (default: a fresh
        :class:`ServiceCatalog`).
    host / port:
        Bind address; port 0 picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    max_batch / queue_limit:
        Micro-batching knobs, forwarded to the
        :class:`RecoveryBatcher`.
    workers:
        ``0`` (default) executes batches in-process on the batcher's
        worker thread.  ``N >= 1`` pre-forks N shard processes at
        :meth:`start`, each owning its own catalog and engines, and
        routes batches to them by (code, context) hash; the
        ``queue_limit`` then divides across per-shard queues.
    overload_policy:
        ``"degrade"`` answers detect-only when the queue is full;
        ``"reject"`` answers 429 with a ``Retry-After`` hint.
    default_timeout_s:
        How long a request waits for its batch before degrading, when
        the request does not carry its own ``timeout_ms``.
    report_cost:
        Attach a per-request ``cost`` block (op-count deltas, modeled
        joules) to successful ``/recover`` payloads.  Off by default:
        the block reveals how much work each word cost, which callers
        do not usually need.  Batch-level ``service.batch_ops`` /
        ``service.batch_joules`` histograms are recorded regardless.
    selector:
        Optional :class:`~repro.service.selector.AdaptiveCodeSelector`
        polled after each served request, so its ``selector.*``
        families stay fresh on /metrics.  Advisory only: request code
        ids are never rewritten, so served answers remain bit-identical
        to serial engines.
    """

    handler_class = _RecoveryRequestHandler

    def __init__(
        self,
        catalog: ServiceCatalog | None = None,
        host: str = "127.0.0.1",
        port: int = 9200,
        max_batch: int = 256,
        queue_limit: int = 4096,
        workers: int = 0,
        overload_policy: str = "degrade",
        default_timeout_s: float = 2.0,
        report_cost: bool = False,
        selector: "AdaptiveCodeSelector | None" = None,
    ) -> None:
        if overload_policy not in ("degrade", "reject"):
            raise ServiceError(
                f"overload_policy must be 'degrade' or 'reject', "
                f"got {overload_policy!r}"
            )
        if default_timeout_s <= 0:
            raise ServiceError(
                f"default_timeout_s must be > 0, got {default_timeout_s}"
            )
        if workers < 0:
            raise ServiceError(f"workers must be >= 0, got {workers}")
        super().__init__(host, port)
        self._catalog = catalog if catalog is not None else ServiceCatalog()
        self._max_batch = max_batch
        self._queue_limit = queue_limit
        self._workers = workers
        self._overload_policy = overload_policy
        self._default_timeout_s = default_timeout_s
        self._report_cost = report_cost
        self._selector = selector
        self._pool: ShardPool | None = None
        self._batcher: RecoveryBatcher | ShardedBatcher | None = None
        self._engine: BatchEngine | None = None
        if workers == 0:
            # In-process mode: the batcher's worker thread is the
            # single consumer of one BatchEngine's catalog engines.
            self._engine = BatchEngine(
                self._catalog, report_cost=report_cost
            )
            self._batcher = RecoveryBatcher(
                self._engine.execute,
                max_batch=max_batch,
                queue_limit=queue_limit,
            )
        # workers >= 1: the pool and sharded batcher are built in
        # start(), after registrations settle and before any server
        # thread exists (forking from a threaded parent is how stdlib
        # locks end up held forever in the child).
        registry = obs_metrics.get_registry()
        self._c_requests = registry.counter(
            "service.requests", help="Recovery requests received"
        )
        self._c_degraded = registry.counter(
            "service.degraded",
            help="Requests answered detect-only (overload or timeout)",
        )
        self._c_rejections = registry.counter(
            "service.rejections",
            help="Requests rejected with 429 under the reject policy",
        )
        self._c_timeouts = registry.counter(
            "service.timeouts",
            help="Requests that timed out waiting for their batch",
        )
        self._h_request_seconds = registry.histogram(
            "service.request_seconds",
            help="End-to-end request latency (parse to response body)",
        )
        # The HTTP-layer halves of the per-request stage decomposition
        # (the batcher owns queue_wait / shard_exec).
        self._h_stage_serialize = registry.histogram(
            "service.stage.serialize",
            help="Per request: response-body construction "
            "(fragment splice / degradation payload)",
        )
        self._h_stage_respond = registry.histogram(
            "service.stage.respond",
            help="Per request: writing the HTTP response to the socket",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def catalog(self) -> ServiceCatalog:
        """The code/context catalog answering this server's requests."""
        return self._catalog

    @property
    def workers(self) -> int:
        """Configured shard processes (0 = in-process execution)."""
        return self._workers

    @property
    def selector(self) -> AdaptiveCodeSelector | None:
        """The advisory code selector, when one was attached."""
        return self._selector

    @property
    def batcher(self) -> RecoveryBatcher | ShardedBatcher:
        """The underlying micro-batcher (exposed for tests/tuning).

        In sharded mode the batcher only exists while the service is
        running (it is built against the live shard pool).
        """
        if self._batcher is None:
            raise ServiceError(
                "sharded batcher exists only while the service runs"
            )
        return self._batcher

    @property
    def shard_pool(self) -> ShardPool | None:
        """The live shard pool, or ``None`` (in-process / stopped)."""
        return self._pool

    def start(self) -> "RecoveryService":
        """Fork shards (if any), start the batcher, then bind and serve.

        Strictly ordered: shard processes fork and pre-warm *before*
        the batcher worker and HTTP threads exist, so every fork
        happens from an effectively single-threaded parent.  A step
        that fails (a busy port, a shard that cannot start) undoes the
        steps before it and re-raises, so nothing is left running.
        """
        if self.running:
            raise ServiceError("RecoveryService is already running")
        try:
            if self._workers >= 1:
                spec = ShardSpec.from_catalog(
                    self._catalog,
                    preload=self._catalog.built_benchmark_context_ids(),
                    report_cost=self._report_cost,
                )
                # The spec above is the workers' view of the catalog
                # for the pool's whole lifetime; reject registrations
                # that could never reach them (thawed again on stop).
                self._catalog.freeze(
                    f"{self._workers} shard worker(s) forked with a "
                    "registration snapshot at service start"
                )
                self._pool = ShardPool(self._workers, spec)
                self._pool.start()
                self._batcher = ShardedBatcher(
                    self._pool,
                    max_batch=self._max_batch,
                    queue_limit=self._queue_limit,
                )
            assert self._batcher is not None
            self._batcher.start()
            super().start()
        except BaseException:
            self.stop()
            raise
        return self

    def stop(self) -> None:
        """Stop accepting requests, drain batcher and shards (idempotent)."""
        try:
            super().stop()
        finally:
            batcher, pool = self._batcher, self._pool
            if self._workers >= 1:
                self._batcher = None
                self._pool = None
                self._catalog.thaw()
            try:
                if batcher is not None:
                    batcher.stop()
            finally:
                if pool is not None:
                    pool.stop()

    # ------------------------------------------------------------------
    # Request handling (called from handler threads)
    # ------------------------------------------------------------------

    def trace_ingress(self, traceparent: str | None) -> _RequestTrace:
        """Open one request's trace from its inbound header (if any).

        A well-formed inbound ``traceparent`` donates its trace id (so
        the caller can correlate) and becomes the remote parent of our
        root span; otherwise fresh ids are minted.  Recording requires
        both an installed collector and the inbound sampled flag — an
        unsampled inbound header is propagated but never recorded.
        """
        inbound = obs_trace.parse_traceparent(traceparent)
        collector = obs_trace.current_collector()
        sampled_in = inbound.sampled if inbound is not None else True
        recording = collector is not None and sampled_in
        if inbound is not None:
            context = obs_trace.TraceContext(
                inbound.trace_id, obs_trace.new_span_id(), recording
            )
            remote_parent = inbound.span_id
        else:
            context = obs_trace.TraceContext.new(sampled=recording)
            remote_parent = None
        return _RequestTrace(
            context, remote_parent, collector if recording else None
        )

    def observe_respond(
        self, trace: _RequestTrace, start_ns: int, end_ns: int
    ) -> None:
        """Account the socket-write stage (histogram always, span when
        recording)."""
        self._h_stage_respond.observe(max(end_ns - start_ns, 0) / 1e9)
        trace.stage("service.stage.respond", start_ns, end_ns)

    def handle_recover(
        self, body: bytes, batch: bool, trace: _RequestTrace | None = None
    ) -> tuple[int, str, dict[str, str]]:
        """Process one POST body; returns (status, body, headers).

        The returned body is already serialized: success responses are
        spliced together from the executor's pre-serialized per-word
        fragments, so a cache-served word is never re-serialized.

        When *trace* is given (the HTTP layer always passes one), its
        trace id is bound into any structured JSON logs emitted while
        the request is handled, and the executed batch job and the
        serialize stage are noted on it.
        """
        if trace is None:
            return self._handle_recover(body, batch, None)
        with obs_logging.bind(trace_id=trace.context.trace_id):
            return self._handle_recover(body, batch, trace)

    def _handle_recover(
        self, body: bytes, batch: bool, trace: _RequestTrace | None
    ) -> tuple[int, str, dict[str, str]]:
        started = time.perf_counter()
        self._c_requests.inc()
        try:
            parsed = json.loads(body)
        except (ValueError, RecursionError) as error:
            # JSONDecodeError, a plain ValueError for an integer literal
            # past the interpreter's digit limit, or RecursionError for
            # nesting deeper than the interpreter's recursion limit.
            raise ServiceError(f"request body is not valid JSON: {error}")
        request = api.RecoveryRequest.from_json(
            parsed, batch=batch,
            width_for=lambda code_id: self._catalog.code(code_id).n,
        )
        # Resolve the context now: unknown ids are a 400, not a queued
        # failure, and the build cost is paid before entering the queue.
        self._catalog.context(request.context_id)
        batcher = self._batcher
        if batcher is None:
            raise ServiceError(
                "recovery service is not running; request refused"
            )
        try:
            future = batcher.submit(request)
        except ServiceOverloadError as overload:
            return self._overload_response(request, overload, batch, started)
        timeout = (
            request.timeout_s if request.timeout_s is not None
            else self._default_timeout_s
        )
        try:
            outcome = future.result(timeout=timeout)
        except FutureTimeoutError:
            future.cancel()  # shed the work if the batch hasn't claimed it
            self._c_timeouts.inc()
            self._c_degraded.inc()
            body_out = self._serialize_stage(
                trace, lambda: self._degraded_body(request, "timeout", batch)
            )
            self._h_request_seconds.observe(time.perf_counter() - started)
            return 200, body_out, {}
        except ShardFailureError as failure:
            # Respawn-and-requeue already ran inside the pool; reaching
            # here means the batch is unservable right now.  Same
            # client contract as overload: detect-only or 429.
            return self._shard_failure_response(
                request, failure, batch, started
            )
        if trace is not None:
            trace.job = future
        body_out = self._serialize_stage(
            trace, lambda: self._success_body(request, outcome, batch)
        )
        if self._selector is not None:
            # Incremental: cost proportional to events since last poll.
            self._selector.poll()
        self._h_request_seconds.observe(time.perf_counter() - started)
        return 200, body_out, {}

    def _serialize_stage(
        self, trace: _RequestTrace | None, build: "Callable[[], str]"
    ) -> str:
        start_ns = time.perf_counter_ns()
        body_out = build()
        end_ns = time.perf_counter_ns()
        self._h_stage_serialize.observe((end_ns - start_ns) / 1e9)
        if trace is not None:
            trace.stage("service.stage.serialize", start_ns, end_ns)
        return body_out

    def _success_body(
        self, request: api.RecoveryRequest, outcome: dict, batch: bool
    ) -> str:
        # Key order matches json.dumps(..., sort_keys=True) of the old
        # dict payload, so clients and golden tests see stable bodies.
        fragments = outcome["fragments"]
        head = (
            f'{{"code": {json.dumps(request.code_id)}, '
            f'"context": {json.dumps(request.context_id)}'
        )
        if outcome.get("cost") is not None:
            head += f', "cost": {json.dumps(outcome["cost"], sort_keys=True)}'
        head += ', "degraded": false'
        if batch:
            joined = ", ".join(fragments)
            return (
                f'{head}, "results": [{joined}], '
                f'"words": {len(fragments)}}}\n'
            )
        return f'{head}, "result": {fragments[0]}}}\n'

    def _degraded_payload(
        self, request: api.RecoveryRequest, reason: str, batch: bool,
        retry_after: float | None = None,
    ) -> dict:
        detect = [
            api.detect_only_payload(word, reason) for word in request.words
        ]
        base = {
            "code": request.code_id,
            "context": request.context_id,
            "degraded": True,
            "reason": reason,
        }
        if retry_after is not None:
            base["retry_after_s"] = round(retry_after, 4)
        if batch:
            return {**base, "words": len(detect), "results": detect}
        return {**base, "result": detect[0]}

    def _degraded_body(
        self, request: api.RecoveryRequest, reason: str, batch: bool,
        retry_after: float | None = None,
    ) -> str:
        payload = self._degraded_payload(
            request, reason, batch, retry_after=retry_after
        )
        return json.dumps(payload, sort_keys=True) + "\n"

    def _overload_response(
        self,
        request: api.RecoveryRequest,
        overload: ServiceOverloadError,
        batch: bool,
        started: float,
    ) -> tuple[int, str, dict[str, str]]:
        self._h_request_seconds.observe(time.perf_counter() - started)
        if self._overload_policy == "reject":
            self._c_rejections.inc()
            payload = {
                "error": "overloaded",
                "detail": str(overload),
                "retry_after_s": round(overload.retry_after, 4),
            }
            headers = {
                "Retry-After": str(max(1, math.ceil(overload.retry_after)))
            }
            return 429, json.dumps(payload, sort_keys=True) + "\n", headers
        self._c_degraded.inc()
        body = self._degraded_body(
            request, "overload", batch, retry_after=overload.retry_after
        )
        return 200, body, {}

    def _shard_failure_response(
        self,
        request: api.RecoveryRequest,
        failure: ShardFailureError,
        batch: bool,
        started: float,
    ) -> tuple[int, str, dict[str, str]]:
        self._h_request_seconds.observe(time.perf_counter() - started)
        if self._overload_policy == "reject":
            self._c_rejections.inc()
            payload = {
                "error": "shard-failure",
                "detail": str(failure),
                "shard": failure.shard,
                "retry_after_s": 1.0,
            }
            return (
                429,
                json.dumps(payload, sort_keys=True) + "\n",
                {"Retry-After": "1"},
            )
        self._c_degraded.inc()
        return 200, self._degraded_body(request, "shard-failure", batch), {}

    def healthz(self) -> tuple[int, str, str]:
        """Liveness plus queue/overload/shard state for probes.

        In-process mode is always 200 while up.  Sharded mode degrades
        to 503 whenever any shard is not serving, with the unhealthy
        shards named — orchestrators restart or de-route on this, and
        operators see *which* worker died without reading logs.
        """
        status = 200
        batcher = self._batcher
        body = {
            "status": "ok",
            "queue_depth": batcher.queued_words() if batcher else 0,
            "queue_limit": (
                batcher.queue_limit if batcher else self._queue_limit
            ),
            "overload_policy": self._overload_policy,
            "batching": batcher.running if batcher else False,
            "workers": self._workers,
        }
        pool = self._pool
        if pool is not None:
            states = pool.states()
            unhealthy = {
                str(index): state
                for index, state in states.items()
                if state != "ok"
            }
            body["shards"] = {
                str(index): state for index, state in states.items()
            }
            if isinstance(batcher, ShardedBatcher):
                body["shard_queue_depths"] = batcher.shard_queue_depths()
            if unhealthy:
                status = 503
                body["status"] = "degraded"
                body["unhealthy_shards"] = unhealthy
        elif self._workers >= 1:
            # Sharded service that is not running (stopped or not yet
            # started): report it as such rather than lying "ok".
            status = 503
            body["status"] = "stopped"
        return (
            status,
            "application/json",
            json.dumps(body, sort_keys=True) + "\n",
        )
