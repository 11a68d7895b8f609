"""Process-parallel fan-out with deterministic merge and obs aggregation.

The exhaustive sweeps are embarrassingly parallel — every error pattern
(and every benchmark image) is independent — but plain
``ProcessPoolExecutor`` use would silently drop the observability
counters the workers accumulate.  :func:`parallel_map` fixes both ends:

- **Determinism**: results are returned in payload order, and the
  worker metric/event aggregates are folded into the parent in that
  same submission order, so callers can concatenate chunk results and
  obtain output bit-identical to a serial run.
- **One pool per process**: the first parallel call starts a
  ``ProcessPoolExecutor`` and later calls reuse it, so a sweep that
  calls :func:`parallel_map` once per image forks its workers once.
  A call with another worker count, or made after the ``repro`` log
  handlers or level changed, shuts the old pool down and starts a new
  one (forked workers write through the handlers they inherited).  A
  forked child forgets its parent's pool, a pool broken by a dead
  worker is replaced by the next call, and the workers exit with the
  interpreter.  A process started by :mod:`multiprocessing` shuts its
  pool down after every call: its exit joins its child processes
  before any pool is told to stop, so a live pool would hang it.
- **Caller's state per task**: a worker outlives the call that forked
  it, so each task runs against a fresh registry and event log, the
  caller's energy model and event-log capacity, and a fresh context
  carrying only the log fields bound at the call.  The task's registry
  snapshot and event digest are therefore exactly its own delta.
- **Metrics**: the parent folds the task snapshots into its own
  registry with :func:`repro.obs.metrics.merge_snapshot`.
- **Events**: worker DUE event *rings* stay process-local (parallel
  chunks would interleave the bounded ring meaninglessly), but each
  task ships a fixed-size :class:`repro.obs.events.EventDigest` that
  the parent absorbs, so ``--profile`` summaries of ``--jobs N`` runs
  report worker DUE activity.
- **Liveness**: tasks complete out of order under the hood
  (``as_completed``), and the optional *on_result* callback fires as
  each one finishes — this is how sweep progress gauges advance while
  the run is in flight instead of only at merge time.

Tracing spans are opt-in diagnostics and are not shipped back — see
``docs/performance.md``.

Workers are separate processes, so the callable and every payload must
be picklable: pass module-level functions and plain data (codes,
images, and patterns all qualify).  Tasks run the program as it was
when the pool started: a function patched since then is not patched in
the workers, and one defined since then (in ``__main__``, say) cannot
be found there, which breaks the call; the next call starts a new pool.
The *on_result* callback runs in the parent and needs no such property.
"""

from __future__ import annotations

import contextvars
import logging
import multiprocessing
import os
import threading
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, TypeVar

from repro.errors import AnalysisError
from repro.obs import energy as obs_energy
from repro.obs import events as obs_events
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics

__all__ = ["chunk_evenly", "parallel_map"]

_P = TypeVar("_P")
_R = TypeVar("_R")

#: Callback invoked in the parent as each task completes (completion
#: order): ``on_result(index, result, wall_seconds)``.
OnResult = Callable[[int, Any, float], None]

#: The process's worker pool and what it was started for: (worker count,
#: ``repro`` log level, ``repro`` log handlers).
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple = ()
#: Held for a whole parallel call: calls from several threads take turns
#: on the one pool instead of replacing it under each other.
_pool_lock = threading.RLock()


def chunk_evenly(items: Sequence[_P], num_chunks: int) -> list[tuple[_P, ...]]:
    """Split *items* into at most *num_chunks* contiguous, non-empty runs.

    Chunk sizes differ by at most one, so process-pool workers receive
    balanced work; concatenating the chunks reproduces *items* exactly.
    """
    if num_chunks < 1:
        raise AnalysisError(f"num_chunks must be >= 1, got {num_chunks}")
    items = tuple(items)
    num_chunks = min(num_chunks, len(items))
    if num_chunks <= 1:
        return [items] if items else []
    base, extra = divmod(len(items), num_chunks)
    chunks = []
    start = 0
    for index in range(num_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process's pool of *workers*, started or replaced as needed."""
    global _pool, _pool_key
    root = logging.getLogger(obs_logging.ROOT_LOGGER)
    key = (workers, root.level, tuple(root.handlers))
    if _pool is not None and key != _pool_key:
        _drop_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_key = key
    return _pool


def _drop_pool() -> None:
    """Shut the pool down (after its running tasks); the next call
    starts a new one."""
    global _pool, _pool_key
    pool, _pool, _pool_key = _pool, None, ()
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)


def _forget_pool() -> None:
    # The pool's processes and threads belong to the parent: a forked
    # child starts its own pool if it needs one.
    global _pool, _pool_key, _pool_lock
    _pool, _pool_key = None, ()
    _pool_lock = threading.RLock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _bound_call(fn: Callable[[Any], Any], payload: Any, fields: dict):
    with obs_logging.bind(**fields):
        return fn(payload)


def _run_isolated(fn: Callable[[Any], Any], payload: Any, state: tuple):
    """Worker-side wrapper: run one task with the caller's obs state.

    *state* is what :func:`parallel_map` captured at the call.  The
    task gets a fresh registry, a fresh event log of the caller's
    capacity, the caller's energy model, and a fresh context holding
    only the log fields bound at the call, so nothing an earlier task
    (or the fork) left in this worker reaches the snapshot and digest,
    which are then per-task deltas the parent can add without double
    counting.
    Returns ``(result, metrics snapshot, event digest, wall seconds)``.
    """
    log_capacity, energy_model, fields = state
    registry = obs_metrics.MetricsRegistry()
    event_log = obs_events.EventLog(log_capacity)
    obs_metrics.set_registry(registry)
    obs_events.set_event_log(event_log)
    obs_energy.set_energy_model(energy_model)
    started = time.perf_counter()
    result = contextvars.Context().run(_bound_call, fn, payload, fields)
    wall_seconds = time.perf_counter() - started
    digest = obs_events.EventDigest.from_log(event_log)
    return result, registry.as_dict(), digest, wall_seconds


def parallel_map(
    fn: Callable[[_P], _R],
    payloads: Sequence[_P],
    jobs: int,
    on_result: OnResult | None = None,
) -> list[_R]:
    """Map *fn* over *payloads*, fanning out across *jobs* processes.

    Results return in payload order.  Worker metric deltas and event
    digests are merged into the parent registry/event log in that same
    order — after every task has finished — so counter totals equal a
    serial run's and last-wins metrics (gauges, info) are
    deterministic.  *on_result*, by contrast, fires in **completion
    order** as each task lands; use it for live progress, not for
    anything order-sensitive.  With ``jobs <= 1`` (or a single payload)
    the map runs in-process and metrics/events flow directly — no pool,
    no snapshot round-trip — while *on_result* still fires per payload.
    Otherwise the tasks run on the process's shared pool of
    ``min(jobs, len(payloads))`` workers (see the module docstring).

    Failure is fast: the first task exception (or one raised by
    *on_result*) cancels every not-yet-started task and re-raises
    immediately, instead of draining the remaining completions first.
    Tasks already executing in a worker run to completion (processes
    cannot be preempted safely), but no queued payload starts after
    the failure, and no worker metrics are merged from a failed map.
    A worker that dies during the call breaks the pool: the call raises
    ``BrokenProcessPool``, and the next call starts a new pool.  A call
    that finds the pool already broken (a worker died between calls)
    starts a new one before any of its tasks is queued.
    """
    if jobs < 1:
        raise AnalysisError(f"jobs must be >= 1, got {jobs}")
    payloads = list(payloads)
    if jobs <= 1 or len(payloads) <= 1:
        results = []
        for index, payload in enumerate(payloads):
            started = time.perf_counter()
            result = fn(payload)
            if on_result is not None:
                on_result(index, result, time.perf_counter() - started)
            results.append(result)
        return results
    registry = obs_metrics.get_registry()
    event_log = obs_events.get_event_log()
    state = (
        event_log.capacity,
        obs_energy.get_energy_model(),
        obs_logging.bound_fields(),
    )
    completed: list[tuple[_R, dict, obs_events.EventDigest] | None] = [
        None
    ] * len(payloads)
    workers = min(jobs, len(payloads))
    with _pool_lock:
        pool = _shared_pool(workers)
        futures: dict = {}
        try:
            for index, payload in enumerate(payloads):
                try:
                    future = pool.submit(_run_isolated, fn, payload, state)
                except BrokenProcessPool:
                    if futures:
                        raise
                    # A worker died while the pool sat idle (an OOM
                    # kill, a Ctrl-C that reached the workers too).
                    # Nothing of this call has run: start a fresh pool.
                    _drop_pool()
                    pool = _shared_pool(workers)
                    future = pool.submit(_run_isolated, fn, payload, state)
                futures[future] = index
            for future in as_completed(futures):
                index = futures[future]
                result, snapshot, digest, wall_seconds = future.result()
                completed[index] = (result, snapshot, digest)
                if on_result is not None:
                    on_result(index, result, wall_seconds)
        except BaseException as error:
            # Fail fast: don't drain the remaining completions — cancel
            # everything still queued and surface the error.
            for pending in futures:
                pending.cancel()
            if isinstance(error, BrokenProcessPool):
                _drop_pool()
            raise
        finally:
            if multiprocessing.parent_process() is not None:
                # A multiprocessing child joins its child processes at
                # exit before a pool is told to stop, so it keeps none.
                _drop_pool()
    results = []
    for entry in completed:  # submission order: the deterministic merge
        assert entry is not None  # every future resolved or raised above
        result, snapshot, digest = entry
        obs_metrics.merge_snapshot(snapshot, registry)
        event_log.absorb_digest(digest)
        results.append(result)
    return results
