"""Lightweight tracing spans around pipeline stages and requests.

A span measures the wall-clock time (``time.perf_counter_ns``) spent in
a ``with`` block and records it — with its nesting depth and parent —
into the active :class:`SpanCollector`.  Collection is **opt-in**: until
:func:`enable_tracing` installs a collector, :func:`span` returns a
shared no-op context manager and instrumented code pays only a function
call and an attribute read per stage.

Spans nest naturally::

    with span("sweep.run"):
        with span("swdecc.recover"):
            ...

and the collector's :meth:`SpanCollector.summary` aggregates per-name
count/total/min/max/mean for the stage-latency tables that ``repro
stats`` and ``--profile`` print.

On top of the in-process spans sits **request-scoped tracing** for the
recovery service (Dapper-style):

- :class:`TraceContext` is a ``(trace_id, span_id, sampled)`` triple.
  It parses from and renders to the W3C ``traceparent`` header
  (``00-<32 hex trace id>-<16 hex span id>-<2 hex flags>``), so
  external callers can correlate their own traces with ours.
- Trace-scoped span ids are *random* 63-bit integers
  (:func:`new_span_id`), not the collector's sequential counter.
- :meth:`SpanCollector.record_trace` takes one finished request's
  spans, built together by the caller once the request ends, and
  keeps them as a :class:`TraceEntry` in the collector's bounded
  :class:`TraceBuffer` — the slowest N requests by end-to-end latency,
  each with its full span tree (``GET /traces``, ``repro trace``).

The collector itself is bounded: raw spans are retained in a deque of
``max_spans`` while :meth:`SpanCollector.summary` stays *exact* via an
incrementally maintained per-name aggregate, so a long-lived
``serve-recovery`` run with tracing enabled holds steady-state memory.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "Span",
    "SpanCollector",
    "TraceBuffer",
    "TraceContext",
    "TraceEntry",
    "span",
    "enable_tracing",
    "disable_tracing",
    "tracing_enabled",
    "current_collector",
    "new_trace_id",
    "new_span_id",
    "parse_traceparent",
    "format_span_id",
    "spans_to_forest",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_TRACE_CAPACITY",
]

#: Raw spans retained by a collector (aggregates stay exact beyond it).
DEFAULT_MAX_SPANS = 10_000

#: Slow-request trace entries retained by a collector's buffer.
DEFAULT_TRACE_CAPACITY = 64

#: The only ``traceparent`` version we speak (the W3C-defined one).
_TRACEPARENT_VERSION = "00"


# ----------------------------------------------------------------------
# Trace identity and W3C traceparent propagation
# ----------------------------------------------------------------------


def new_trace_id() -> str:
    """A random 32-hex-char (128-bit) trace id, never all zeros."""
    while True:
        trace_id = os.urandom(16).hex()
        if trace_id != "0" * 32:
            return trace_id


def new_span_id() -> int:
    """A random nonzero 63-bit span id.

    Random (not sequential) because the id leaves the process in
    ``traceparent`` headers, where it must not repeat across requests,
    restarts or the callers' own spans of the same trace; 63 bits
    keeps them positive ints that render as 16 hex chars.
    """
    while True:
        span_id = int.from_bytes(os.urandom(8), "big") >> 1
        if span_id:
            return span_id


def format_span_id(span_id: int) -> str:
    """The 16-hex-char wire spelling of a span id."""
    return format(span_id & ((1 << 64) - 1), "016x")


class TraceContext(NamedTuple):
    """One request's trace identity: where new child spans attach.

    ``sampled`` False means the id is propagated for correlation but
    no spans are recorded for it.
    """

    trace_id: str
    span_id: int
    sampled: bool = True

    @classmethod
    def new(cls, sampled: bool = True) -> "TraceContext":
        """A fresh root context with random ids."""
        return cls(new_trace_id(), new_span_id(), sampled)

    def to_traceparent(self) -> str:
        """Render as a W3C ``traceparent`` header value."""
        flags = "01" if self.sampled else "00"
        return (
            f"{_TRACEPARENT_VERSION}-{self.trace_id}-"
            f"{format_span_id(self.span_id)}-{flags}"
        )


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a W3C ``traceparent`` header; ``None`` when malformed.

    Accepts ``version-traceid-parentid-flags`` with a 2-hex version
    (not ``ff``), 32-hex trace id, 16-hex parent span id, and 2-hex
    flags; all-zero ids are invalid per the spec.  Unknown versions
    with extra trailing fields are tolerated (forward compatibility),
    malformed values are ignored rather than failing the request.
    """
    if not header:
        return None
    parts = header.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, parent_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or version.lower() == "ff":
        return None
    if len(parts) > 4 and version == _TRACEPARENT_VERSION:
        return None  # version 00 defines exactly four fields
    if len(trace_id) != 32 or len(parent_id) != 16 or len(flags) != 2:
        return None
    try:
        span_id = int(parent_id, 16)
        int(trace_id, 16)
        flag_bits = int(flags, 16)
        int(version, 16)
    except ValueError:
        return None
    if span_id == 0 or trace_id == "0" * 32:
        return None
    if trace_id.lower() != trace_id or parent_id.lower() != parent_id:
        return None  # the spec mandates lowercase hex
    return TraceContext(trace_id, span_id, bool(flag_bits & 0x01))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One finished timing span.

    Attributes
    ----------
    name:
        Stage name (``swdecc.filter``, ``service.stage.queue_wait``, ...).
    start_ns / end_ns:
        ``perf_counter_ns`` readings at entry and exit.
    depth:
        Nesting depth at the time the span opened (0 = root).
    span_id:
        Identifier assigned at entry, unique within the collector.
    parent_id:
        ``span_id`` of the enclosing span, or ``None`` for a root span.
    trace_id:
        The owning request trace, or ``None`` for plain stage spans.
    """

    name: str
    start_ns: int
    end_ns: int
    depth: int
    span_id: int
    parent_id: int | None
    trace_id: str | None = None

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds."""
        return self.end_ns - self.start_ns

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly record."""
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "depth": self.depth,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
        }


def spans_to_forest(spans: Iterable[Span]) -> list[dict]:
    """Nest *spans* into JSON-ready trees by parent linkage.

    Each node carries the wire spelling of its ids (16-hex span ids)
    plus timing, with ``children`` sorted by start time.  Spans whose
    parent is absent become roots of their own tree: the raw spans of
    ``/spans`` make many trees, a request's trace makes one.
    """
    nodes: dict[int, dict] = {}
    ordered: list[tuple[Span, dict]] = []
    for item in spans:
        node = {
            "name": item.name,
            "span_id": format_span_id(item.span_id),
            "parent_id": None,
            "trace_id": item.trace_id,
            "start_ns": item.start_ns,
            "end_ns": item.end_ns,
            "duration_ns": item.duration_ns,
            "children": [],
        }
        nodes[item.span_id] = node
        ordered.append((item, node))
    roots: list[dict] = []
    for item, node in ordered:
        parent = (
            nodes.get(item.parent_id) if item.parent_id is not None else None
        )
        if parent is None or parent is node:
            roots.append(node)
        else:
            node["parent_id"] = format_span_id(item.parent_id)
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda child: child["start_ns"])
    roots.sort(key=lambda node: node["start_ns"])
    return roots


# ----------------------------------------------------------------------
# Slow-request trace retention
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    """One finished request trace: identity plus its full span set."""

    trace_id: str
    root_span_id: int
    remote_parent_id: int | None
    duration_ns: int
    spans: tuple[Span, ...]

    def as_dict(self) -> dict[str, object]:
        """JSON tree for ``/traces``: one root, every parent present."""
        (root,) = spans_to_forest(self.spans)
        return {
            "trace_id": self.trace_id,
            "remote_parent_id": (
                format_span_id(self.remote_parent_id)
                if self.remote_parent_id is not None else None
            ),
            "duration_ns": self.duration_ns,
            "duration_ms": round(self.duration_ns / 1e6, 3),
            "span_count": len(self.spans),
            "root": root,
        }


class TraceBuffer:
    """Bounded top-N request traces by end-to-end latency.

    Thread-safe; adding beyond capacity evicts the *fastest* retained
    entry, so the buffer always holds the slowest requests seen —
    exactly the ones worth a waterfall when a tail-latency alarm fires.
    """

    def __init__(self, capacity: int = DEFAULT_TRACE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._entries: list[TraceEntry] = []

    @property
    def capacity(self) -> int:
        """Maximum retained entries."""
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def add(self, entry: TraceEntry) -> None:
        """Retain *entry*, evicting the fastest entry when full."""
        with self._lock:
            self._entries.append(entry)
            if len(self._entries) > self._capacity:
                fastest = min(
                    range(len(self._entries)),
                    key=lambda i: self._entries[i].duration_ns,
                )
                self._entries.pop(fastest)

    def slowest(self, limit: int | None = None) -> list[TraceEntry]:
        """Retained entries, slowest first (optionally the top *limit*)."""
        with self._lock:
            entries = sorted(
                self._entries, key=lambda e: e.duration_ns, reverse=True
            )
        if limit is not None:
            entries = entries[:limit]
        return entries

    def get(self, trace_id: str) -> TraceEntry | None:
        """The retained entry for *trace_id*, or ``None``."""
        with self._lock:
            for entry in self._entries:
                if entry.trace_id == trace_id:
                    return entry
        return None

    def clear(self) -> None:
        """Drop every retained entry."""
        with self._lock:
            self._entries.clear()


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------


class SpanCollector:
    """Accumulates finished spans and aggregates them per name.

    Thread-safe.  Raw spans are retained in a bounded deque
    (*max_spans*); the per-name :meth:`summary` is maintained
    incrementally and stays exact no matter how many spans the cap
    evicted.  ``with span(...)`` nesting is tracked per thread, so the
    service's handler threads cannot cross-parent each other's spans.
    """

    def __init__(
        self,
        max_spans: int = DEFAULT_MAX_SPANS,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
    ) -> None:
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans}")
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._recorded = 0
        self._aggregate: dict[str, dict[str, float]] = {}
        self.traces = TraceBuffer(trace_capacity)

    def _stack(self) -> list[tuple[str, int, int | None, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording (called by the span context manager) -----------------

    def _enter(self, name: str) -> None:
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = stack[-1][1] if stack else None
        stack.append((name, span_id, parent_id, time.perf_counter_ns()))

    def _exit(self) -> None:
        end_ns = time.perf_counter_ns()
        stack = self._stack()
        name, span_id, parent_id, start_ns = stack.pop()
        self.record(
            Span(
                name=name,
                start_ns=start_ns,
                end_ns=end_ns,
                depth=len(stack),
                span_id=span_id,
                parent_id=parent_id,
            )
        )

    def record(self, item: Span) -> None:
        """Retain one finished span.

        Updates the exact per-name aggregate and appends to the
        bounded raw-span deque.
        """
        duration = item.duration_ns
        with self._lock:
            self._spans.append(item)
            self._recorded += 1
            entry = self._aggregate.get(item.name)
            if entry is None:
                self._aggregate[item.name] = {
                    "count": 1,
                    "total_ns": duration,
                    "min_ns": duration,
                    "max_ns": duration,
                }
            else:
                entry["count"] += 1
                entry["total_ns"] += duration
                if duration < entry["min_ns"]:
                    entry["min_ns"] = duration
                if duration > entry["max_ns"]:
                    entry["max_ns"] = duration

    def record_trace(
        self,
        spans: Sequence[Span],
        root_span_id: int,
        remote_parent_id: int | None = None,
    ) -> TraceEntry:
        """Record one finished request's spans and retain its trace.

        *spans* must form one tree under the span *root_span_id*, with
        every parent present.  Each span is :meth:`record`-ed, and the
        request is offered to the slow-trace buffer as a
        :class:`TraceEntry` whose duration is the root span's.
        """
        for item in spans:
            self.record(item)
        root = next(item for item in spans if item.span_id == root_span_id)
        entry = TraceEntry(
            trace_id=root.trace_id,
            root_span_id=root_span_id,
            remote_parent_id=remote_parent_id,
            duration_ns=root.duration_ns,
            spans=tuple(sorted(spans, key=lambda s: s.start_ns)),
        )
        self.traces.add(entry)
        return entry

    # -- reading ---------------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        """Retained finished spans, in completion order (bounded)."""
        with self._lock:
            return tuple(self._spans)

    @property
    def dropped(self) -> int:
        """Finished spans evicted from raw retention by the cap."""
        with self._lock:
            return self._recorded - len(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        """Drop every finished span and aggregate (open spans unaffected)."""
        with self._lock:
            self._spans.clear()
            self._aggregate.clear()
            self._recorded = 0

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name aggregate: count, total/min/max/mean nanoseconds.

        Exact over every span recorded since the last :meth:`clear`,
        including spans the retention cap has already evicted.
        """
        with self._lock:
            aggregate = {
                name: dict(entry) for name, entry in self._aggregate.items()
            }
        for entry in aggregate.values():
            entry["mean_ns"] = entry["total_ns"] / entry["count"]
        return aggregate


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


class _LiveSpan:
    """Context manager that records into the active collector."""

    __slots__ = ("_name", "_collector")

    def __init__(self, name: str, collector: SpanCollector) -> None:
        self._name = name
        self._collector = collector

    def __enter__(self) -> "_LiveSpan":
        self._collector._enter(self._name)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._collector._exit()
        return False


_NULL_SPAN = _NullSpan()
_active: SpanCollector | None = None


def span(name: str) -> _NullSpan | _LiveSpan:
    """A context manager timing the enclosed block as *name*.

    No-op (and allocation-free) while tracing is disabled.
    """
    collector = _active
    if collector is None:
        return _NULL_SPAN
    return _LiveSpan(name, collector)


def enable_tracing(collector: SpanCollector | None = None) -> SpanCollector:
    """Install (and return) the active span collector."""
    global _active
    _active = collector if collector is not None else SpanCollector()
    return _active


def disable_tracing() -> SpanCollector | None:
    """Remove the active collector; returns it for post-hoc reading."""
    global _active
    previous = _active
    _active = None
    return previous


def tracing_enabled() -> bool:
    """True when a collector is installed."""
    return _active is not None


def current_collector() -> SpanCollector | None:
    """The active collector, or ``None``."""
    return _active
