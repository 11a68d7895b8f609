"""Exporters: text tables and JSON for metrics, spans, and events.

Rendering reuses :func:`repro.analysis.heatmap.render_table` so the
``repro stats`` / ``--profile`` output matches the look of the figure
reproductions.  :func:`to_jsonable` is the one JSON encoder the CLI's
machine-readable modes (``--json``, ``--events``) share: it flattens
dataclasses, enums, and the obs objects into plain JSON types.
"""

from __future__ import annotations

import dataclasses
import enum
import json
from collections.abc import Mapping, Sequence, Set
from typing import Any

from repro.analysis.heatmap import render_table
from repro.obs.events import EventLog
from repro.obs.metrics import Counter, Gauge, Histogram, Info, MetricsRegistry
from repro.obs.trace import SpanCollector

__all__ = [
    "to_jsonable",
    "to_json",
    "render_metrics",
    "render_spans",
    "render_events_summary",
    "render_waterfall",
    "write_events",
]


def to_jsonable(value: Any) -> Any:
    """Recursively convert *value* into plain JSON-compatible types.

    Handles dataclasses (via their fields), enums (their ``value``),
    mappings, sequences, sets, and objects exposing ``as_dict()`` or
    ``to_dict()``; everything else must already be a JSON scalar.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    for method in ("to_dict", "as_dict"):
        converter = getattr(value, method, None)
        if callable(converter) and not isinstance(value, type):
            return to_jsonable(converter())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (Sequence, Set)):
        return [to_jsonable(item) for item in value]
    return str(value)


def to_json(value: Any, indent: int | None = 2) -> str:
    """Serialize *value* through :func:`to_jsonable`."""
    return json.dumps(to_jsonable(value), indent=indent, sort_keys=True)


def render_metrics(registry: MetricsRegistry, title: str = "metrics") -> str:
    """Counters/gauges and histogram summaries as aligned tables."""
    scalar_rows: list[list[object]] = []
    histogram_rows: list[list[object]] = []
    for metric in registry:
        if isinstance(metric, Counter):
            scalar_rows.append([metric.name, "counter", metric.value])
        elif isinstance(metric, Gauge):
            scalar_rows.append([metric.name, "gauge", metric.value])
        elif isinstance(metric, Info):
            scalar_rows.append([metric.name, "info", metric.value or "-"])
        elif isinstance(metric, Histogram):
            histogram_rows.append([
                metric.name,
                metric.count,
                _sig(metric.mean),
                _sig(metric.min),
                _sig(metric.max),
                _sig(metric.sum),
            ])
    parts = []
    if scalar_rows:
        parts.append(render_table(
            ["metric", "type", "value"], scalar_rows, title=title
        ))
    if histogram_rows:
        parts.append(render_table(
            ["histogram", "count", "mean", "min", "max", "sum"],
            histogram_rows,
            title=f"{title} | distributions",
        ))
    if not parts:
        return f"{title}: (no metrics recorded)"
    return "\n\n".join(parts)


def render_spans(collector: SpanCollector, title: str = "stage latency") -> str:
    """Per-stage latency aggregates as a table, slowest total first."""
    summary = collector.summary()
    if not summary:
        return f"{title}: (no spans recorded)"
    rows = [
        [
            name,
            int(entry["count"]),
            _ms(entry["total_ns"]),
            _ms(entry["mean_ns"]),
            _ms(entry["min_ns"]),
            _ms(entry["max_ns"]),
        ]
        for name, entry in sorted(
            summary.items(), key=lambda kv: -kv[1]["total_ns"]
        )
    ]
    return render_table(
        ["stage", "count", "total ms", "mean ms", "min ms", "max ms"],
        rows,
        title=title,
    )


def render_waterfall(trace: Mapping, width: int = 48) -> str:
    """A request trace as an indented waterfall (``repro trace``).

    *trace* is one entry from ``GET /traces`` (the shape
    :meth:`repro.obs.trace.TraceEntry.as_dict` produces): each span
    prints indented under its parent with its duration and a bar
    positioned along the request's end-to-end window, so queue wait
    vs. shard execution vs. serialization reads off at a glance.
    """
    root = trace["root"]
    total_ns = max(
        int(trace.get("duration_ns") or root["duration_ns"]), 1
    )
    base_ns = int(root["start_ns"])
    header = (
        f"trace {trace['trace_id']}  "
        f"{int(trace.get('duration_ns') or root['duration_ns']) / 1e6:.3f} ms"
        f"  {trace.get('span_count', '?')} spans"
    )
    if trace.get("remote_parent_id"):
        header += f"  (remote parent {trace['remote_parent_id']})"
    lines = [header]

    def walk(node: Mapping, depth: int) -> None:
        duration_ns = int(node["duration_ns"])
        offset_ns = max(int(node["start_ns"]) - base_ns, 0)
        start_col = min(offset_ns * width // total_ns, width - 1)
        length = max(duration_ns * width // total_ns, 1)
        length = min(length, width - start_col)
        bar = (
            " " * start_col
            + "█" * length
            + " " * (width - start_col - length)
        )
        label = ("  " * depth + node["name"])[:38].ljust(38)
        lines.append(f"{label} {duration_ns / 1e6:9.3f} ms |{bar}|")
        for child in node.get("children", ()):
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def render_events_summary(log: EventLog, title: str = "DUE events") -> str:
    """A one-table digest of the retained DUE events.

    When the log has absorbed worker-process digests (``--jobs N``
    runs), the table appends the worker aggregate — the events
    themselves live in the worker rings and never cross the process
    boundary, but their digest does, so parallel profiles stay honest.
    """
    events = log.events()
    worker = log.absorbed_digest
    if not events and not worker.count:
        return f"{title}: (none recorded)"
    rows: list[list[object]] = []
    if events:
        fallbacks = sum(1 for e in events if e.filter_fell_back)
        with_truth = [e for e in events if e.recovered is not None]
        recovered = sum(1 for e in with_truth if e.recovered)
        rows += [
            ["events retained", len(events)],
            ["events total", log.total_recorded],
            ["filter fallbacks", fallbacks],
            ["mean candidates", _sig(_mean(e.num_candidates for e in events))],
            ["mean valid", _sig(_mean(e.num_valid for e in events))],
            ["mean latency us", _sig(_mean(e.latency_ns for e in events) / 1e3)],
            [
                "recovered (where truth known)",
                f"{recovered}/{len(with_truth)}" if with_truth else "n/a",
            ],
        ]
    if worker.count:
        mean_latency = worker.mean_latency_ns
        rows += [
            ["worker events (digest)", worker.count],
            ["worker filter fallbacks", worker.fallbacks],
            [
                "worker mean latency us",
                _sig(None if mean_latency is None else mean_latency / 1e3),
            ],
            [
                "worker recovered (where truth known)",
                f"{worker.recovered}/{worker.with_truth}"
                if worker.with_truth else "n/a",
            ],
        ]
    return render_table(["statistic", "value"], rows, title=title)


def write_events(path: str, log: EventLog) -> int:
    """Write the retained events to *path* as JSON lines; returns the
    number of events written."""
    text = log.to_json_lines()
    with open(path, "w", encoding="utf-8") as handle:
        if text:
            handle.write(text + "\n")
    return len(log)


def _mean(values) -> float:
    items = list(values)
    return sum(items) / len(items) if items else 0.0


def _sig(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def _ms(nanoseconds: float) -> str:
    return f"{nanoseconds / 1e6:.3f}"
