"""Process-local metrics: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a flat namespace of named metrics.  The
module keeps one default registry that instrumented code fetches with
:func:`get_registry`; hot classes cache the metric *objects* at
construction time so the steady-state cost of an increment is one
attribute access and an integer add.

Collection is default-on.  To measure the cost of instrumentation
itself (``benchmarks/bench_obs_overhead.py``) install
:data:`NULL_REGISTRY`, whose metrics accept updates and discard them.

Naming convention: dotted lowercase paths, subsystem first —
``swdecc.recoveries``, ``memory.reads``, ``sweep.benchmark_wall_seconds``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping, Sequence

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Info",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
    "get_registry",
    "set_registry",
    "add_collector",
    "run_collectors",
    "merge_snapshot",
    "diff_snapshot",
]

#: Latency-style bucket upper bounds, in seconds (Prometheus defaults).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Small-integer bucket upper bounds (candidate counts, list sizes).
DEFAULT_COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 128,
)


class Counter:
    """A monotonically increasing event count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0

    @property
    def value(self) -> int | float:
        """Current count."""
        return self._value

    def inc(self, amount: int | float = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self._value += amount

    def reset(self) -> None:
        """Zero the counter (registry resets, test isolation)."""
        self._value = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot."""
        return {"type": "counter", "name": self.name, "value": self._value}


class Gauge:
    """A value that can go up and down (sizes, last-seen readings)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current reading."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the reading."""
        self._value = value

    def inc(self, amount: float = 1) -> None:
        """Adjust the reading upward."""
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        """Adjust the reading downward."""
        self._value -= amount

    def reset(self) -> None:
        """Zero the gauge."""
        self._value = 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot."""
        return {"type": "gauge", "name": self.name, "value": self._value}


class Histogram:
    """A distribution summarised by fixed buckets plus running moments.

    Buckets are *upper bounds* of cumulative-style bins; an observation
    lands in the first bucket whose bound is >= the value, or in the
    implicit overflow bucket.  ``count``/``sum``/``min``/``max`` are
    exact regardless of bucketing.
    """

    __slots__ = (
        "name", "help", "buckets", "_bucket_counts",
        "_count", "_sum", "_min", "_max",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        help: str = "",
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_TIME_BUCKETS
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs buckets")
        if list(bounds) != sorted(bounds):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be sorted: {bounds}"
            )
        self.name = name
        self.help = help
        self.buckets = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        # bisect_left lands v == bound in that bucket (le semantics)
        # and v beyond every bound in the overflow slot.
        self._bucket_counts[bisect_left(self.buckets, value)] += 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def observe_counts(self, counts: Mapping[float, int]) -> None:
        """Record each value of *counts* as many times as its count.

        The same as ``count`` :meth:`observe` calls per value, except
        that the sum is added as ``value * count`` in one step: for
        integer values that is exactly the sum the repeated calls
        reach.  A zero count records nothing.  Raises
        :class:`~repro.errors.ObservabilityError`, recording nothing,
        when any count is negative.
        """
        for value, count in counts.items():
            if count < 0:
                raise ObservabilityError(
                    f"histogram {self.name!r} cannot observe {value!r} "
                    f"{count} times"
                )
        for value, count in counts.items():
            if not count:
                continue
            self._bucket_counts[bisect_left(self.buckets, value)] += count
            self._count += count
            self._sum += value * count
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observations."""
        return self._sum

    @property
    def min(self) -> float | None:
        """Smallest observation, or ``None`` when empty."""
        return self._min

    @property
    def max(self) -> float | None:
        """Largest observation, or ``None`` when empty."""
        return self._max

    @property
    def mean(self) -> float | None:
        """Arithmetic mean, or ``None`` when empty."""
        return self._sum / self._count if self._count else None

    def bucket_counts(self) -> list[tuple[float, int]]:
        """(upper bound, count) pairs; the overflow bound is ``inf``."""
        bounds = [*self.buckets, float("inf")]
        return list(zip(bounds, self._bucket_counts))

    def quantile(self, q: float) -> float | None:
        """Bucket-resolution estimate of the *q*-quantile (0..1).

        ``q=0`` returns the exact minimum and ``q=1`` the exact maximum
        (both tracked outside the buckets); empty histograms return
        ``None``.  Otherwise the answer is the upper bound of the
        bucket holding the rank, clamped to the observed maximum —
        empty leading buckets are skipped so they can never satisfy the
        rank spuriously.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile {q} outside [0, 1]")
        if not self._count:
            return None
        if q == 0.0:
            return self._min
        rank = q * self._count
        cumulative = 0
        for bound, count in self.bucket_counts():
            if not count:
                continue
            cumulative += count
            if cumulative >= rank:
                return min(bound, self._max if self._max is not None else bound)
        return self._max

    def reset(self) -> None:
        """Drop all observations (buckets are kept)."""
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = None
        self._max = None

    def merge_dict(self, snapshot: dict) -> None:
        """Fold another histogram's :meth:`as_dict` snapshot into this one.

        Used when aggregating worker-process metrics into the parent
        registry (see :func:`merge_snapshot`).  The snapshot must have
        the same bucket bounds; merged ``count``/``sum``/``min``/``max``
        stay exact.
        """
        bounds = tuple(entry["le"] for entry in snapshot["buckets"][:-1])
        if bounds != self.buckets:
            raise ObservabilityError(
                f"histogram {self.name!r} bucket mismatch while merging: "
                f"{bounds} != {self.buckets}"
            )
        for index, entry in enumerate(snapshot["buckets"]):
            self._bucket_counts[index] += entry["count"]
        self._count += snapshot["count"]
        self._sum += snapshot["sum"]
        for bound_key, better in (("min", min), ("max", max)):
            other = snapshot[bound_key]
            if other is None:
                continue
            current = self._min if bound_key == "min" else self._max
            merged = other if current is None else better(current, other)
            if bound_key == "min":
                self._min = merged
            else:
                self._max = merged

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot."""
        return {
            "type": "histogram",
            "name": self.name,
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "buckets": [
                {"le": bound, "count": count}
                for bound, count in self.bucket_counts()
            ],
        }


class Info:
    """A string-valued annotation metric (last set wins).

    The numeric metrics cannot carry identity ("which benchmark ran
    last?") without minting one metric per identity — unbounded
    cardinality.  An info metric holds a single string instead, so hot
    loops over arbitrary names stay at O(1) registered metrics.
    """

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = ""

    @property
    def value(self) -> str:
        """Current annotation."""
        return self._value

    def set(self, value: str) -> None:
        """Replace the annotation."""
        self._value = str(value)

    def reset(self) -> None:
        """Clear the annotation."""
        self._value = ""

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly snapshot."""
        return {"type": "info", "name": self.name, "value": self._value}


#: Callbacks that refresh *derived* metrics right before a snapshot.
#: Subsystems with hot paths too cheap to instrument inline (e.g. the
#: per-instance ``MemoryStats`` counters) register a collector instead:
#: it runs when the registry is read, not when events happen.
_collectors: list = []


def add_collector(callback) -> None:
    """Register a zero-argument callback run before registry snapshots."""
    _collectors.append(callback)


def run_collectors() -> None:
    """Run every registered collector (snapshot refresh)."""
    for callback in list(_collectors):
        callback()


def _cache_hit_rate_collector() -> None:
    """Derive ``<base>.cache_hit_rate`` gauges from hit/miss counters.

    Raw hit/miss counters are what the hot paths can afford to update;
    the *ratio* operators actually read is computed here, at snapshot
    time, for every ``<base>.cache_hits`` counter in the registry —
    no per-lookup division, no extra hot-path metric.
    """
    registry = get_registry()
    for name in registry.names():
        if not name.endswith(".cache_hits"):
            continue
        base = name[: -len(".cache_hits")]
        hits_metric = registry.get(name)
        misses_metric = registry.get(f"{base}.cache_misses")
        if not isinstance(hits_metric, Counter):
            continue
        hits = hits_metric.value
        misses = misses_metric.value if isinstance(misses_metric, Counter) else 0
        total = hits + misses
        if total:
            registry.gauge(
                f"{base}.cache_hit_rate",
                help="Cache hits / lookups (derived at snapshot time)",
            ).set(hits / total)


class MetricsRegistry:
    """A flat, get-or-create namespace of metrics."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram | Info] = {}

    def _get_or_create(self, name: str, kind: type, factory):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
            return metric
        if not isinstance(metric, kind):
            raise ObservabilityError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter *name*."""
        return self._get_or_create(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge *name*."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        help: str = "",
    ) -> Histogram:
        """Get or create the histogram *name*.

        *buckets* only takes effect on creation; later calls return the
        existing histogram unchanged.
        """
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, buckets, help)
        )

    def info(self, name: str, help: str = "") -> Info:
        """Get or create the info metric *name*."""
        return self._get_or_create(name, Info, lambda: Info(name, help))

    def get(self, name: str) -> Counter | Gauge | Histogram | Info | None:
        """The metric registered under *name*, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Registered metric names, sorted."""
        return sorted(self._metrics)

    def __iter__(self):
        run_collectors()
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Zero every metric, keeping registrations (cached references
        held by instrumented objects stay valid)."""
        for metric in self._metrics.values():
            metric.reset()

    def clear(self) -> None:
        """Drop every registration.  Cached references keep updating
        their orphaned metrics; prefer :meth:`reset` between runs."""
        self._metrics.clear()

    def as_dict(self) -> dict[str, dict[str, object]]:
        """Snapshot of every metric, keyed by name."""
        run_collectors()
        return {name: self._metrics[name].as_dict() for name in self.names()}


class _NullCounter(Counter):
    """A counter that discards updates (overhead baseline)."""

    __slots__ = ()

    def inc(self, amount: int | float = 1) -> None:
        pass


class _NullGauge(Gauge):
    """A gauge that discards updates."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    """A histogram that discards observations."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        pass

    def observe_counts(self, counts: Mapping[float, int]) -> None:
        pass


class _NullInfo(Info):
    """An info metric that discards updates."""

    __slots__ = ()

    def set(self, value: str) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose metrics accept and discard all updates.

    Install with ``set_registry(NULL_REGISTRY)`` to measure (or remove)
    instrumentation cost; objects constructed afterwards cache the null
    metrics and become no-op instrumented.
    """

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, Counter, lambda: _NullCounter(name, help)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, lambda: _NullGauge(name, help))

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] | None = None,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: _NullHistogram(name, buckets, help)
        )

    def info(self, name: str, help: str = "") -> Info:
        return self._get_or_create(name, Info, lambda: _NullInfo(name, help))


add_collector(_cache_hit_rate_collector)


#: Shared no-op registry for overhead baselines.
NULL_REGISTRY = NullRegistry()

_default_registry: MetricsRegistry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the default registry; returns the previous one.

    Only objects constructed *after* the swap pick up the new registry —
    instrumented classes cache metric objects at construction time.
    """
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def diff_snapshot(
    previous: dict[str, dict[str, object]],
    current: dict[str, dict[str, object]],
) -> dict[str, dict[str, object]]:
    """The counter/histogram delta between two registry snapshots.

    This is how a long-lived shard process ships its metrics home
    incrementally: it keeps the cumulative snapshot it last shipped,
    and each batch sends only what changed since, so the parent can
    :func:`merge_snapshot` every delta without double counting.

    Only the *additive* metric kinds appear in the delta.  Counters
    carry the value difference (zero-delta counters are omitted);
    histograms carry per-bucket/count/sum differences, with ``min`` /
    ``max`` left at their cumulative values — both are monotone over a
    metric's lifetime, and the parent's merge takes ``min``/``max``
    again, so repeated shipping stays exact.  Gauges and info metrics
    are last-wins readings owned by whichever process set them; deltas
    have no meaning for them, so they never leave the shard.
    """
    delta: dict[str, dict[str, object]] = {}
    for name in current:
        data = current[name]
        kind = data.get("type")
        prior = previous.get(name)
        if kind == "counter":
            changed = data["value"] - (
                prior["value"] if prior is not None else 0
            )
            if changed:
                delta[name] = {
                    "type": "counter", "name": name, "value": changed
                }
        elif kind == "histogram":
            if prior is None:
                if data["count"]:
                    delta[name] = data
                continue
            if data["count"] == prior["count"]:
                continue
            buckets = [
                {"le": entry["le"], "count": entry["count"] - old["count"]}
                for entry, old in zip(data["buckets"], prior["buckets"])
            ]
            delta[name] = {
                "type": "histogram",
                "name": name,
                "count": data["count"] - prior["count"],
                "sum": data["sum"] - prior["sum"],
                "min": data["min"],
                "max": data["max"],
                "mean": None,
                "buckets": buckets,
            }
    return delta


def merge_snapshot(
    snapshot: dict[str, dict[str, object]],
    registry: MetricsRegistry | None = None,
) -> None:
    """Fold an :meth:`MetricsRegistry.as_dict` snapshot into *registry*.

    This is how the process-parallel sweep aggregates worker metrics:
    each worker resets its (fork-copied) registry, runs its task,
    snapshots, and ships the snapshot back; the parent merges them in
    task order.  Counters and histograms accumulate; gauges and info
    metrics take the snapshot's value (last merge wins), which is
    deterministic because the parent merges in submission order.
    """
    registry = registry if registry is not None else get_registry()
    for name in sorted(snapshot):
        data = snapshot[name]
        kind = data.get("type")
        if kind == "counter":
            registry.counter(name).inc(data["value"])
        elif kind == "gauge":
            registry.gauge(name).set(data["value"])
        elif kind == "info":
            registry.info(name).set(data["value"])
        elif kind == "histogram":
            bounds = tuple(entry["le"] for entry in data["buckets"][:-1])
            registry.histogram(name, buckets=bounds).merge_dict(data)
        else:
            raise ObservabilityError(
                f"cannot merge metric {name!r} of unknown type {kind!r}"
            )
