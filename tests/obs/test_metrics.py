"""Unit tests for the metrics registry: counter/gauge/histogram math."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    diff_snapshot,
    get_registry,
    merge_snapshot,
    set_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_rejects_negative_increment(self):
        counter = Counter("c")
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0

    def test_as_dict(self):
        counter = Counter("swdecc.recoveries")
        counter.inc(3)
        assert counter.as_dict() == {
            "type": "counter", "name": "swdecc.recoveries", "value": 3,
        }


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(2.5)
        gauge.dec(0.5)
        assert gauge.value == pytest.approx(12.0)


class TestHistogram:
    def test_bucket_assignment_is_le(self):
        histogram = Histogram("h", buckets=(1, 2, 4))
        for value in (0.5, 1, 1.5, 2, 4, 100):
            histogram.observe(value)
        counts = dict(histogram.bucket_counts())
        # le semantics: 0.5 and 1 land in the first bucket, 1.5 and 2
        # in the second, 4 in the third, 100 in the overflow bucket.
        assert counts[1] == 2
        assert counts[2] == 2
        assert counts[4] == 1
        assert counts[float("inf")] == 1

    def test_exact_moments(self):
        histogram = Histogram("h", buckets=(10,))
        for value in (1, 2, 3, 4):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 10
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.min == 1
        assert histogram.max == 4

    def test_empty_histogram_moments(self):
        histogram = Histogram("h", buckets=(1,))
        assert histogram.count == 0
        assert histogram.mean is None
        assert histogram.min is None and histogram.max is None

    def test_quantile_estimate(self):
        histogram = Histogram("h", buckets=(1, 2, 4, 8))
        for value in (1, 1, 2, 2, 4, 8):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 1
        assert histogram.quantile(1.0) == 8
        assert histogram.quantile(0.5) in (1, 2)

    def test_quantile_range_check(self):
        histogram = Histogram("h", buckets=(1,))
        with pytest.raises(ObservabilityError):
            histogram.quantile(1.5)

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", buckets=(2, 1))

    def test_reset_keeps_buckets(self):
        histogram = Histogram("h", buckets=(1, 2))
        histogram.observe(1.5)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.buckets == (1, 2)


class TestObserveCounts:
    """``observe_counts({value: count})`` is ``count`` ``observe(value)``
    calls per value, committed at once."""

    BUCKETS = (1, 2, 4, 8)

    def _pair(self, counts):
        batched = Histogram("h", buckets=self.BUCKETS)
        batched.observe_counts(counts)
        repeated = Histogram("h", buckets=self.BUCKETS)
        for value, count in counts.items():
            for _ in range(count):
                repeated.observe(value)
        return batched, repeated

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.integers(min_value=-3, max_value=40),
            st.integers(min_value=0, max_value=30),
            max_size=8,
        )
    )
    def test_equals_repeated_observe_for_integer_values(self, counts):
        batched, repeated = self._pair(counts)
        assert batched.as_dict() == repeated.as_dict()

    @pytest.mark.parametrize(
        "counts",
        [
            {1: 3, 2: 1, 4: 2, 8: 5},  # every value equal to a bound
            {9: 2, 1000: 1},           # overflow bucket only
            {},                        # nothing to record
            {3: 0, 5: 0},              # zero counts only
            {0: 0, 7: 4, 2: 0},        # zero counts beside a real one
        ],
    )
    def test_edge_cases_equal_repeated_observe(self, counts):
        batched, repeated = self._pair(counts)
        assert batched.as_dict() == repeated.as_dict()
        assert batched.bucket_counts() == repeated.bucket_counts()
        assert (batched.count, batched.sum, batched.min, batched.max) == (
            repeated.count, repeated.sum, repeated.min, repeated.max
        )

    def test_zero_counts_leave_min_and_max_alone(self):
        histogram = Histogram("h", buckets=self.BUCKETS)
        histogram.observe_counts({0: 0, 100: 0})
        assert histogram.min is None and histogram.max is None
        histogram.observe_counts({3: 1, 0: 0, 100: 0})
        assert (histogram.min, histogram.max) == (3, 3)

    def test_negative_count_raises_and_records_nothing(self):
        histogram = Histogram("h", buckets=self.BUCKETS)
        histogram.observe(2)
        before = histogram.as_dict()
        with pytest.raises(ObservabilityError):
            histogram.observe_counts({1: 4, 3: -1})
        assert histogram.as_dict() == before

    def test_null_registry_discards(self):
        histogram = NULL_REGISTRY.histogram("observe_counts.null", buckets=(1,))
        histogram.observe_counts({1: 5, 9: 2})
        assert histogram.count == 0
        assert histogram.min is None and histogram.max is None

    def test_snapshot_round_trips_are_unchanged(self):
        """A shard that batches its observations ships the same deltas,
        and its parent merges the same totals, as one that does not."""
        rounds = ({1: 2, 3: 1}, {9: 4}, {}, {2: 1, 8: 0})
        parents = []
        for batched in (True, False):
            shard, parent = MetricsRegistry(), MetricsRegistry()
            histogram = shard.histogram("h", buckets=self.BUCKETS)
            shipped, deltas = {}, []
            for counts in rounds:
                if batched:
                    histogram.observe_counts(counts)
                else:
                    for value, count in counts.items():
                        for _ in range(count):
                            histogram.observe(value)
                current = shard.as_dict()
                deltas.append(diff_snapshot(shipped, current))
                merge_snapshot(deltas[-1], parent)
                shipped = current
            parents.append((deltas, parent.as_dict(), shard.as_dict()))
        assert parents[0] == parents[1]
        deltas, merged, shard_total = parents[0]
        assert merged == shard_total


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ObservabilityError):
            registry.gauge("a")

    def test_reset_zeroes_but_keeps_registrations(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        counter.inc(5)
        registry.reset()
        assert counter.value == 0
        assert registry.counter("a") is counter

    def test_iteration_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.gauge("a").set(2)
        names = [metric.name for metric in registry]
        assert names == ["a", "b"]  # sorted
        snapshot = registry.as_dict()
        assert snapshot["b"]["value"] == 1

    def test_null_registry_discards(self):
        NULL_REGISTRY.counter("x").inc(100)
        assert NULL_REGISTRY.counter("x").value == 0
        NULL_REGISTRY.histogram("y", buckets=(1,)).observe(5)
        assert NULL_REGISTRY.histogram("y", buckets=(1,)).count == 0

    def test_default_registry_swap(self):
        original = get_registry()
        replacement = MetricsRegistry()
        try:
            previous = set_registry(replacement)
            assert previous is original
            assert get_registry() is replacement
        finally:
            set_registry(original)


class TestQuantileEdgeCases:
    def test_empty_returns_none_for_any_q(self):
        histogram = Histogram("h", buckets=(1, 2))
        assert histogram.quantile(0.0) is None
        assert histogram.quantile(0.5) is None
        assert histogram.quantile(1.0) is None

    def test_q0_is_exact_minimum(self):
        histogram = Histogram("h", buckets=(10, 20))
        histogram.observe(3.5)
        histogram.observe(17.0)
        assert histogram.quantile(0.0) == 3.5

    def test_q1_is_exact_maximum(self):
        histogram = Histogram("h", buckets=(10, 20))
        histogram.observe(3.5)
        histogram.observe(17.0)
        # clamped to the observed max, not bucket bound 20
        assert histogram.quantile(1.0) == 17.0

    def test_all_mass_in_overflow(self):
        histogram = Histogram("h", buckets=(1, 2))
        for value in (100.0, 200.0, 300.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 100.0
        assert histogram.quantile(0.5) == 300.0  # clamped from +inf
        assert histogram.quantile(1.0) == 300.0

    def test_single_observation(self):
        histogram = Histogram("h", buckets=(1, 2, 4))
        histogram.observe(3.0)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert histogram.quantile(q) == 3.0

    def test_empty_leading_buckets_skipped(self):
        histogram = Histogram("h", buckets=(1, 2, 4, 8))
        histogram.observe(5.0)
        histogram.observe(6.0)
        # rank 1 must land in the (4, 8] bucket, not a leading empty one
        assert histogram.quantile(0.5) == 6.0  # bound 8 clamped to max


class TestCacheHitRateCollector:
    def test_hit_rate_derived_at_snapshot(self):
        registry = MetricsRegistry()
        original = set_registry(registry)
        try:
            registry.counter("candidates.cache_hits").inc(3)
            registry.counter("candidates.cache_misses").inc(1)
            snapshot = registry.as_dict()
        finally:
            set_registry(original)
        assert snapshot["candidates.cache_hit_rate"]["value"] == 0.75

    def test_zero_lookups_mint_no_gauge(self):
        registry = MetricsRegistry()
        original = set_registry(registry)
        try:
            registry.counter("filter.cache_hits")
            registry.counter("filter.cache_misses")
            snapshot = registry.as_dict()
        finally:
            set_registry(original)
        assert "filter.cache_hit_rate" not in snapshot

    def test_missing_misses_counter_means_rate_one(self):
        registry = MetricsRegistry()
        original = set_registry(registry)
        try:
            registry.counter("ranker.cache_hits").inc(4)
            snapshot = registry.as_dict()
        finally:
            set_registry(original)
        assert snapshot["ranker.cache_hit_rate"]["value"] == 1.0

    def test_rate_refreshes_per_snapshot(self):
        registry = MetricsRegistry()
        original = set_registry(registry)
        try:
            hits = registry.counter("candidates.cache_hits")
            misses = registry.counter("candidates.cache_misses")
            hits.inc()
            first = registry.as_dict()["candidates.cache_hit_rate"]["value"]
            misses.inc()
            second = registry.as_dict()["candidates.cache_hit_rate"]["value"]
        finally:
            set_registry(original)
        assert first == 1.0
        assert second == 0.5
