"""Parallel sweeps: bit-identical results, correctly aggregated metrics.

The acceleration contract (see ``docs/performance.md``) has two halves:

- results: a ``jobs > 1`` sweep — and the decode-table serial path
  itself — must be *bit-identical* to the per-word reference oracle;
- observability: worker-process metric deltas must fold back into the
  parent registry so counter totals match a serial run.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_fig6
from repro.analysis.parallel import chunk_evenly, parallel_map
from repro.analysis.resilience import ResilienceConfig, survival_study
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.ecc.channel import double_bit_patterns
from repro.errors import AnalysisError
from repro.obs import metrics as obs_metrics

JOBS = 4
WINDOW = 4
NUM_PATTERNS = 48  # a prefix of the 741: enough syndrome variety, fast


@pytest.fixture(scope="module")
def patterns(code):
    return tuple(double_bit_patterns(code.n))[:NUM_PATTERNS]


def _run(code, image, patterns, *, cache=True, jobs=1):
    sweep = DueSweep(
        code,
        RecoveryStrategy.FILTER_AND_RANK,
        num_instructions=WINDOW,
        patterns=patterns,
        cache=cache,
    )
    return sweep.run(image, jobs=jobs)


class TestChunkEvenly:
    def test_chunks_concatenate_to_input(self):
        items = list(range(11))
        chunks = chunk_evenly(items, 3)
        assert [x for chunk in chunks for x in chunk] == items
        assert max(len(c) for c in chunks) - min(len(c) for c in chunks) <= 1

    def test_more_chunks_than_items(self):
        assert chunk_evenly([1, 2], 5) == [(1,), (2,)]
        assert chunk_evenly([], 3) == []

    def test_rejects_nonpositive(self):
        with pytest.raises(AnalysisError):
            chunk_evenly([1], 0)


class TestBitIdentical:
    def test_parallel_equals_serial(self, code, mcf_image, patterns):
        serial = _run(code, mcf_image, patterns, jobs=1)
        parallel = _run(code, mcf_image, patterns, jobs=JOBS)
        assert parallel == serial  # outcomes, ordering, window, name

    def test_memoized_fast_path_equals_uncached_reference(
        self, code, mcf_image, patterns
    ):
        fast = _run(code, mcf_image, patterns, cache=True)
        reference = _run(code, mcf_image, patterns, cache=False)
        assert fast.outcomes == reference.outcomes

    def test_run_many_parallel_equals_serial(
        self, code, mcf_image, bzip2_image, patterns
    ):
        sweep = DueSweep(
            code,
            RecoveryStrategy.FILTER_AND_RANK,
            num_instructions=WINDOW,
            patterns=patterns,
        )
        serial = sweep.run_many([mcf_image, bzip2_image])
        parallel = sweep.run_many([mcf_image, bzip2_image], jobs=2)
        assert parallel == serial

    def test_fig6_parallel_equals_serial(self, code, bzip2_image):
        serial = run_fig6(code, bzip2_image, num_instructions=3)
        parallel = run_fig6(code, bzip2_image, num_instructions=3, jobs=3)
        assert parallel == serial

    def test_survival_study_parallel_equals_serial(self, code, mcf_image):
        base = ResilienceConfig(epochs=4, reads_per_epoch=16)
        serial = survival_study(code, mcf_image, trials=2, base_config=base)
        parallel = survival_study(
            code, mcf_image, trials=2, base_config=base, jobs=4
        )
        assert parallel == serial

    def test_rejects_nonpositive_jobs(self, code, mcf_image, patterns):
        sweep = DueSweep(
            code, RecoveryStrategy.FILTER_AND_RANK,
            num_instructions=WINDOW, patterns=patterns,
        )
        with pytest.raises(AnalysisError):
            sweep.run(mcf_image, jobs=0)


class TestWorkerMetricsAggregation:
    def _sweep_with_registry(self, code, image, patterns, jobs):
        registry = obs_metrics.MetricsRegistry()
        saved = obs_metrics.set_registry(registry)
        try:
            _run(code, image, patterns, jobs=jobs)
        finally:
            obs_metrics.set_registry(saved)
        return registry

    def test_parallel_recovery_counter_equals_serial(
        self, code, mcf_image, patterns
    ):
        serial = self._sweep_with_registry(code, mcf_image, patterns, 1)
        parallel = self._sweep_with_registry(code, mcf_image, patterns, JOBS)
        expected = len(patterns) * WINDOW
        assert serial.counter("swdecc.recoveries").value == expected
        assert parallel.counter("swdecc.recoveries").value == expected

    def test_cache_counter_totals_survive_aggregation(
        self, code, mcf_image, patterns
    ):
        """Every ``ops.*`` and ``swdecc.*`` counter and histogram totals
        the same whether one process sweeps or four: workers rebuild the decode
        table, whose build charges no ops, and nothing else depends on
        how the patterns are chunked."""
        serial = self._sweep_with_registry(code, mcf_image, patterns, 1)
        parallel = self._sweep_with_registry(code, mcf_image, patterns, JOBS)

        def totals(registry):
            return {
                name: snapshot
                for name, snapshot in registry.as_dict().items()
                if name.startswith(("ops.", "swdecc."))
            }

        assert totals(parallel) == totals(serial)
        assert serial.counter("ops.filter_evals").value > 0
        assert serial.histogram("swdecc.candidates").count == (
            len(patterns) * WINDOW
        )

    def test_worker_histograms_merge_into_parent(
        self, code, mcf_image, patterns
    ):
        parallel = self._sweep_with_registry(code, mcf_image, patterns, JOBS)
        histogram = parallel.histogram("swdecc.candidates")
        assert histogram.count == len(patterns) * WINDOW

    def test_no_per_image_gauge_is_minted(self, code, mcf_image, patterns):
        registry = self._sweep_with_registry(code, mcf_image, patterns, JOBS)
        snapshot = registry.as_dict()
        assert f"sweep.wall_seconds[{mcf_image.name}]" not in snapshot
        assert registry.gauge("sweep.last_wall_seconds").value > 0
        assert registry.info("sweep.last_benchmark").value == mcf_image.name


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_parallel_preserves_order(self):
        assert parallel_map(_double, list(range(8)), jobs=4) == [
            0, 2, 4, 6, 8, 10, 12, 14
        ]

    def test_worker_counters_fold_into_parent(self):
        registry = obs_metrics.MetricsRegistry()
        saved = obs_metrics.set_registry(registry)
        try:
            parallel_map(_count_one, list(range(6)), jobs=3)
            assert registry.counter("parallel.test_units").value == 6
        finally:
            obs_metrics.set_registry(saved)

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(AnalysisError):
            parallel_map(_double, [1], jobs=0)


def _double(value):
    return value * 2


def _count_one(value):
    obs_metrics.get_registry().counter("parallel.test_units").inc()
    return value


class TestOnResult:
    def test_serial_fires_in_order_with_wall_seconds(self):
        calls = []
        parallel_map(
            _double, [5, 6, 7], jobs=1,
            on_result=lambda i, r, w: calls.append((i, r, w)),
        )
        assert [(i, r) for i, r, _ in calls] == [(0, 10), (1, 12), (2, 14)]
        assert all(w >= 0 for _, _, w in calls)

    def test_parallel_covers_every_payload(self):
        calls = []
        results = parallel_map(
            _double, list(range(8)), jobs=4,
            on_result=lambda i, r, w: calls.append((i, r)),
        )
        # completion order is nondeterministic; coverage is not
        assert sorted(calls) == [(i, 2 * i) for i in range(8)]
        assert results == [2 * i for i in range(8)]

    def test_callback_result_matches_payload_index(self):
        seen = {}
        parallel_map(
            _double, [3, 1, 4, 1, 5], jobs=2,
            on_result=lambda i, r, w: seen.setdefault(i, r),
        )
        assert seen == {0: 6, 1: 2, 2: 8, 3: 2, 4: 10}


class TestWorkerEventDigests:
    def _sweep_with_event_log(self, code, image, patterns, jobs):
        from repro.obs import events as obs_events

        log = obs_events.EventLog(capacity=4096)
        saved = obs_events.set_event_log(log)
        registry = obs_metrics.MetricsRegistry()
        saved_registry = obs_metrics.set_registry(registry)
        try:
            _run(code, image, patterns, jobs=jobs, cache=False)
        finally:
            obs_events.set_event_log(saved)
            obs_metrics.set_registry(saved_registry)
        return log

    def test_parallel_digest_matches_serial_events(
        self, code, mcf_image, patterns
    ):
        few = patterns[:8]
        serial = self._sweep_with_event_log(code, mcf_image, few, 1)
        parallel = self._sweep_with_event_log(code, mcf_image, few, 2)
        # Worker rings stay remote, but the absorbed digests must
        # account for exactly the events a serial run records locally.
        assert len(parallel.events()) == 0
        digest = parallel.absorbed_digest
        assert digest.count == len(serial.events())
        assert digest.count == len(few) * WINDOW
        assert digest.fallbacks == sum(
            1 for e in serial.events() if e.filter_fell_back
        )

    def test_serial_run_absorbs_nothing(self, code, mcf_image, patterns):
        log = self._sweep_with_event_log(code, mcf_image, patterns[:8], 1)
        assert log.absorbed_digest.count == 0
        assert len(log.events()) == 8 * WINDOW


class TestProgressDuringSweeps:
    def test_sweep_advances_progress_gauges(self, code, mcf_image, patterns):
        from repro.obs.progress import SweepProgress

        registry = obs_metrics.MetricsRegistry()
        saved = obs_metrics.set_registry(registry)
        try:
            progress = SweepProgress()
            sweep = DueSweep(
                code, RecoveryStrategy.FILTER_AND_RANK,
                num_instructions=WINDOW, patterns=patterns,
            )
            sweep.run(mcf_image, jobs=JOBS, progress=progress)
        finally:
            obs_metrics.set_registry(saved)
        assert progress.done == len(patterns)
        assert progress.total == len(patterns)
        done = registry.get("sweep.progress.patterns_done")
        assert done is not None and done.value == len(patterns)
        chunks = registry.get("sweep.chunks_completed")
        assert chunks is not None and chunks.value == JOBS

    def test_workers_never_clobber_parent_progress(
        self, code, mcf_image, patterns
    ):
        # Forked workers inherit the progress gauges zeroed; their
        # snapshots must not overwrite the parent's live values when
        # merged (gauges are last-wins).
        registry = obs_metrics.MetricsRegistry()
        saved = obs_metrics.set_registry(registry)
        try:
            from repro.obs.progress import SweepProgress

            progress = SweepProgress()
            sweep = DueSweep(
                code, RecoveryStrategy.FILTER_AND_RANK,
                num_instructions=WINDOW, patterns=patterns,
            )
            sweep.run(mcf_image, jobs=JOBS, progress=progress)
            assert registry.get(
                "sweep.progress.patterns_done"
            ).value == len(patterns)
            assert registry.get(
                "sweep.progress.total_patterns"
            ).value == len(patterns)
        finally:
            obs_metrics.set_registry(saved)

    def test_progress_does_not_change_outcomes(
        self, obs_swap, code, mcf_image, patterns
    ):
        from repro.obs.progress import SweepProgress

        plain = _run(code, mcf_image, patterns, jobs=1)
        sweep = DueSweep(
            code, RecoveryStrategy.FILTER_AND_RANK,
            num_instructions=WINDOW, patterns=patterns,
        )
        progress = SweepProgress()
        tracked = sweep.run(mcf_image, jobs=JOBS, progress=progress)
        assert tracked == plain
