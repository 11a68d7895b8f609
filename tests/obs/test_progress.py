"""Tests for the live sweep-progress tracker and its gauges."""

from __future__ import annotations

import io

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress

# Trackers update the process registry current at construction.
pytestmark = pytest.mark.usefixtures("obs_swap")


def _gauges(registry: MetricsRegistry) -> dict[str, float]:
    return {
        name: registry.get(name).value
        for name in (
            "sweep.progress.patterns_done",
            "sweep.progress.total_patterns",
            "sweep.progress.eta_seconds",
        )
    }


class TestGaugeUpdates:
    def test_chunks_advance_done_and_counter(self, obs_swap):
        registry = obs_swap.registry
        progress = SweepProgress()
        progress.add_total(100)
        progress.on_chunk(25)
        progress.on_chunk(25)
        gauges = _gauges(registry)
        assert gauges["sweep.progress.patterns_done"] == 50
        assert gauges["sweep.progress.total_patterns"] == 100
        assert registry.get("sweep.chunks_completed").value == 2
        assert progress.done == 50
        assert progress.total == 100

    def test_add_total_is_cumulative(self, obs_swap):
        registry = obs_swap.registry
        progress = SweepProgress()
        progress.add_total(10)
        progress.add_total(30)
        assert _gauges(registry)["sweep.progress.total_patterns"] == 40

    def test_metric_names_are_fixed(self, obs_swap):
        # Bounded cardinality: one benchmark or ten, same four names.
        registry = obs_swap.registry
        progress = SweepProgress()
        for _ in range(10):
            progress.add_total(5)
            progress.on_chunk(5)
        assert registry.names() == [
            "sweep.chunks_completed",
            "sweep.progress.eta_seconds",
            "sweep.progress.patterns_done",
            "sweep.progress.total_patterns",
        ]

    def test_shared_tracker_accumulates_across_users(self, obs_swap):
        # run_many shares one tracker across benchmarks; gauges must
        # only ever advance.
        registry = obs_swap.registry
        progress = SweepProgress()
        observed = []
        for _ in range(3):
            progress.add_total(8)
            progress.on_chunk(8)
            observed.append(_gauges(registry)["sweep.progress.patterns_done"])
        assert observed == sorted(observed) == [8, 16, 24]


class TestRateAndEta:
    def test_rate_zero_before_any_chunk(self):
        progress = SweepProgress()
        assert progress.rate() == 0.0
        assert progress.eta_seconds() == 0.0

    def test_eta_zero_when_done(self, obs_swap):
        registry = obs_swap.registry
        progress = SweepProgress()
        progress.add_total(4)
        progress.on_chunk(4)
        assert progress.eta_seconds() == 0.0
        assert _gauges(registry)["sweep.progress.eta_seconds"] == 0.0

    def test_eta_positive_mid_run(self):
        progress = SweepProgress()
        progress.add_total(100)
        progress.on_chunk(10)
        if progress.rate() > 0:  # monotonic clock may tick 0 elapsed
            assert progress.eta_seconds() > 0.0

    def test_finish_zeroes_eta_gauge(self, obs_swap):
        registry = obs_swap.registry
        progress = SweepProgress()
        progress.add_total(100)
        progress.on_chunk(10)
        progress.finish()
        assert _gauges(registry)["sweep.progress.eta_seconds"] == 0.0


class TestRenderedLine:
    def test_line_contents(self):
        progress = SweepProgress()
        progress.add_total(48)
        progress.on_chunk(12, success_sum=6.0)
        line = progress.render_line()
        assert "sweep: 12/48 patterns" in line
        assert "25.0%" in line
        assert "mean success 0.500" in line
        assert "eta" in line

    def test_line_says_done_at_completion(self):
        progress = SweepProgress()
        progress.add_total(4)
        progress.on_chunk(4)
        assert progress.render_line().endswith("done")

    def test_custom_unit(self):
        progress = SweepProgress(unit="trials")
        progress.add_total(2)
        progress.on_chunk(1)
        line = progress.render_line()
        assert "trials" in line
        assert "mean success" not in line  # patterns-only decoration

    def test_overrun_clamps_percent(self):
        progress = SweepProgress()
        progress.add_total(4)
        progress.on_chunk(8)  # more work landed than announced
        assert "sweep: 8/8 patterns (100.0%)" in progress.render_line()


class TestStream:
    def test_stream_gets_carriage_return_updates(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress.add_total(10)
        progress.on_chunk(5)
        progress.on_chunk(5)
        assert stream.getvalue().count("\r") == 2
        assert "\n" not in stream.getvalue()

    def test_finish_terminates_line_once(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress.add_total(10)
        progress.on_chunk(10)
        progress.finish()
        progress.finish()  # double-finish must not write twice
        assert stream.getvalue().count("\n") == 1

    def test_finish_without_chunks_writes_nothing(self):
        stream = io.StringIO()
        progress = SweepProgress(stream=stream)
        progress.finish()
        assert stream.getvalue() == ""

    def test_no_stream_is_silent(self):
        progress = SweepProgress()
        progress.add_total(1)
        progress.on_chunk(1)
        progress.finish()  # no stream: nothing to terminate, no error


class TestSessionReset:
    """A new tracker = a new sweep session: stale per-run state is
    scrubbed so a second sweep in the same process never serves the
    previous run's totals/ETA during its ramp-up."""

    def test_new_tracker_resets_stale_progress_gauges(self, obs_swap):
        registry = obs_swap.registry
        first = SweepProgress()
        first.add_total(100)
        first.on_chunk(100)
        first.finish()
        # What DueSweep.run records when the first sweep completes.
        registry.gauge("sweep.last_wall_seconds").set(3.5)
        registry.info("sweep.last_benchmark").set("mcf")

        SweepProgress()
        gauges = _gauges(registry)
        assert gauges["sweep.progress.patterns_done"] == 0.0
        assert gauges["sweep.progress.total_patterns"] == 0.0
        assert gauges["sweep.progress.eta_seconds"] == 0.0
        assert registry.get("sweep.last_wall_seconds").value == 0.0
        assert registry.get("sweep.last_benchmark").value == ""

    def test_counter_survives_session_reset(self, obs_swap):
        # chunks_completed is cumulative over the process lifetime.
        registry = obs_swap.registry
        first = SweepProgress()
        first.add_total(8)
        first.on_chunk(8)
        SweepProgress()
        assert registry.get("sweep.chunks_completed").value == 1

    def test_reset_does_not_mint_last_run_metrics(self, obs_swap):
        # Only a sweep that actually ran registers the last-run pair;
        # constructing a tracker in a fresh registry must not add them.
        registry = obs_swap.registry
        SweepProgress()
        assert registry.get("sweep.last_wall_seconds") is None
        assert registry.get("sweep.last_benchmark") is None
