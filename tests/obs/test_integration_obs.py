"""Integration: the pipeline emits consistent metrics, spans, and events."""

from __future__ import annotations

import random

import pytest

from repro.analysis.experiments import default_code
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.core import RecoveryContext, SwdEcc
from repro.ecc.channel import pattern_from_positions
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.export import render_events_summary, render_metrics, render_spans
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark


@pytest.fixture(scope="module")
def code():
    return default_code()


@pytest.fixture(scope="module")
def image():
    return synthesize_benchmark("mcf", length=256)


@pytest.fixture(scope="module")
def context(image):
    return RecoveryContext.for_instructions(FrequencyTable.from_image(image))


def _due_word(code, image, bits=(1, 4)):
    word = image.words[0]
    received = code.encode(word)
    for position in bits:
        received ^= 1 << (code.n - 1 - position)
    return word, received


class TestOneRecoverOneEvent:
    def test_single_recover_emits_exactly_one_consistent_event(
        self, code, image, context
    ):
        log = obs_events.get_event_log()
        engine = SwdEcc(code, rng=random.Random(0))
        original, received = _due_word(code, image)
        result = engine.recover(received, context)
        assert len(log) == 1
        event = log.last()
        assert event.received == result.received == received
        assert event.num_candidates == result.num_candidates
        assert event.num_valid == result.num_valid
        assert event.filter_fell_back == result.filter_fell_back
        assert event.chosen_message == result.chosen_message
        assert event.chosen_codeword == result.chosen_codeword
        assert event.tied == result.tied
        assert event.latency_ns > 0
        assert event.true_message is None  # engine cannot know truth

    def test_counters_advance_per_recover(self, code, image, context):
        registry = obs_metrics.get_registry()
        before = registry.counter("swdecc.recoveries").value
        engine = SwdEcc(code, rng=random.Random(0))
        _, received = _due_word(code, image)
        engine.recover(received, context)
        engine.recover(received, context)
        assert registry.counter("swdecc.recoveries").value == before + 2

    def test_candidate_histogram_observes(self, code, image, context):
        histogram = obs_metrics.get_registry().histogram("swdecc.candidates")
        before = histogram.count
        engine = SwdEcc(code, rng=random.Random(0))
        _, received = _due_word(code, image)
        result = engine.recover(received, context)
        assert histogram.count == before + 1
        assert histogram.max >= result.num_candidates >= histogram.min


class TestSpansAcrossStages:
    def test_recover_produces_nested_stage_spans(self, code, image, context):
        # The stages are the reference pipeline's; the decode-table path
        # serves a word in one probe and records no stage spans.
        collector = obs_trace.enable_tracing()
        try:
            engine = SwdEcc(code, rng=random.Random(0), cache=False)
            _, received = _due_word(code, image)
            engine.recover(received, context)
        finally:
            obs_trace.disable_tracing()
        summary = collector.summary()
        for stage in ("swdecc.recover", "swdecc.enumerate", "swdecc.filter",
                      "swdecc.rank", "swdecc.choose"):
            assert summary[stage]["count"] == 1, stage
        parent = next(
            s for s in collector.spans if s.name == "swdecc.recover"
        )
        children = [
            s for s in collector.spans if s.parent_id == parent.span_id
        ]
        assert {s.name for s in children} == {
            "swdecc.enumerate", "swdecc.filter", "swdecc.rank",
            "swdecc.choose",
        }
        # Stage time is contained in the parent recover span.
        assert sum(s.duration_ns for s in children) <= parent.duration_ns


class TestSweepObservability:
    def test_sweep_records_wall_time_and_benchmark_identity(self, code, image):
        registry = obs_metrics.get_registry()
        histogram = registry.histogram("sweep.benchmark_wall_seconds")
        log = obs_events.get_event_log()
        patterns = (pattern_from_positions((1, 4), code.n),
                    pattern_from_positions((2, 7), code.n))
        sweep = DueSweep(
            code,
            RecoveryStrategy.FILTER_AND_RANK,
            num_instructions=3,
            patterns=patterns,
        )
        before = histogram.count
        recoveries_before = registry.counter("swdecc.recoveries").value
        events_before = len(log)
        sweep.run(image)
        assert histogram.count == before + 1
        assert histogram.sum > 0
        # One recovery per (pattern, instruction) — counted even through
        # the vectorized fast path, which skips per-DUE event records so
        # exhaustive sweeps don't churn the bounded ring.
        assert (
            registry.counter("swdecc.recoveries").value
            == recoveries_before + len(patterns) * 3
        )
        assert len(log) == events_before
        # Benchmark identity lives in an info metric, not a per-image
        # gauge name, so the registry stays bounded across images.
        assert registry.gauge("sweep.last_wall_seconds").value > 0
        assert registry.info("sweep.last_benchmark").value == image.name
        snapshot = registry.as_dict()
        assert f"sweep.wall_seconds[{image.name}]" not in snapshot


class TestRenderers:
    def test_render_helpers_produce_tables(self, code, image, context):
        collector = obs_trace.enable_tracing()
        try:
            engine = SwdEcc(code, rng=random.Random(0), cache=False)
            _, received = _due_word(code, image)
            engine.recover(received, context)
        finally:
            obs_trace.disable_tracing()
        metrics_text = render_metrics(obs_metrics.get_registry())
        assert "swdecc.recoveries" in metrics_text
        spans_text = render_spans(collector)
        assert "swdecc.rank" in spans_text
        events_text = render_events_summary(obs_events.get_event_log())
        assert "events retained" in events_text

    def test_memory_stats_collector_feeds_registry(self, code):
        from repro.memory.model import EccMemory

        memory = EccMemory(code)
        memory.write(0, 0x1234)
        memory.read(0)
        snapshot = obs_metrics.get_registry().as_dict()
        assert snapshot["memory.reads"]["value"] >= 1
        assert snapshot["memory.writes"]["value"] >= 1
