"""RecoveryBatcher: coalescing, backpressure, and lifecycle."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServiceError, ServiceOverloadError
from repro.obs.metrics import MetricsRegistry
from repro.service.api import RecoveryRequest
from repro.service.batcher import RecoveryBatcher


def request_of(*words: int) -> RecoveryRequest:
    return RecoveryRequest(words=tuple(words))


def echo_executor(requests):
    """One payload per word, tagging the batch it ran in."""
    return [
        [{"word": word} for word in request.words] for request in requests
    ]


class TestBatching:
    def test_single_request_round_trips(self):
        with RecoveryBatcher(echo_executor, registry=MetricsRegistry()) as b:
            future = b.submit(request_of(1, 2, 3))
            assert future.result(timeout=5.0) == [
                {"word": 1}, {"word": 2}, {"word": 3},
            ]

    def test_requests_coalesce_into_batches(self):
        batches: list[int] = []
        gate = threading.Event()

        def counting_executor(requests):
            gate.wait(10.0)
            batches.append(len(requests))
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            counting_executor,
            max_batch=64,
            registry=MetricsRegistry(),
        ).start()
        try:
            # The gate stalls the worker on whatever it grabs first, so
            # the rest of the submissions pile up and must coalesce.
            futures = [batcher.submit(request_of(i)) for i in range(8)]
            gate.set()
            for future in futures:
                future.result(timeout=5.0)
        finally:
            gate.set()
            batcher.stop()
        assert sum(batches) == 8
        assert len(batches) <= 2  # coalesced, not one batch per request

    def test_max_batch_bounds_a_drained_batch(self):
        """A batch takes queued jobs while they fit in ``max_batch``
        words; a job is never split, so a larger one runs alone."""
        sizes: list[list[int]] = []
        gate = threading.Event()

        def gated_executor(requests):
            gate.wait(10.0)
            sizes.append([len(r.words) for r in requests])
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            gated_executor,
            max_batch=4,
            registry=MetricsRegistry(),
        ).start()
        try:
            first = batcher.submit(request_of(0))  # occupies the worker
            deadline = time.monotonic() + 5.0
            while batcher.queued_words() and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to claim it
            # While the worker is gated, jobs of 2, 2, 3, 6 and 1 words
            # queue up behind it.
            lengths = (2, 2, 3, 6, 1)
            futures = [
                batcher.submit(request_of(*range(100, 100 + n)))
                for n in lengths
            ]
            gate.set()
            assert first.result(timeout=5.0) == [{"word": 0}]
            for n, future in zip(lengths, futures):
                assert future.result(timeout=5.0) == [
                    {"word": word} for word in range(100, 100 + n)
                ]
        finally:
            gate.set()
            batcher.stop()
        assert sizes == [[1], [2, 2], [3], [6], [1]]

    def test_jobs_never_split_across_batches(self):
        seen: list[list[tuple[int, ...]]] = []

        def recording_executor(requests):
            seen.append([request.words for request in requests])
            return echo_executor(requests)

        with RecoveryBatcher(
            recording_executor,
            max_batch=2,
            registry=MetricsRegistry(),
        ) as batcher:
            future = batcher.submit(request_of(*range(10)))
            future.result(timeout=5.0)
        assert [tuple(range(10))] in seen


class TestBackpressure:
    def test_overload_raises_with_retry_after(self):
        gate = threading.Event()

        def blocked_executor(requests):
            gate.wait(10.0)
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            blocked_executor,
            max_batch=1,
            queue_limit=4,
            registry=MetricsRegistry(),
        ).start()
        try:
            first = batcher.submit(request_of(1))  # occupies the worker
            deadline = time.monotonic() + 5.0
            while batcher.queued_words() and time.monotonic() < deadline:
                time.sleep(0.005)  # wait for the worker to claim it
            batcher.submit(request_of(2, 3, 4, 5))  # fills the queue
            with pytest.raises(ServiceOverloadError) as excinfo:
                batcher.submit(request_of(6))
            assert excinfo.value.queued == 4
            assert excinfo.value.limit == 4
            assert 0.0 < excinfo.value.retry_after <= 5.0
        finally:
            gate.set()
            batcher.stop()
        assert first.result(timeout=5.0) == [{"word": 1}]

    def test_queue_depth_gauge_tracks_backlog(self):
        registry = MetricsRegistry()
        gate = threading.Event()

        def blocked_executor(requests):
            gate.wait(10.0)
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            blocked_executor,
            max_batch=1,
            queue_limit=100,
            registry=registry,
        ).start()
        try:
            batcher.submit(request_of(1))
            deadline = time.monotonic() + 5.0
            while batcher.queued_words() and time.monotonic() < deadline:
                time.sleep(0.005)
            batcher.submit(request_of(2, 3))
            assert registry.get("service.queue_depth").value == 2.0
        finally:
            gate.set()
            batcher.stop()
        assert registry.get("service.queue_depth").value == 0.0

    def test_overload_counter_increments(self):
        registry = MetricsRegistry()
        gate = threading.Event()

        def blocked_executor(requests):
            gate.wait(10.0)
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            blocked_executor,
            max_batch=1,
            queue_limit=1,
            registry=registry,
        ).start()
        try:
            batcher.submit(request_of(1))
            deadline = time.monotonic() + 5.0
            while batcher.queued_words() and time.monotonic() < deadline:
                time.sleep(0.005)
            batcher.submit(request_of(2))
            with pytest.raises(ServiceOverloadError):
                batcher.submit(request_of(3))
        finally:
            gate.set()
            batcher.stop()
        assert registry.get("service.overloads").value == 1.0


class TestLifecycle:
    def test_submit_refused_when_not_running(self):
        batcher = RecoveryBatcher(echo_executor, registry=MetricsRegistry())
        with pytest.raises(ServiceError):
            batcher.submit(request_of(1))

    def test_stop_drains_accepted_jobs(self):
        slow = threading.Event()

        def slow_executor(requests):
            slow.wait(0.05)
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            slow_executor,
            max_batch=1,
            registry=MetricsRegistry(),
        ).start()
        futures = [batcher.submit(request_of(i)) for i in range(5)]
        batcher.stop()
        for index, future in enumerate(futures):
            assert future.result(timeout=1.0) == [{"word": index}]

    def test_double_start_raises(self):
        batcher = RecoveryBatcher(echo_executor, registry=MetricsRegistry())
        batcher.start()
        try:
            with pytest.raises(ServiceError):
                batcher.start()
        finally:
            batcher.stop()

    def test_stop_is_idempotent(self):
        batcher = RecoveryBatcher(echo_executor, registry=MetricsRegistry())
        batcher.start()
        batcher.stop()
        batcher.stop()

    def test_executor_exception_fails_whole_batch(self):
        def failing_executor(requests):
            raise RuntimeError("engine exploded")

        with RecoveryBatcher(
            failing_executor, registry=MetricsRegistry()
        ) as batcher:
            future = batcher.submit(request_of(1))
            with pytest.raises(RuntimeError, match="engine exploded"):
                future.result(timeout=5.0)

    def test_result_count_mismatch_fails_batch(self):
        def lying_executor(requests):
            return []  # wrong arity

        with RecoveryBatcher(
            lying_executor, registry=MetricsRegistry()
        ) as batcher:
            future = batcher.submit(request_of(1))
            with pytest.raises(ServiceError, match="result lists"):
                future.result(timeout=5.0)

    def test_cancelled_jobs_are_shed_not_executed(self):
        executed: list[tuple[int, ...]] = []
        gate = threading.Event()

        def gated_executor(requests):
            gate.wait(10.0)
            executed.extend(request.words for request in requests)
            return echo_executor(requests)

        batcher = RecoveryBatcher(
            gated_executor,
            max_batch=1,
            registry=MetricsRegistry(),
        ).start()
        try:
            batcher.submit(request_of(1))
            deadline = time.monotonic() + 5.0
            while batcher.queued_words() and time.monotonic() < deadline:
                time.sleep(0.005)
            doomed = batcher.submit(request_of(99))
            assert doomed.cancel()  # timed-out client walks away
            gate.set()
            time.sleep(0.1)
        finally:
            gate.set()
            batcher.stop()
        assert (99,) not in executed


class TestValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ServiceError):
            RecoveryBatcher(echo_executor, max_batch=0)
        with pytest.raises(ServiceError):
            RecoveryBatcher(echo_executor, queue_limit=0)

    def test_retry_after_hint_is_clamped(self):
        batcher = RecoveryBatcher(echo_executor, registry=MetricsRegistry())
        assert 0.001 <= batcher.retry_after_hint() <= 5.0
