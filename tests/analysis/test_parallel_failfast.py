"""parallel_map must fail fast when a worker task raises.

The old failure path drained ``as_completed`` before surfacing the
exception, so a poisoned payload early in a long sweep still executed
the entire backlog (minutes of wasted work) before the caller saw the
error.  The fixed path cancels every not-yet-started future and
re-raises promptly; only tasks already running in a worker finish.

The worker pool outlives the call, so a failed call returns while any
task it left queued could still run on the pool afterwards.  The test
therefore follows it with a barrier call on the same pool, which
queues behind whatever is left, before it counts what started.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.analysis.parallel import parallel_map

JOBS = 2
SLEEPERS = 12
SLEEP_SECONDS = 0.4


def _poisonable_task(payload):
    """Module-level (picklable) task: poison raises, others leave a
    start marker before burning wall clock."""
    kind, marker_dir = payload
    if kind == "poison":
        raise ValueError("poisoned payload")
    marker = Path(marker_dir) / f"started-{os.getpid()}-{time.monotonic_ns()}"
    marker.touch()
    time.sleep(SLEEP_SECONDS)
    return kind


def _barrier(payload):
    return payload


class TestFailFast:
    def test_poisoned_payload_raises_without_draining_pool(self, tmp_path):
        payloads = [("poison", str(tmp_path))] + [
            ("sleep", str(tmp_path)) for _ in range(SLEEPERS)
        ]
        started = time.perf_counter()
        with pytest.raises(ValueError, match="poisoned payload"):
            parallel_map(_poisonable_task, payloads, jobs=JOBS)
        # Tasks run in submission order, so once the barrier's tasks
        # have run, every sleeper the failed call left queued has
        # started too.
        assert parallel_map(_barrier, range(JOBS), jobs=JOBS) == list(
            range(JOBS)
        )
        elapsed = time.perf_counter() - started
        # Cancellation beats the backlog: only the tasks the workers had
        # already picked up when the poison landed ever started.  The
        # old drain-everything path started all SLEEPERS of them (and
        # took SLEEPERS/JOBS * SLEEP_SECONDS to return); so would a
        # failed call that left them queued on the pool.
        markers = list(tmp_path.glob("started-*"))
        assert len(markers) < SLEEPERS, (
            f"all {SLEEPERS} queued tasks ran after the poison; "
            "outstanding futures were not cancelled"
        )
        drain_floor = (SLEEPERS / JOBS) * SLEEP_SECONDS
        assert elapsed < drain_floor, (
            f"the failed call and the barrier took {elapsed:.2f}s — the "
            "backlog ran instead of being cancelled (full drain is "
            f">= {drain_floor:.2f}s)"
        )

    def test_serial_path_raises_immediately(self, tmp_path):
        payloads = [("poison", str(tmp_path)), ("sleep", str(tmp_path))]
        with pytest.raises(ValueError, match="poisoned payload"):
            parallel_map(_poisonable_task, payloads, jobs=1)
        assert list(tmp_path.glob("started-*")) == []
