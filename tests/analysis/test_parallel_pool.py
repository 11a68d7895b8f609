"""parallel_map keeps one worker pool per process and reuses it.

A sweep calls :func:`parallel_map` once per image, so the pool must
outlive the call; a reused worker must then run each task with the
caller's state at the time of the call, not the state it inherited at
fork: its logging handlers and bound fields, a registry and event log
holding only the task's own metrics, and the caller's energy model.
The pool must also survive the process's other lives: a worker that
dies, a child forked while the pool is alive, and interpreter exit.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from repro.analysis.parallel import parallel_map
from repro.obs import energy as obs_energy
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics

JOBS = 2
TASK_SECONDS = 0.1  # long enough that both workers pick up a task

_log = obs_logging.get_logger("tests.parallel_pool")


def _slow_pid(_payload) -> int:
    time.sleep(TASK_SECONDS)
    return os.getpid()


def _log_line(payload: int) -> int:
    obs_logging.emit(_log, logging.INFO, "task ran", payload=payload)
    return payload


def _register(name: str) -> int:
    obs_metrics.get_registry().counter(name).inc()
    return os.getpid()


def _energy_model_text(_payload) -> str:
    return obs_energy.get_energy_model().describe()


def _exit_on(payload: str) -> str:
    if payload == "exit":
        os._exit(3)
    return payload


def _pool_pids() -> set[int]:
    """The pids of the pool's workers.  A worker may still be busy with
    a task an earlier failed call left running, so this calls until
    every worker has answered (a bounded number of times)."""
    pids: set[int] = set()
    for _ in range(20):
        pids |= set(parallel_map(_slow_pid, range(2 * JOBS), jobs=JOBS))
        if len(pids) >= JOBS:
            break
    return pids


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestReuse:
    def test_calls_run_on_the_same_workers(self):
        first = _pool_pids()
        second = set(parallel_map(_slow_pid, range(2 * JOBS), jobs=JOBS))
        assert len(first) == JOBS
        assert second <= first, "the second call forked new workers"
        assert os.getpid() not in first

    def test_another_worker_count_shuts_the_old_pool_down_first(self):
        old = _pool_pids()
        new = set(parallel_map(_slow_pid, range(6), jobs=JOBS + 1))
        assert not new & old
        assert not [pid for pid in old if _alive(pid)]


class TestCallerStatePerTask:
    def test_handler_configured_while_the_pool_is_alive_gets_worker_lines(
        self, tmp_path
    ):
        _pool_pids()  # the pool exists before logging is set up
        path = tmp_path / "log.jsonl"
        handler = obs_logging.configure(str(path), level=logging.INFO)
        try:
            with obs_logging.bind(benchmark="mcf"):
                parallel_map(_log_line, [1, 2, 3, 4], jobs=JOBS)
            with obs_logging.bind(strategy="filter-only"):
                parallel_map(_log_line, [5, 6, 7, 8], jobs=JOBS)
        finally:
            obs_logging.unconfigure(handler)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        by_payload = {
            line["payload"]: line
            for line in lines
            if line["msg"] == "task ran"
        }
        assert sorted(by_payload) == list(range(1, 9))
        for payload in (1, 2, 3, 4):
            assert by_payload[payload]["benchmark"] == "mcf"
            assert "strategy" not in by_payload[payload]
        # The second call reuses the pool forked inside the first
        # call's binding: only the fields bound now may appear.
        for payload in (5, 6, 7, 8):
            assert by_payload[payload]["strategy"] == "filter-only"
            assert "benchmark" not in by_payload[payload]

    def test_no_metric_an_earlier_task_registered_is_shipped(self):
        first = obs_metrics.MetricsRegistry()
        saved = obs_metrics.set_registry(first)
        try:
            parallel_map(_register, ["parallel.first"] * 4, jobs=JOBS)
            second = obs_metrics.MetricsRegistry()
            obs_metrics.set_registry(second)
            parallel_map(_register, ["parallel.second"] * 4, jobs=JOBS)
        finally:
            obs_metrics.set_registry(saved)
        assert first.counter("parallel.first").value == 4
        assert second.counter("parallel.second").value == 4
        assert second.get("parallel.first") is None
        assert first.get("parallel.second") is None

    def test_tasks_use_the_energy_model_set_at_the_call(self):
        _pool_pids()
        pricey = obs_energy.EnergyModel(dollars_per_kwh=1.20)
        previous = obs_energy.set_energy_model(pricey)
        try:
            seen = parallel_map(_energy_model_text, range(4), jobs=JOBS)
        finally:
            obs_energy.set_energy_model(previous)
        assert seen == [pricey.describe()] * 4
        assert pricey.describe() != previous.describe()


class TestPoolLifetime:
    def test_worker_death_raises_and_the_next_call_gets_a_fresh_pool(self):
        before = _pool_pids()
        with pytest.raises(BrokenProcessPool):
            parallel_map(_exit_on, ["exit", "a", "b", "c"], jobs=JOBS)
        assert parallel_map(_exit_on, ["a", "b", "c"], jobs=JOBS) == [
            "a", "b", "c"
        ]
        assert not _pool_pids() & before

    def test_a_worker_killed_between_calls_does_not_fail_the_next_call(self):
        before = _pool_pids()
        victim = min(before)
        os.kill(victim, signal.SIGKILL)
        # The pool marks itself broken before it reaps the victim.
        deadline = time.monotonic() + 10
        while _alive(victim) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(victim)
        assert parallel_map(_exit_on, ["a", "b", "c"], jobs=JOBS) == [
            "a", "b", "c"
        ]
        assert not _pool_pids() & before

    def test_child_forked_while_the_pool_is_alive_runs_its_own(self):
        pids = _pool_pids()
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_child_body, args=(results,))
        child.start()
        try:
            child_pids = results.get(timeout=60)
            child.join(timeout=30)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child_pids and not set(child_pids) & pids
        assert not [pid for pid in child_pids if _alive(pid)]
        assert _pool_pids() <= pids


def _child_body(results) -> None:
    results.put(parallel_map(_slow_pid, range(2 * JOBS), jobs=JOBS))


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_a_script_that_ran_the_pool_exits_leaving_no_process_behind():
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "from repro.analysis.parallel import parallel_map\n"
        "assert parallel_map(abs, [-1, -2, -3, -4], jobs=2) == [1, 2, 3, 4]\n"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], env=env, start_new_session=True
    )
    try:
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, 9)
            proc.wait()
    deadline = time.monotonic() + 10
    while _group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = _group_members(proc.pid)
    for pid in left:
        os.kill(pid, 9)
    assert not left, f"processes left in the group: {left}"


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes of process group *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat[stat.rfind(b")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != b"Z":
            members.append(int(entry))
    return members
