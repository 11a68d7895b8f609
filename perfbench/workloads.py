"""The four workloads: drive the program, check its answers, summarize.

Service workloads start ``repro serve-recovery`` as a separate process
and drive it with two closed-loop clients; the sweep workload starts
``sweep_child.py``.  Each returns a record whose ``metrics`` hold the
end-to-end metrics (untraced run) or the per-layer metrics (traced run).
"""

from __future__ import annotations

import json
import math
import random
import re
import statistics
import subprocess
import sys
from pathlib import Path

import inputs
import layers
from client import ClosedLoop, LoadResult
from hostinfo import host_cpu_jiffies, steal_share
from procs import ProgramProcess, Service, peak_rss_mb
from repro.analysis import experiments
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc.channel import double_bit_patterns
from repro.obs.promtext import parse_exposition
from repro.program.stats import FrequencyTable
from repro.service import api
from sweep_child import CHECK_PATTERNS, IMAGE_LENGTH, NUM_INSTRUCTIONS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CLIENTS = 2
#: Cold starts per untraced run; set-up time is their median.
SETUP_LAUNCHES = 7
#: Warm-up requests per client before the measured window: covers all
#: five contexts, so every shard has served (and shipped its first
#: metric delta) before the ``/metrics`` baseline is scraped.
DISTINCT_WARMUP_REQUESTS = 3
#: Words generated per measured second for never-repeating streams:
#: over six times the ~6k words/s ``distinct`` serves on a 2-vCPU VM.
#: A service fast enough to run the clients dry fails the run, which
#: then says that this figure must grow.
DISTINCT_WORDS_PER_SECOND = 40_000
SERVICE_WORKERS = {"hot-set": 0, "distinct": 0, "sharded": 2}

#: Fig. 8 mean of the paper run (seed 2016), to six decimals.
SWEEP_GOLDEN = (2016, 0.294534)
SWEEP_TIMEOUT_S = 170.0
_READY = re.compile(rb"^ready (\d+)")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setups: list[float], summary: dict, rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run."""
    return {
        "setup_s": statistics.median(setups),
        **{
            name: summary[name]
            for name in (
                "words_per_s", "latency_p50_ms", "latency_p90_ms",
                "ok_share", "recovery_rate",
            )
        },
        "peak_rss_mb": rss_mb,
    }


def result(record: dict, metrics: dict, attempted: int, failed: int,
           clean: bool, exhausted: bool = False) -> dict:
    """Finish a record.  A run is correct when no word failed, every
    process stopped cleanly, and no client ran out of words before the
    measured window ended (which would shorten it)."""
    record.update(
        metrics=metrics, attempted=attempted, failed=failed, clean_shutdown=clean,
        stream_exhausted=exhausted,
        correct=bool(clean and not exhausted and failed == 0 and attempted > 0),
    )
    return record


# ----------------------------------------------------------------------
# Service workloads
# ----------------------------------------------------------------------


class ServiceChecker:
    """Compares served answers with an uncached reference engine.

    The reference is ``SwdEcc(tie_break=FIRST, cache=False)`` on a
    context built from the same image the catalog synthesizes.
    """

    def __init__(self, source: inputs.DueSource, every_word: bool) -> None:
        self.every_word = every_word
        self._engine = SwdEcc(
            source.code,
            tie_break=TieBreak.FIRST,
            rng=random.Random(0),
            cache=False,
        )
        self._contexts = {
            name: RecoveryContext.for_instructions(
                FrequencyTable.from_image(image)
            )
            for name, image in source.programs.items()
        }
        self._expected: dict[tuple[str, int], dict] = {}

    @property
    def sample_rule(self) -> str:
        return (
            "every word" if self.every_word
            else "first and last word of every request"
        )

    def expected(self, context: str, word: int) -> dict:
        key = (context, word)
        payload = self._expected.get(key)
        if payload is None:
            answer = self._engine.recover(word, self._contexts[context])
            payload = json.loads(
                json.dumps(api.result_payload(word, answer), sort_keys=True)
            )
            self._expected[key] = payload
        return payload

    def check(self, load: LoadResult) -> dict:
        """Per-word outcome counts of one measured window."""
        counts = dict(
            attempted=0, failed=0, recovered=0, matches=0,
            checked=0, mismatched=0, http_errors=0, degraded=0,
        )
        # Repeated request bodies (hot-set) share one parsed response.
        parsed: dict[tuple[int, int], dict | None] = {}
        for exchange in load.exchanges:
            request = exchange.request
            counts["attempted"] += len(request.words)
            if exchange.status != 200:
                counts["http_errors"] += 1
                counts["failed"] += len(request.words)
                continue
            slot = (exchange.client, exchange.slot)
            if exchange.body is None and slot in parsed:
                payload = parsed[slot]
            else:
                try:
                    payload = json.loads(exchange.body or load.first_bodies[slot])
                except ValueError:
                    payload = None
                if load.repeats:
                    parsed[slot] = payload
            answers = payload.get("results") if payload else None
            if (
                payload is None or payload.get("degraded") is not False
                or not isinstance(answers, list)
                or len(answers) != len(request.words)
            ):
                counts["degraded"] += 1
                counts["failed"] += len(request.words)
                continue
            last = len(request.words) - 1
            for position, (word, original, answer) in enumerate(
                zip(request.words, request.originals, answers)
            ):
                if (
                    answer.get("status") != "recovered"
                    or answer.get("received") != word
                ):
                    counts["failed"] += 1
                    continue
                counts["recovered"] += 1
                counts["matches"] += answer.get("chosen_message") == original
                if self.every_word or position in (0, last):
                    counts["checked"] += 1
                    if answer != self.expected(request.context, word):
                        counts["mismatched"] += 1
                        counts["failed"] += 1
        return counts


def service_contexts(workload: str) -> list[str]:
    if workload == "hot-set":
        return [inputs.HOT_CONTEXT]
    return list(inputs.CONTEXTS)


def service_traffic(
    source: inputs.DueSource, workload: str, seed: int, seconds: float
):
    """(per-client warm-up requests, per-client streams, cycle?)"""
    if workload == "hot-set":
        pool_warmup, streams = inputs.hot_set_streams(source, seed, CLIENTS)
        return [pool_warmup, []], streams, True
    words = int(DISTINCT_WORDS_PER_SECOND * seconds) + (
        CLIENTS * DISTINCT_WARMUP_REQUESTS * inputs.DISTINCT_REQUEST_WORDS
    )
    streams = inputs.distinct_streams(source, seed, CLIENTS, words)
    warmup = [stream[:DISTINCT_WARMUP_REQUESTS] for stream in streams]
    measured = [stream[DISTINCT_WARMUP_REQUESTS:] for stream in streams]
    return warmup, measured, False


def cold_start(workload: str) -> tuple[float, bool]:
    """Launch a service, wait for /healthz, stop it: (setup s, clean)."""
    service = Service(
        ROOT, service_contexts(workload), SERVICE_WORKERS[workload], False
    )
    try:
        setup_s = service.wait_ready()
    finally:
        clean = service.stop()
    return setup_s, clean


def serve(workload: str, seconds: float, traced: bool, traffic) -> dict:
    """One service process: start, warm up, measure, scrape, stop."""
    warmup, streams, cycle = traffic
    service = Service(
        ROOT, service_contexts(workload), SERVICE_WORKERS[workload], traced
    )
    try:
        setup_s = service.wait_ready()
        loop = ClosedLoop(service.port, CLIENTS)
        try:
            loop.warm(warmup)
            before = layers.flatten(service.scrape())
            host_before = host_cpu_jiffies()
            load = loop.measure(streams, seconds, cycle)
            host_after = host_cpu_jiffies()
        finally:
            loop.close()
        after = layers.flatten(service.scrape())
        rss_mb = peak_rss_mb(service.members())
    finally:
        clean = service.stop()
    phase = {
        "setup_s": setup_s,
        "load": load,
        "after": after,
        "delta": layers.deltas(before, after),
        "peak_rss_mb": rss_mb,
        "host_steal_share": steal_share(host_before, host_after),
        "clean": clean,
    }
    if traced:
        lines = [line for line in service.stdout if line.strip()]
        phase["trace"] = json.loads(lines[-1]) if lines else None
    return phase


def summarize_service(phase: dict, checker: ServiceChecker) -> dict:
    load = phase["load"]
    counts = checker.check(load)
    latencies = [
        (exchange.done_ns - exchange.sent_ns) / 1e6 for exchange in load.exchanges
    ]
    attempted = max(counts["attempted"], 1)
    return {
        "counts": counts,
        "latency_samples": len(latencies),
        "words_per_s": counts["recovered"] / load.wall_s,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": nearest_rank(latencies, 0.90),
        "ok_share": 1.0 - counts["failed"] / attempted,
        "failed_share": counts["failed"] / attempted,
        "recovery_rate": counts["matches"] / attempted,
        "wall_s": load.wall_s,
        "stream_exhausted": load.exhausted,
        "host_steal_share": phase["host_steal_share"],
    }


def run_service(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    source = inputs.DueSource()
    traffic = service_traffic(source, workload, seed, seconds)
    checker = ServiceChecker(source, every_word=workload == "hot-set")
    record: dict = {"reference_sample": checker.sample_rule}
    if not trace:
        setups, clean = [], True
        for _ in range(SETUP_LAUNCHES - 1):
            setup_s, ok = cold_start(workload)
            setups.append(setup_s)
            clean &= ok
        phase = serve(workload, seconds, False, traffic)
        setups.append(phase["setup_s"])
        summary = summarize_service(phase, checker)
        metrics = end_to_end(setups, summary, phase["peak_rss_mb"])
        record.update(
            setup_launches_s=setups,
            summary=summary,
            counts_delta=layers.recorded_counts(phase["delta"]),
        )
        counts = summary["counts"]
        return result(record, metrics, counts["attempted"], counts["failed"],
                      clean and phase["clean"], summary["stream_exhausted"])

    # The untraced and the traced phase share the run's measured time.
    plain = serve(workload, seconds / 2, False, traffic)
    traced = serve(workload, seconds / 2, True, traffic)
    plain_summary = summarize_service(plain, checker)
    traced_summary = summarize_service(traced, checker)
    metrics = {}
    if traced["trace"] is not None:
        metrics, record["stages"] = layers.service_layers(
            traced["trace"], traced["load"], traced["delta"], traced["after"]
        )
    metrics["trace.overhead_share"] = 1.0 - (
        traced_summary["words_per_s"] / plain_summary["words_per_s"]
    )
    record.update(
        untraced=plain_summary,
        traced=traced_summary,
        counts_delta=layers.recorded_counts(traced["delta"]),
    )
    return result(
        record, metrics,
        plain_summary["counts"]["attempted"]
        + traced_summary["counts"]["attempted"],
        plain_summary["counts"]["failed"] + traced_summary["counts"]["failed"],
        plain["clean"] and traced["clean"] and traced["trace"] is not None,
        plain_summary["stream_exhausted"] or traced_summary["stream_exhausted"],
    )


# ----------------------------------------------------------------------
# Sweep workload
# ----------------------------------------------------------------------


def sweep_child(seed: int, seconds: float, trace: bool, setup_only: bool):
    """Run ``sweep_child.py``: (setup s, its JSON record or None, clean)."""
    argv = [
        sys.executable, str(HERE / "sweep_child.py"),
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    child = ProgramProcess(argv, ROOT)
    try:
        ready_ns = int(child.wait_for_line(_READY, "stdout").group(1))
        child.proc.wait(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        clean = child.stop(interrupt=child.proc.poll() is None)
    setup_s = (ready_ns - child.launched_ns) / 1e9
    if setup_only:
        return setup_s, None, clean
    lines = [line for line in child.stdout if line.strip()]
    return setup_s, json.loads(lines[-1]), clean


def check_sweep(seed: int, record: dict) -> dict:
    """Per-pattern rates on the check patterns vs DueSweep(cache=False)."""
    code = experiments.default_code()
    patterns = double_bit_patterns(code.n)
    reference = DueSweep(
        code,
        RecoveryStrategy.FILTER_AND_RANK,
        NUM_INSTRUCTIONS,
        patterns=[patterns[index] for index in CHECK_PATTERNS],
        cache=False,
    )
    images = experiments.default_images(length=IMAGE_LENGTH, seed=seed)
    runs = record["runs"]
    first_pass = runs[: len(images)]
    mismatched = 0
    for image, run in zip(images, first_pass):
        expected = [outcome.success_rate for outcome in reference.run(image).outcomes]
        mismatched += sum(
            got != want for got, want in zip(run["check_rates"], expected)
        )
    # Later passes sweep the same images again and must repeat exactly.
    for index, run in enumerate(runs[len(images):]):
        first = first_pass[index % len(images)]
        mismatched += sum(
            got != want for got, want in zip(run["check_rates"], first["check_rates"])
        ) + (run["mean_success_rate"] != first["mean_success_rate"])
    rate = statistics.fmean(run["mean_success_rate"] for run in first_pass)
    golden_ok = seed != SWEEP_GOLDEN[0] or round(rate, 6) == SWEEP_GOLDEN[1]
    recoveries = sum(run["recoveries"] for run in runs)
    return {
        "checked_patterns": len(CHECK_PATTERNS) * len(images),
        "mismatched_patterns": mismatched,
        "golden_ok": golden_ok,
        "recovery_rate": rate,
        "recoveries": recoveries,
        # A wrong pattern rate fails its instructions; a wrong Fig. 8
        # mean fails the whole sweep.
        "failed": mismatched * NUM_INSTRUCTIONS
        + (0 if golden_ok else recoveries),
    }


def summarize_sweep(seed: int, record: dict) -> dict:
    check = check_sweep(seed, record)
    walls_ms = [run["wall_ns"] / 1e6 for run in record["runs"]]
    wall_s = (record["end_ns"] - record["start_ns"]) / 1e9
    return {
        "check": check,
        "words_per_s": check["recoveries"] / wall_s,
        "latency_p50_ms": statistics.median(walls_ms),
        "latency_p90_ms": nearest_rank(walls_ms, 0.90),
        "latency_samples": len(walls_ms),
        "ok_share": 1.0 - check["failed"] / check["recoveries"],
        "failed_share": check["failed"] / check["recoveries"],
        "recovery_rate": check["recovery_rate"],
        "wall_s": wall_s,
        "host_steal_share": record["host_steal_share"],
    }


def _sweep_counts(child_record: dict) -> dict[str, float]:
    before = layers.flatten(parse_exposition(child_record.pop("metrics_before")))
    after = layers.flatten(parse_exposition(child_record.pop("metrics_after")))
    return layers.deltas(before, after)


def run_sweep(seed: int, seconds: float, trace: bool) -> dict:
    record: dict = {
        "reference_sample": "patterns "
        + ",".join(map(str, CHECK_PATTERNS)) + " of every image",
    }
    if not trace:
        setups, clean = [], True
        for _ in range(SETUP_LAUNCHES - 1):
            setup_s, _, ok = sweep_child(seed, seconds, False, True)
            setups.append(setup_s)
            clean &= ok
        setup_s, child, ok = sweep_child(seed, seconds, False, False)
        setups.append(setup_s)
        delta = _sweep_counts(child)
        summary = summarize_sweep(seed, child)
        metrics = end_to_end(setups, summary, child["peak_rss_mb"])
        record.update(
            setup_launches_s=setups,
            summary=summary,
            image_walls_ms=[run["wall_ns"] / 1e6 for run in child["runs"]],
            counts_delta=layers.recorded_counts(delta),
        )
        check = summary["check"]
        return result(record, metrics, check["recoveries"], check["failed"],
                      clean and ok)

    _, plain, plain_ok = sweep_child(seed, seconds / 2, False, False)
    _, traced, traced_ok = sweep_child(seed, seconds / 2, True, False)
    delta = _sweep_counts(traced)
    plain_summary = summarize_sweep(seed, plain)
    traced_summary = summarize_sweep(seed, traced)
    metrics = layers.sweep_layers(traced, delta)
    metrics["trace.overhead_share"] = 1.0 - (
        traced_summary["words_per_s"] / plain_summary["words_per_s"]
    )
    record.update(
        untraced=plain_summary,
        traced=traced_summary,
        counts_delta=layers.recorded_counts(delta),
    )
    return result(
        record, metrics,
        plain_summary["check"]["recoveries"]
        + traced_summary["check"]["recoveries"],
        plain_summary["check"]["failed"] + traced_summary["check"]["failed"],
        plain_ok and traced_ok,
    )
