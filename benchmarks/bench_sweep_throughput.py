"""Sweep-throughput benchmark: decode table vs reference oracle, and
the process fan-out.

Measures ``recover()``/second on the Fig. 8 workload (filter-and-rank
strategy, exhaustive double-bit patterns over a synthetic image) for
two sweep configurations:

- **reference** — ``DueSweep(cache=False)``: the engine's oracle,
  one full enumerate → filter → rank → choose pipeline per word;
- **table** — ``DueSweep()`` (the default): one
  ``SwdEcc.sweep_patterns`` call for all patterns, served from the
  code's decode table: a score row per message, and per (pattern,
  message) a C-level gather of the candidates' scores.

The gate times the reference and the table sweep in five alternating
rounds, the side that runs first swapping every round, and asserts
that the ratio of their median times is at least 15x.  Each round puts
both sides on the host at nearly the same moment, so drift in the
host's speed moves both medians alike.  Timed one after the other, the
chunk kernel and the per-pattern kernel before it read overlapping
ratios (14.9-28.0x and 7.9-15.0x), so no floor told them apart.  Timed
this way, ten runs of each on a 2-vCPU VM (Python 3.11.7) read
21.1-24.1x for the chunk kernel and 9.8-10.9x for the per-pattern one,
and the floor sits between the two ranges.

A measurement under the floor is re-taken (up to three attempts, best
ratio wins) so scheduler noise on a loaded CI host cannot fail the
gate — the floor itself never loosens.

A second test times the fan-out the same way: warm passes over the
five benchmark images at ``jobs=1`` and at ``jobs=2``, in five
alternating rounds, and prints the ratio of their median times.  The
process's worker pool outlives each ``DueSweep.run`` call, so only the
warm-up pays for forking workers.  It asserts no floor: ten runs on a
2-vCPU VM (Python 3.11.7) read 0.74-1.29x with the shared pool and
0.62-0.94x with a pool per call, so no floor tells them apart.  It is
skipped on a host with fewer than two CPUs.

The tests print their figures and write no file; ``perfbench/run.py``
keeps the provenance-stamped performance record.  See
``docs/performance.md``.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from benchmarks.conftest import emit
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.ecc.channel import double_bit_patterns
from repro.program.synth import synthesize_benchmark

MIN_TABLE_SPEEDUP = 15.0
PARALLEL_JOBS = 2
ROUNDS = 5  # alternating timings per side per attempt
ATTEMPTS = 3  # re-measure on a noisy host; best speedup is the verdict


def _seconds(code, image, window, *, cache, jobs=1):
    """Run the Fig. 8-shaped sweep once; return its wall seconds and the
    recover() calls it stands for."""
    sweep = DueSweep(
        code, RecoveryStrategy.FILTER_AND_RANK, window, cache=cache
    )
    start = time.perf_counter()
    result = sweep.run(image, jobs=jobs)
    elapsed = time.perf_counter() - start
    return elapsed, len(result.outcomes) * result.num_instructions


def _attempt(code, image, window):
    """Median reference and table seconds over :data:`ROUNDS`
    alternating rounds."""
    times = {False: [], True: []}
    for round_index in range(ROUNDS):
        order = (False, True) if round_index % 2 == 0 else (True, False)
        for cache in order:
            elapsed, recovers = _seconds(code, image, window, cache=cache)
            times[cache].append(elapsed)
    return (
        statistics.median(times[False]),
        statistics.median(times[True]),
        recovers,
    )


def test_table_sweep_at_least_15x_reference(code, scale):
    window = scale.instructions
    image = synthesize_benchmark("mcf", length=scale.image_length)
    num_patterns = len(double_bit_patterns(code.n))

    attempts = []
    for _ in range(ATTEMPTS):
        reference_s, table_s, recovers = _attempt(code, image, window)
        attempts.append((reference_s / table_s, reference_s, table_s))
        if attempts[-1][0] >= MIN_TABLE_SPEEDUP:
            break  # a clean measurement is the verdict

    table_speedup, reference_s, table_s = max(attempts)

    emit(
        "Performance | sweep throughput (recover()/sec, Fig. 8 workload)",
        "\n".join(
            [
                f"workload         : {recovers} recovers "
                f"({num_patterns} patterns x {window} instructions, "
                f"{image.name})",
                f"reference        : {recovers / reference_s:10.0f}/s "
                f"({reference_s * 1e3:8.1f} ms, median of {ROUNDS})",
                f"table            : {recovers / table_s:10.0f}/s "
                f"({table_s * 1e3:8.1f} ms, median of {ROUNDS}, "
                f"{table_speedup:.2f}x)",
            ]
        ),
    )

    assert table_speedup >= MIN_TABLE_SPEEDUP, (
        f"table sweep is only {table_speedup:.2f}x the reference "
        f"oracle; the decode table promises >= {MIN_TABLE_SPEEDUP:.1f}x"
    )


def _fanout_medians(sweep, images):
    """Median seconds of a warm pass over *images* at ``jobs=1`` and at
    :data:`PARALLEL_JOBS`, over :data:`ROUNDS` alternating rounds."""
    times = {1: [], PARALLEL_JOBS: []}
    for round_index in range(ROUNDS):
        order = (
            (1, PARALLEL_JOBS) if round_index % 2 == 0
            else (PARALLEL_JOBS, 1)
        )
        for jobs in order:
            start = time.perf_counter()
            for image in images:
                sweep.run(image, jobs=jobs)
            times[jobs].append(time.perf_counter() - start)
    return (
        statistics.median(times[1]),
        statistics.median(times[PARALLEL_JOBS]),
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < PARALLEL_JOBS,
    reason=f"the fan-out needs {PARALLEL_JOBS} CPUs",
)
def test_parallel_sweep_vs_serial(code, images, scale):
    window = scale.instructions
    sweep = DueSweep(code, RecoveryStrategy.FILTER_AND_RANK, window)
    for jobs in (1, PARALLEL_JOBS):  # warm: the pool, the decoder memo
        for image in images:
            sweep.run(image, jobs=jobs)

    serial_s, parallel_s = _fanout_medians(sweep, images)
    recovers = len(images) * len(double_bit_patterns(code.n)) * window
    emit(
        "Performance | sweep fan-out (warm five-image passes, Fig. 8 "
        "workload)",
        "\n".join(
            [
                f"workload         : {recovers} recovers per pass "
                f"({len(images)} images x {window} instructions)",
                f"serial (j=1)     : {recovers / serial_s:10.0f}/s "
                f"({serial_s * 1e3:8.1f} ms, median of {ROUNDS})",
                f"parallel (j={PARALLEL_JOBS})   : "
                f"{recovers / parallel_s:10.0f}/s "
                f"({parallel_s * 1e3:8.1f} ms, median of {ROUNDS}, "
                f"{serial_s / parallel_s:.2f}x)",
            ]
        ),
    )
