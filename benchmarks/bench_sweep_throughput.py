"""Sweep-throughput benchmark: decode table vs reference oracle.

Measures ``recover()``/second on the Fig. 8 workload (filter-and-rank
strategy, exhaustive double-bit patterns over a synthetic image) for
three sweep configurations:

- **reference** — ``DueSweep(cache=False)``: the engine's oracle,
  one full enumerate → filter → rank → choose pipeline per word;
- **table** — ``DueSweep()`` (the default): one
  ``SwdEcc.sweep_patterns`` call for all patterns, served from the
  code's decode table: a score row per message, and per (pattern,
  message) a C-level gather of the candidates' scores;
- **parallel** — table sweeps fanned out over worker processes
  (``jobs=2``; chunk setup dominates on small hosts, so no scaling is
  asserted — the parallel row is printed for cross-host comparison).

The table configuration is asserted to reach at least 6x the reference
throughput.  A measurement under the floor is re-taken (up to three
attempts, best speedup wins) so scheduler noise on a loaded CI host
cannot fail the gate — the floor itself never loosens.  The floor
stays at 6x although the chunk kernel roughly doubled the table
side: on a 2-vCPU VM, ten runs read 14.9-28.0x against 7.9-15.0x for
the per-pattern kernel before it, ranges too close for a floor
between them to fail one kernel and never the other.  The gate prints
its figures and writes no file; ``perfbench/run.py`` keeps the
provenance-stamped performance record.  See ``docs/performance.md``.
"""

from __future__ import annotations

import time

from benchmarks.conftest import emit
from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.ecc.channel import double_bit_patterns
from repro.program.synth import synthesize_benchmark

MIN_TABLE_SPEEDUP = 6.0
PARALLEL_JOBS = 2
ATTEMPTS = 3  # re-measure on a noisy host; best speedup is the verdict


def _throughput(code, image, window, *, cache, jobs=1):
    """Run the Fig. 8-shaped sweep once; return recover() calls/second."""
    sweep = DueSweep(
        code, RecoveryStrategy.FILTER_AND_RANK, window, cache=cache
    )
    start = time.perf_counter()
    result = sweep.run(image, jobs=jobs)
    elapsed = time.perf_counter() - start
    recovers = len(result.outcomes) * result.num_instructions
    return recovers / elapsed, recovers, elapsed


def test_table_sweep_at_least_6x_reference(code, scale):
    window = scale.instructions
    image = synthesize_benchmark("mcf", length=scale.image_length)
    num_patterns = len(double_bit_patterns(code.n))

    attempts = []
    for _ in range(ATTEMPTS):
        reference_rps, recovers, reference_s = _throughput(
            code, image, window, cache=False
        )
        table_rps, _, table_s = _throughput(code, image, window, cache=True)
        attempts.append(
            (table_rps / reference_rps,
             reference_rps, recovers, reference_s, table_rps, table_s)
        )
        if attempts[-1][0] >= MIN_TABLE_SPEEDUP:
            break  # a clean measurement is the verdict

    (table_speedup, reference_rps, recovers, reference_s,
     table_rps, table_s) = max(attempts)
    parallel_rps, _, parallel_s = _throughput(
        code, image, window, cache=True, jobs=PARALLEL_JOBS
    )

    parallel_speedup = parallel_rps / reference_rps

    emit(
        "Performance | sweep throughput (recover()/sec, Fig. 8 workload)",
        "\n".join(
            [
                f"workload         : {recovers} recovers "
                f"({num_patterns} patterns x {window} instructions, "
                f"{image.name})",
                f"reference        : {reference_rps:10.0f}/s "
                f"({reference_s * 1e3:8.1f} ms)",
                f"table            : {table_rps:10.0f}/s "
                f"({table_s * 1e3:8.1f} ms, "
                f"{table_speedup:.2f}x)",
                f"parallel (j={PARALLEL_JOBS})   : {parallel_rps:10.0f}/s "
                f"({parallel_s * 1e3:8.1f} ms, "
                f"{parallel_speedup:.2f}x)",
            ]
        ),
    )

    assert table_speedup >= MIN_TABLE_SPEEDUP, (
        f"table sweep is only {table_speedup:.2f}x the reference "
        f"oracle; the decode table promises >= {MIN_TABLE_SPEEDUP:.1f}x"
    )
