"""The Fig. 8 sweep, run as its own process by the benchmark.

Builds the five SPEC stand-in images (length 4096, the given seed) and
a FILTER_AND_RANK sweep over all 741 patterns x the first 100
instructions, prints ``ready <perf_counter_ns>`` once set-up is done,
and then (unless ``--setup-only``) sweeps the five images in order,
each over ``JOBS`` worker processes, in whole passes: it stops after
the pass whose end comes closest to ``--seconds``, so every image is
swept equally often.  The last line of standard output is one JSON
object with the measurements.

``--trace`` installs the benchmark's timing wrappers first.

The constants below are the workload's definition; ``workloads.py``
imports them to build the uncached reference it checks against.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from hostinfo import host_cpu_jiffies, steal_share

JOBS = 2
IMAGE_LENGTH = 4096
NUM_INSTRUCTIONS = 100
#: Patterns whose per-image rates are checked against DueSweep(cache=False).
CHECK_PATTERNS = tuple(range(0, 741, 50))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracehook import SweepTracer

        tracer = SweepTracer()
        tracer.install()

    from repro.analysis import experiments
    from repro.analysis.sweep import DueSweep, RecoveryStrategy
    from repro.obs import promtext
    from repro.obs.progress import SweepProgress

    images = experiments.default_images(length=IMAGE_LENGTH, seed=args.seed)
    sweep = DueSweep(
        experiments.default_code(),
        RecoveryStrategy.FILTER_AND_RANK,
        NUM_INSTRUCTIONS,
    )
    print(f"ready {time.perf_counter_ns()}", flush=True)
    if args.setup_only:
        return 0

    before = promtext.render()
    host_before = host_cpu_jiffies()
    progress = SweepProgress()
    runs = []
    start = time.perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    while True:
        pass_start = time.perf_counter_ns()
        for image in images:
            chunks_seen = len(tracer.chunk_walls) if tracer else 0
            merges_seen = len(tracer.merge_ns) if tracer else 0
            run_start = time.perf_counter_ns()
            result = sweep.run(image, jobs=JOBS, progress=progress)
            run_end = time.perf_counter_ns()
            run = {
                "image": image.name,
                "wall_ns": run_end - run_start,
                "recoveries": len(result.outcomes) * result.num_instructions,
                "mean_success_rate": result.mean_success_rate,
                "check_rates": [
                    result.outcomes[position].success_rate
                    for position in CHECK_PATTERNS
                ],
            }
            if tracer is not None:
                run["chunk_walls_s"] = tracer.chunk_walls[chunks_seen:]
                run["merge_ns"] = sum(tracer.merge_ns[merges_seen:])
            runs.append(run)
        # Stop at the pass boundary closest to the deadline.
        if run_end + (run_end - pass_start) // 2 >= deadline:
            break
    end = time.perf_counter_ns()
    host_after = host_cpu_jiffies()
    progress.finish()
    after = promtext.render()

    # This process's own peak comes from VmHWM, which starts afresh at
    # exec; ru_maxrss of RUSAGE_SELF would carry over the peak of the
    # process that launched this one.  Pool workers fork from here, so
    # the largest waited-for child stands for each of them.
    with open("/proc/self/status", "rb") as handle:
        own = next(
            int(line.split()[1]) for line in handle if line.startswith(b"VmHWM:")
        )
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record = {
        "start_ns": start,
        "end_ns": end,
        "runs": runs,
        # Both in KiB; JOBS workers run at a time.
        "peak_rss_mb": (own + JOBS * workers) / 1024.0,
        "host_steal_share": steal_share(host_before, host_after),
        "metrics_before": before,
        "metrics_after": after,
    }
    if tracer is not None:
        record["images_ns"] = tracer.images_ns
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
