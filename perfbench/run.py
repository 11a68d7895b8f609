#!/usr/bin/env python3
"""The repository benchmark: on-demand DUE recovery and the Fig. 8 sweep.

    python3 perfbench/run.py                                 # all workloads
    python3 perfbench/run.py --workload distinct --seed 7 --seconds 30 --trace 0

Four workloads (perfbench/README.md says why each exists):

- ``hot-set``  256-word requests drawn from 512 mcf DUEs (answer cache);
- ``distinct`` 64-word requests of never-repeating DUEs over five contexts;
- ``sharded``  the ``distinct`` traffic against ``--workers 2``;
- ``sweep``    the Fig. 8 sweep, 741 patterns x 100 instructions x 5
  images, ``jobs=2``; the seed is the image-synthesis seed.

With ``--trace 0`` a run reports the end-to-end metrics; with
``--trace 1`` it measures once untraced and once with the timing
wrappers of ``tracehook.py`` installed, and reports the per-layer
metrics.  Every run checks the answers it got against an uncached
reference, prints a table of the metrics with their units and one JSON
record, and prints the JSON result on its last line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("hot-set", "distinct", "sharded", "sweep")
DEFAULT_SEED = 2016


def spec() -> dict:
    """BENCHMARK.json: the metric names and units, and the run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares."""
    return {metric["name"]: metric["unit"] for metric in spec()[kind]}


def git_sha() -> str | None:
    """The commit checked out at the repository root, or None.

    Git does not look above the root, so a copy of the tree that is not
    a git checkout itself has no sha even when it sits inside one.
    """
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() or None


def provenance(workload: str, seed: int) -> dict:
    """Where a record came from: commit, host, interpreter, inputs.

    Outside a git checkout the sha is null; the digest of ``src/`` still
    identifies the measured code.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # Imported here: the benchmark's modules import the program, which
    # main() has only just found and put on sys.path.
    import workloads

    record = {"provenance": provenance(workload, seed), "trace": trace}
    if workload == "sweep":
        record.update(workloads.run_sweep(seed, seconds, trace))
    else:
        record.update(workloads.run_service(workload, seed, seconds, trace))
    return record


def report(record: dict, trace: bool) -> dict:
    """Print the table and the record; return the result object.

    A traced run prints (and records) every per-layer metric; its result
    carries the ones BENCHMARK.json declares.
    """
    declared = metric_units("per_layer" if trace else "end_to_end")
    shown = declared
    if trace:
        import layers

        shown = layers.PER_LAYER_UNITS
        # A layer the workload never enters did no work there: it reads 0.
        record["metrics"] = {
            name: record["metrics"].get(name, 0.0) for name in shown
        }
    source = record["provenance"]
    print(
        f"== {source['workload']} seed={source['seed']} trace={int(trace)} "
        f"| git {str(source['git_sha'])[:12]} src {source['src_sha256'][:12]} "
        f"| {source['cpu_count']} cpus | Python {source['python']}"
    )
    for name, unit in shown.items():
        print(f"  {name:<32} {record['metrics'][name]:>14.6g} {unit}")
    metrics = {
        name: {"value": record["metrics"][name], "unit": unit}
        for name, unit in declared.items()
    }
    print(
        f"  check: {record['attempted']} words attempted, "
        f"{record['failed']} failed; reference sample: "
        f"{record['reference_sample']}; clean shutdown: "
        f"{record['clean_shutdown']}; stream exhausted: "
        f"{record['stream_exhausted']} -> {'OK' if record['correct'] else 'FAILED'}"
    )
    print(json.dumps(record, sort_keys=True, default=str))
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec()["run_seconds"]),
                        help="measured time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Program processes run in sessions of their own, out of reach of a
    # signal sent to ours: turn SIGTERM and SIGHUP into an exit so that
    # the ``finally`` blocks stop them.
    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, lambda number, _: sys.exit(128 + number))
    trace = bool(args.trace)
    if args.workload is not None:
        record = run_workload(args.workload, args.seed, args.seconds, trace)
        print(json.dumps(report(record, trace)))
        return 0
    results = {
        workload: report(
            run_workload(workload, args.seed, args.seconds, trace), trace
        )
        for workload in WORKLOADS
    }
    print(json.dumps({
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "workloads": results,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
