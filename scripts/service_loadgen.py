#!/usr/bin/env python3
"""Load generator for the DUE-recovery service (closed or open loop).

Either drives an already-running service::

    PYTHONPATH=src python scripts/service_loadgen.py \
        --host 127.0.0.1 --port 9200 --clients 4 --requests 100

or self-hosts one for the duration (the default when ``--port`` is
omitted), so a one-liner produces a full throughput/latency report::

    PYTHONPATH=src python scripts/service_loadgen.py --clients 4
    PYTHONPATH=src python scripts/service_loadgen.py --workers 2 \
        --mode open --rate 500

Closed loop (default): each client thread issues ``POST
/recover/batch`` back-to-back over a kept-alive connection, so the
offered load adapts to the service.  Open loop (``--mode open --rate
R``): requests fire on a fixed global schedule of R requests/s and
latency is accounted from each request's *scheduled* arrival time, so
queueing delay shows up in the tail instead of silently throttling
the generator.

The run reports words/s and p50/p90/p99 request latency, and appends
the record — including the serving process's ``workers`` count and
the load ``mode`` — to ``BENCH_service.json`` at the repo root
(disable with ``--no-history``) so regressions stay visible in
history.
"""

from __future__ import annotations

import argparse
import json
import sys
import urllib.request
from datetime import datetime, timezone
from pathlib import Path

from repro.service import RecoveryService
from repro.service.loadgen import generate_due_words, run_load

HISTORY_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _probe_workers(host: str, port: int) -> int | None:
    """The target service's shard count, from its ``/healthz``."""
    try:
        with urllib.request.urlopen(
            f"http://{host}:{port}/healthz", timeout=5.0
        ) as response:
            return json.loads(response.read()).get("workers")
    except Exception:
        return None


def _append_history(record: dict) -> None:
    history = []
    if HISTORY_PATH.exists():
        try:
            history = json.loads(HISTORY_PATH.read_text())
        except json.JSONDecodeError:
            history = []
    if not isinstance(history, list):
        history = [history]
    history.append(record)
    HISTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop load generator for the recovery service"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="target an already-running service "
                        "(default: self-host one for the run)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent closed-loop client threads")
    parser.add_argument("--requests", type=int, default=50,
                        help="requests per client")
    parser.add_argument("--batch", type=int, default=64, metavar="WORDS",
                        help="words per request")
    parser.add_argument("--context", default="mcf",
                        help="side-info context id sent with each request")
    parser.add_argument("--max-batch", type=int, default=512,
                        help="service micro-batch size (self-host only)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="shard processes for the self-hosted "
                        "service (0 = in-process)")
    parser.add_argument("--mode", choices=["closed", "open"],
                        default="closed",
                        help="closed loop (response-paced) or open loop "
                        "(fixed offered rate)")
    parser.add_argument("--rate", type=float, default=None, metavar="RPS",
                        help="offered requests/s (open-loop mode only)")
    parser.add_argument("--no-history", action="store_true",
                        help=f"do not append to {HISTORY_PATH.name}")
    args = parser.parse_args(argv)
    if args.mode == "open" and (args.rate is None or args.rate <= 0):
        parser.error("--mode open requires a positive --rate")

    words = generate_due_words()
    service = None
    host, port = args.host, args.port
    try:
        if port is None:
            service = RecoveryService(
                port=0,
                max_batch=args.max_batch,
                workers=args.workers,
            )
            # Preload before start so sharded workers fork warm.
            service.catalog.preload([args.context]
                                    if args.context != "none" else [])
            service.start()
            host, port = "127.0.0.1", service.port
            print(f"self-hosting recovery service on {service.url} "
                  f"(workers={args.workers})", file=sys.stderr)
        workers = (
            args.workers if service is not None
            else _probe_workers(host, port)
        )
        result = run_load(
            host, port,
            clients=args.clients,
            requests_per_client=args.requests,
            words_per_request=args.batch,
            context=args.context,
            words=words,
            mode=args.mode,
            rate_rps=args.rate,
        )
    finally:
        if service is not None:
            service.stop()

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "tool": "service_loadgen",
        "self_hosted": service is not None,
        "workers": workers,
        "context": args.context,
        "words_per_request": args.batch,
        **result.to_record(),
    }
    if not args.no_history:
        _append_history(record)

    summary = result.to_record()
    print(json.dumps(record, indent=2))
    print(
        f"\nloadgen: {summary['words']} words over "
        f"{summary['wall_seconds']}s = "
        f"{summary['throughput_words_per_s']:.0f} recoveries/s, "
        f"p50 {summary['latency_ms']['p50']:.2f} ms, "
        f"p99 {summary['latency_ms']['p99']:.2f} ms",
        file=sys.stderr,
    )
    if summary["slowest_traces"]:
        print("loadgen: slowest requests (look them up with "
              "'repro trace <id>' if the service traces):",
              file=sys.stderr)
        for entry in summary["slowest_traces"]:
            print(f"  {entry['trace_id']}  {entry['latency_ms']:.3f} ms",
                  file=sys.stderr)
    if result.http_errors or result.requests == 0:
        print(f"loadgen: {result.http_errors} HTTP errors", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
