#!/usr/bin/env python3
"""CI smoke test: scrape ``/metrics`` live while a parallel sweep runs.

Starts an :class:`repro.obs.server.ObsServer` on an ephemeral port,
runs two small ``jobs=2`` DUE sweeps (two images, one after the other,
the second on the worker pool the first started) in the main thread
while a scraper thread polls ``/metrics`` and ``/healthz``, then
asserts for each sweep:

- every scraped exposition parses with the strict round-trip parser
  (:func:`repro.obs.promtext.parse_exposition`);
- ``/healthz`` answered ``{"status": "ok"}`` on every poll;
- the ``sweep_progress_patterns_done`` gauge advanced monotonically
  and reached the announced total;
- the sweep outcomes are bit-identical to a serial run with no server.

Exits nonzero (with a message) on any violation, so CI fails loudly.
Run from the repository root: ``PYTHONPATH=src python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import sys
import threading
import time
import urllib.request

from repro.analysis.sweep import DueSweep, RecoveryStrategy
from repro.ecc import canonical_secded_39_32
from repro.obs import promtext
from repro.obs.progress import SweepProgress
from repro.obs.server import ObsServer
from repro.program import synthesize_benchmark

JOBS = 2
#: Swept in order; the second sweep runs on the first one's worker pool.
BENCHMARKS = ("mcf", "bzip2")
WINDOW = 4
IMAGE_LENGTH = 512
SCRAPE_INTERVAL_S = 0.05


class Scraper(threading.Thread):
    """Poll the server until stopped, recording progress samples."""

    def __init__(self, base_url: str) -> None:
        super().__init__(name="serve-smoke-scraper", daemon=True)
        self.base_url = base_url
        self.samples: list[float] = []
        self.healthz_ok = 0
        self.errors: list[str] = []
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10)

    def scrape_once(self) -> None:
        with urllib.request.urlopen(
            self.base_url + "/metrics", timeout=5
        ) as response:
            families = promtext.parse_exposition(
                response.read().decode("utf-8")
            )
        family = families.get("sweep_progress_patterns_done")
        if family is not None:
            self.samples.append(family.sample_value())
        with urllib.request.urlopen(
            self.base_url + "/healthz", timeout=5
        ) as response:
            if b'"ok"' in response.read():
                self.healthz_ok += 1

    def run(self) -> None:
        while not self._halt.is_set():
            try:
                self.scrape_once()
            except Exception as error:  # any scrape failure fails CI
                self.errors.append(f"{type(error).__name__}: {error}")
                return
            self._halt.wait(SCRAPE_INTERVAL_S)


def _served_sweep(sweep, image, server) -> list[str]:
    """Sweep *image* at ``jobs=2`` while scraping *server*; returns the
    failures against the serial reference."""
    serial = sweep.run(image, jobs=1)

    # Creating the tracker starts a fresh sweep session: it resets the
    # progress gauges the serial reference run above advanced, so every
    # scrape below observes only the served run (0 -> total).
    progress = SweepProgress()
    scraper = Scraper(server.url)
    scraper.start()
    started = time.perf_counter()
    served = sweep.run(image, jobs=JOBS, progress=progress)
    wall = time.perf_counter() - started
    scraper.scrape_once()  # guarantee one final post-run sample
    scraper.stop()

    failures = []
    if scraper.errors:
        failures.append(f"scrape failed: {scraper.errors[0]}")
    if not scraper.samples:
        failures.append("no progress samples were scraped")
    if scraper.samples != sorted(scraper.samples):
        failures.append(
            f"patterns_done went backwards: {scraper.samples}"
        )
    if scraper.samples and scraper.samples[-1] != progress.total:
        failures.append(
            f"final patterns_done {scraper.samples[-1]} != "
            f"announced total {progress.total} (stale-gauge reset broken?)"
        )
    if not scraper.healthz_ok:
        failures.append("healthz never answered ok")
    if served != serial:
        failures.append("served parallel sweep != serial no-server sweep")

    print(
        f"serve smoke [{image.name}]: {len(scraper.samples)} scrapes over "
        f"{wall:.2f}s, patterns_done {scraper.samples[:1]} -> "
        f"{scraper.samples[-1:]}, healthz ok x{scraper.healthz_ok}"
    )
    return [f"[{image.name}] {failure}" for failure in failures]


def main() -> int:
    code = canonical_secded_39_32()
    sweep = DueSweep(
        code, RecoveryStrategy.FILTER_AND_RANK, num_instructions=WINDOW
    )
    failures = []
    with ObsServer(port=0) as server:
        for benchmark in BENCHMARKS:
            image = synthesize_benchmark(benchmark, length=IMAGE_LENGTH)
            failures += _served_sweep(sweep, image, server)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("serve smoke: OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
