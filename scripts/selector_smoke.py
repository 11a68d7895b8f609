#!/usr/bin/env python3
"""CI smoke test: the adaptive code selector reacts to adjacent bursts.

Starts a :class:`repro.service.RecoveryService` on an ephemeral port
with an :class:`repro.service.AdaptiveCodeSelector` attached, drives
the loadgen with an *adjacent-burst* DUE profile (every word is a
valid (39, 32) codeword with two adjacent bits flipped), and asserts,
exiting nonzero on any violation:

- the load completes with zero HTTP errors and every word recovered;
- the selector, polled by the service after each served request,
  upgrades the observed region from ``secded-39-32`` to ``daec-41-32``
  (the observed adjacent-DUE fraction is 1.0, far above the 0.65
  upgrade threshold);
- ``/metrics`` parses with the strict round-trip parser
  (:func:`repro.obs.promtext.parse_exposition`) and carries every
  ``selector_*`` family with counts consistent with the load: one
  classified sample per word, all adjacent, exactly one upgrade and
  no downgrade.

Run from the repository root:
``PYTHONPATH=src python scripts/selector_smoke.py``.
"""

from __future__ import annotations

import random
import sys
import urllib.request

from repro.ecc import canonical_secded_39_32
from repro.obs import promtext
from repro.service import AdaptiveCodeSelector, RecoveryService
from repro.service.catalog import _CONTEXT_IMAGE_LENGTH, _CONTEXT_SEED
from repro.service.loadgen import run_load
from repro.program.synth import synthesize_benchmark

CONTEXT = "mcf"
WORDS_PER_REQUEST = 32
#: One closed-loop client, one request: the upgrade decision lands on
#: that request's poll, and no later traffic can muddy the assertion.
CLIENTS = 1
REQUESTS = 1


def adjacent_burst_due_words(count: int = 32, seed: int = 7) -> list[int]:
    """Valid (39, 32) codewords, each with one adjacent double flipped.

    The loadgen's stock :func:`generate_due_words` samples *uniformly
    random* doubles; this profile is the adjacent-MBU one the selector
    is built to detect.
    """
    rng = random.Random(seed)
    code = canonical_secded_39_32()
    image = synthesize_benchmark(
        CONTEXT, length=_CONTEXT_IMAGE_LENGTH, seed=_CONTEXT_SEED
    )
    words = []
    for _ in range(count):
        message = image.words[rng.randrange(len(image))]
        start = rng.randrange(code.n - 1)
        burst = 0b11 << (code.n - 2 - start)
        words.append(code.encode(message) ^ burst)
    return words


def main() -> int:
    failures: list[str] = []
    words = adjacent_burst_due_words(WORDS_PER_REQUEST)
    # The selector watches the process event log, the one the catalog
    # engines record the served DUEs to.
    selector = AdaptiveCodeSelector()
    service = RecoveryService(port=0, selector=selector)
    with service:
        service.catalog.preload([CONTEXT])
        result = run_load(
            "127.0.0.1", service.port,
            clients=CLIENTS, requests_per_client=REQUESTS,
            words_per_request=WORDS_PER_REQUEST,
            context=CONTEXT, words=words,
        )
        with urllib.request.urlopen(
            service.url + "/metrics", timeout=15
        ) as response:
            families = promtext.parse_exposition(
                response.read().decode("utf-8")
            )

    expected_words = CLIENTS * REQUESTS * WORDS_PER_REQUEST
    if result.http_errors:
        failures.append(f"load saw {result.http_errors} HTTP errors")
    if result.recovered != expected_words:
        failures.append(
            f"only {result.recovered}/{expected_words} words recovered"
        )

    # The switch itself: every DUE was adjacent-consistent, so the
    # region the events landed in (no addresses -> region 0) must now
    # run the DAEC code.
    assignments = selector.assignments()
    if selector.code_for(0) != selector.upgrade_code_id:
        failures.append(
            f"region 0 still runs {selector.code_for(0)!r}; expected "
            f"an upgrade to {selector.upgrade_code_id!r}"
        )
    if assignments != {0: selector.upgrade_code_id}:
        failures.append(f"unexpected assignments {assignments!r}")

    # Strict-parsed selector_* families, consistent with the load.
    for family in ("selector_polls", "selector_samples",
                   "selector_adjacent_samples",
                   "selector_width_mismatches", "selector_evicted_events",
                   "selector_switches", "selector_upgrades",
                   "selector_downgrades", "selector_regions_observed",
                   "selector_regions_upgraded",
                   "selector_adjacent_fraction", "selector_config_info"):
        if family not in families:
            failures.append(f"/metrics is missing {family}")

    def total(family: str) -> float | None:
        metric = families.get(family)
        return metric.sample_value("_total") if metric else None

    def gauge(family: str) -> float | None:
        metric = families.get(family)
        return metric.sample_value("") if metric else None

    if total("selector_samples") != expected_words:
        failures.append(
            f"selector_samples_total {total('selector_samples')} != "
            f"{expected_words} words served"
        )
    if total("selector_adjacent_samples") != expected_words:
        failures.append(
            f"selector_adjacent_samples_total "
            f"{total('selector_adjacent_samples')} != {expected_words} "
            f"(every injected DUE was an adjacent burst)"
        )
    if total("selector_upgrades") != 1:
        failures.append(
            f"selector_upgrades_total {total('selector_upgrades')} != 1"
        )
    if total("selector_downgrades") != 0:
        failures.append(
            f"selector_downgrades_total {total('selector_downgrades')} "
            f"!= 0 (the upgrade must not flap back)"
        )
    if total("selector_switches") != 1:
        failures.append(
            f"selector_switches_total {total('selector_switches')} != 1"
        )
    if total("selector_width_mismatches") != 0:
        failures.append(
            f"selector_width_mismatches_total "
            f"{total('selector_width_mismatches')} != 0"
        )
    if gauge("selector_regions_upgraded") != 1:
        failures.append(
            f"selector_regions_upgraded {gauge('selector_regions_upgraded')} "
            f"!= 1"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"selector smoke: OK ({expected_words} adjacent-burst DUEs, "
            f"region 0 secded-39-32 -> {selector.upgrade_code_id}, "
            f"{len(families)} metric families strict-parsed)"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
