"""Observability overhead guard.

The default-on instrumentation (counters, histograms, event records)
must not tax the recovery hot path: an instrumented ``SwdEcc.recover``
is asserted to stay within 10% of a baseline engine wired to the null
registry and a discarding event log.  The baseline counts nothing: the
table path's per-class tally is never committed under the null
registry, so its bookkeeping is discarded with the rest.  Spans are
opt-in and disabled here, matching the tier-1 configuration.

Timing uses min-of-N batches: each batch runs the same fixed set of
recover calls, and the minimum batch time is the least-noisy estimate
of the true cost.  Both variants are measured interleaved to cancel
drift from machine load, and a measurement that lands over budget is
re-taken (up to three attempts, best ratio wins) so a loaded CI host
does not fail the gate on scheduler noise — the budget itself never
loosens.
"""

from __future__ import annotations

import random
import time

from benchmarks.conftest import emit
from repro.analysis.experiments import default_code
from repro.core import RecoveryContext, SwdEcc
from repro.ecc.channel import double_bit_patterns
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.events import NullEventLog
from repro.obs.metrics import NULL_REGISTRY
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

BATCHES = 7
TOLERANCE = 1.10  # instrumented may cost at most 10% more
ATTEMPTS = 3  # re-measure on a noisy host; best ratio is the verdict


def _workload(code):
    """A fixed, deterministic set of DUE words to recover."""
    image = synthesize_benchmark("mcf", length=512)
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    patterns = double_bit_patterns(code.n)[:40]
    words = image.words[:8]
    received = [
        pattern.apply(code.encode(word))
        for word in words
        for pattern in patterns
    ]
    return context, received


def _time_batch(engine, context, received) -> float:
    start = time.perf_counter()
    for word in received:
        engine.recover(word, context)
    return time.perf_counter() - start


def _null_engine():
    """Build an engine whose cached metrics/events all discard.

    Metric objects are resolved at construction — including the
    op-level energy counters the *code object itself* carries — so the
    swap must bracket both the code construction and
    ``SwdEcc.__init__``; reusing the fixture's code would smuggle live
    counters into the baseline.
    """
    saved_registry = obs_metrics.set_registry(NULL_REGISTRY)
    saved_log = obs_events.set_event_log(NullEventLog())
    try:
        return SwdEcc(default_code(), rng=random.Random(0))
    finally:
        obs_metrics.set_registry(saved_registry)
        obs_events.set_event_log(saved_log)


def _measure_ratio(baseline, instrumented, context, received):
    base_times, inst_times = [], []
    for _ in range(BATCHES):
        base_times.append(_time_batch(baseline, context, received))
        inst_times.append(_time_batch(instrumented, context, received))
    return min(base_times), min(inst_times)


def test_instrumented_recover_within_ten_percent(code):
    context, received = _workload(code)
    instrumented = SwdEcc(code, rng=random.Random(0))
    baseline = _null_engine()

    # Warm both paths (JIT-free, but primes caches and allocators).
    _time_batch(baseline, context, received)
    _time_batch(instrumented, context, received)

    attempts = []
    for _ in range(ATTEMPTS):
        base_best, inst_best = _measure_ratio(
            baseline, instrumented, context, received
        )
        attempts.append((inst_best / base_best, base_best, inst_best))
        if attempts[-1][0] <= TOLERANCE:
            break  # a clean measurement is the verdict; stop burning CI time

    ratio, base_best, inst_best = min(attempts)

    emit(
        "Observability | instrumentation overhead on SwdEcc.recover",
        "\n".join(
            [
                f"workload            : {len(received)} recover calls/batch, "
                f"{BATCHES} batches x {len(attempts)} attempt(s)",
                f"baseline (null obs) : {base_best * 1e3:8.2f} ms/batch (best)",
                f"instrumented        : {inst_best * 1e3:8.2f} ms/batch (best)",
                f"ratio               : {ratio:8.3f}  (budget {TOLERANCE:.2f})",
            ]
        ),
    )

    assert ratio <= TOLERANCE, (
        f"instrumented recover is {ratio:.3f}x the null-observability "
        f"baseline in the best of {ATTEMPTS} attempts, over the "
        f"{TOLERANCE:.2f}x budget"
    )
