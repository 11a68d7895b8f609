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

Throughput is gated on the *minimum* per-call time across several
tight untimed-loop passes — the noise-robust estimator on a shared
box, and conservative for the gate because reference noise can only
push its best pass *down*.  A separate per-call sampling pass
(``perf_counter_ns`` around each ``recover()``) supplies the reported
p50/p99 microseconds; it is not used for the gate.

The gate asserts the table's promise: table recoveries/s must be at
least ``MIN_SPEEDUP``x the reference configuration.  It prints its
figures and writes no file; ``perfbench/run.py`` keeps the
provenance-stamped performance record.
"""

from __future__ import annotations

import random
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
#: Tight-loop passes whose per-call minimum becomes the gated figure.
PASSES = 5

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


def _measure(mode: str, code, word_sets, context):
    engine = _engine(mode, code)
    recover = engine.recover
    if mode == "table":
        for word in word_sets[0]:  # warm-up: decision rows
            recover(word, context)
    best_per_call = None
    for word_pass in range(PASSES):
        # The table re-measures one warm set; the reference walks a
        # fresh distinct set each pass with the decoder memo cleared.
        words = word_sets[0] if mode == "table" else word_sets[word_pass]
        if mode == "reference":
            _clear_decoder_memo()
        start = perf_counter()
        for word in words:
            recover(word, context)
        per_call = (perf_counter() - start) / len(words)
        if best_per_call is None or per_call < best_per_call:
            best_per_call = per_call
    # Percentile sampling pass (reported, not gated): per-call timing
    # adds ~100 ns of timer overhead to every call.
    if mode == "reference":
        _clear_decoder_memo()
    samples_ns = []
    for word in word_sets[0]:
        t0 = perf_counter_ns()
        recover(word, context)
        samples_ns.append(perf_counter_ns() - t0)
    samples_ns.sort()
    calls = len(samples_ns)
    return {
        "recoveries_per_s": 1.0 / best_per_call,
        "best_pass_us": best_per_call * 1e6,
        "p50_us": samples_ns[calls // 2] / 1e3,
        "p99_us": samples_ns[min(calls - 1, (calls * 99) // 100)] / 1e3,
    }


def test_table_recover_is_10x_reference():
    code = canonical_secded_39_32()
    image = synthesize_benchmark(CONTEXT, length=IMAGE_LENGTH, seed=SEED)
    context = RecoveryContext.for_instructions(FrequencyTable.from_image(image))
    word_sets = _due_word_sets(code, image)

    results = {}
    notes = []
    for mode in MODES:
        results[mode] = _measure(mode, code, word_sets, context)

    def _speedup() -> float:
        return (
            results["table"]["recoveries_per_s"]
            / results["reference"]["recoveries_per_s"]
        )

    # Noise guard: a single descheduling burst can inflate every table
    # pass while leaving the (30x longer) reference passes mostly
    # untouched.  Re-measure both modes a bounded number of times,
    # keeping each mode's best figures.
    retries = 0
    while _speedup() < MIN_SPEEDUP and retries < 2:
        retries += 1
        for mode in MODES:
            remeasured = _measure(mode, code, word_sets, context)
            if (
                remeasured["recoveries_per_s"]
                > results[mode]["recoveries_per_s"]
            ):
                results[mode] = remeasured
        notes.append(f"(retry {retries}: re-measured gated modes)")

    speedup = _speedup()
    lines = [
        f"{mode:12s}: {results[mode]['recoveries_per_s']:9.0f} recover()/s  "
        f"best {results[mode]['best_pass_us']:7.2f} us  "
        f"p50 {results[mode]['p50_us']:7.2f} us  "
        f"p99 {results[mode]['p99_us']:7.2f} us"
        for mode in MODES
    ] + notes
    emit(
        "Performance | single-word recover() latency (decode table vs oracle)",
        "\n".join(
            [
                f"workload      : {PASSES} passes x {WORDS_PER_PASS} "
                f"distinct DUE words, context={CONTEXT}",
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
