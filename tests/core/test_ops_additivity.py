"""Property: op-level energy counters are exactly additive.

The energy model prices recoveries by multiplying op counters by
per-op joule constants, so the counters must be *accounting-grade*:
the same words must charge the same ops no matter how they are
grouped or which path serves them.  Hypothesis drives random
2-bit-DUE word lists and asserts

- ``recover_batch(words)`` charges bit-identical op counts to serial
  ``recover()`` calls on an identically configured fresh engine, on
  the oracle and on the table path;
- batch boundaries are invisible: one ``recover_batch(a + b)`` call
  charges exactly what ``recover_batch(a)`` then ``recover_batch(b)``
  charge on another fresh engine;
- building a decode table charges no ops at all, and the table path
  charges the oracle's ops except XOR, of which it charges fewer;
- a table sweep charges the enumerations, filter evals and ranker
  evals that ``recover()`` charges for the same words.

Each measurement swaps in an empty process registry *before*
constructing the engine, which caches its counter references at
construction time, so the swap isolates every example.  The oracle
also charges syndromes through its code's counters, so it gets a fresh
code too; the table path charges only through the engine, so it
shares one code (and that code's table) across examples.  The table
path keeps decision rows per *context identity*, so the grouping
comparisons pin one shared context: a fresh context per call
legitimately rebuilds rows (and recharges their filter/ranker evals).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.obs import metrics as obs_metrics
from repro.obs.energy import op_counts
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

_WORD_CODE = canonical_secded_39_32()
_TABLE = FrequencyTable.from_image(synthesize_benchmark("mcf", length=512))


def _measure(drive, cache=True):
    """Run *drive(engine)* against a fresh registry and engine; return
    the op-counter totals it charged."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        engine = SwdEcc(
            _WORD_CODE if cache else canonical_secded_39_32(),
            tie_break=TieBreak.FIRST,
            rng=random.Random(0),
            cache=cache,
        )
        assert (engine.decode_table is not None) == cache
        drive(engine)
        return op_counts(registry)
    finally:
        obs_metrics.set_registry(previous)


def _due_words(specs):
    """Materialize (message, bit_a, bit_b) specs as 2-bit-DUE words."""
    words = []
    for message, bit_a, bit_b in specs:
        received = _WORD_CODE.encode(message)
        received ^= 1 << bit_a
        received ^= 1 << (bit_b if bit_b != bit_a else (bit_a + 1) % _WORD_CODE.n)
        words.append(received)
    return words


_SPEC = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=_WORD_CODE.n - 1),
    st.integers(min_value=0, max_value=_WORD_CODE.n - 1),
)


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, min_size=1, max_size=8))
def test_batch_charges_same_ops_as_serial(specs):
    """The oracle: no state survives between words at all."""
    words = _due_words(specs)
    batched = _measure(lambda engine: engine.recover_batch(words), cache=False)
    serial = _measure(
        lambda engine: [engine.recover(word) for word in words], cache=False
    )
    assert batched == serial
    assert any(value > 0 for value in batched.values())


@settings(max_examples=25, deadline=None)
@given(
    specs=st.lists(_SPEC, min_size=2, max_size=8),
    split=st.integers(min_value=1, max_value=7),
)
def test_batch_boundaries_do_not_change_ops(specs, split):
    words = _due_words(specs)
    split = min(split, len(words) - 1)
    context = RecoveryContext()
    whole = _measure(lambda engine: engine.recover_batch(words, context))

    def in_two(engine):
        engine.recover_batch(words[:split], context)
        engine.recover_batch(words[split:], context)

    assert _measure(in_two) == whole


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, min_size=1, max_size=8))
def test_precompiled_batch_charges_same_ops_as_serial(specs):
    """The decode-table path keeps the same grouping invariance."""
    words = _due_words(specs)
    context = RecoveryContext()
    batched = _measure(lambda engine: engine.recover_batch(words, context))
    serial = _measure(
        lambda engine: [engine.recover(word, context) for word in words]
    )
    assert batched == serial
    assert any(value > 0 for value in batched.values())


def test_table_build_charges_no_ops():
    """The build is set-up, priced by ``decode_table.build_seconds``:
    op totals must not depend on how many tables a study builds."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        canonical_secded_39_32().decode_table
    finally:
        obs_metrics.set_registry(previous)
    assert registry.counter("decode_table.builds").value == 1
    assert all(value == 0 for value in op_counts(registry).values())


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(_SPEC, min_size=1, max_size=8))
def test_precompiled_charges_reference_ops_minus_amortized_walk(specs):
    """Serving from the table matches the oracle on every op except
    XOR, where the table charges *less*: it never walks H's columns."""
    words = _due_words(specs)
    table = _measure(lambda engine: [engine.recover(word) for word in words])
    reference = _measure(
        lambda engine: [engine.recover(word) for word in words], cache=False
    )
    assert table["ops.xor"] <= reference["ops.xor"]
    del table["ops.xor"], reference["ops.xor"]
    assert table == reference


_SWEEP_OPS = ("ops.candidate_enumerations", "ops.filter_evals", "ops.ranker_evals")


@settings(max_examples=25, deadline=None)
@given(
    messages=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=1, max_size=8,
    ),
    bits=st.lists(
        st.integers(min_value=0, max_value=_WORD_CODE.n - 1),
        min_size=2, max_size=2, unique=True,
    ),
)
def test_sweep_charges_recover_ops(messages, bits):
    """A table sweep decides every message afresh (its decisions are
    not stored), so it charges what ``recover()`` charges for the same
    words when each arrives with a fresh context."""
    error = (1 << bits[0]) | (1 << bits[1])
    words = [_WORD_CODE.encode(message) ^ error for message in messages]
    context = RecoveryContext.for_instructions(_TABLE)
    swept = _measure(
        lambda engine: engine.sweep_probabilities(messages, error, context)
    )
    recovered = _measure(
        lambda engine: [
            engine.recover(word, RecoveryContext.for_instructions(_TABLE))
            for word in words
        ]
    )
    assert swept["ops.candidate_enumerations"] == len(messages)
    for op in _SWEEP_OPS:
        assert swept[op] == recovered[op], op
