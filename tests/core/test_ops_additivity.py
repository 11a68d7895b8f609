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
  evals that ``recover()`` charges for the same words;
- one ``sweep_patterns()`` call over many patterns commits every
  ``swdecc.*`` and ``ops.*`` metric that per-pattern
  ``sweep_probabilities()`` calls commit, up to the same error;
- the per-context verdict tables change no charge: interleaving
  contexts word by word charges (and answers) what serving each
  context alone does, and warm tables charge what cold ones do.

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

import gc
import random
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import cache as cache_module
from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32
from repro.ecc.channel import double_bit_patterns
from repro.errors import ReproError
from repro.isa.decoder import ALL_SELECTOR_FIELDS
from repro.obs import metrics as obs_metrics
from repro.obs.energy import op_counts
from repro.program.profiles import BENCHMARK_NAMES
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
    XOR, where the table charges *less*: it never walks H's columns.
    Each word brings its own context, so a repeated word decides
    afresh, as the oracle always does."""
    words = _due_words(specs)
    table = _measure(
        lambda engine: [engine.recover(word, RecoveryContext()) for word in words]
    )
    reference = _measure(
        lambda engine: [engine.recover(word, RecoveryContext()) for word in words],
        cache=False,
    )
    assert table["ops.xor"] <= reference["ops.xor"]
    del table["ops.xor"], reference["ops.xor"]
    assert table == reference


def test_context_less_calls_amortize_decision_rows():
    """Calls without a context share one default context, so they
    amortize decision rows as calls that pin one context do: the second
    context-less ``recover()`` of a class charges no filter or ranker
    evals, while a fresh context per call charges them every time."""
    (word,) = _due_words([(0x8FBF0018, 1, 4)])
    once = _measure(lambda engine: engine.recover(word))
    twice = _measure(lambda engine: [engine.recover(word) for _ in range(2)])
    second = {name: twice[name] - once[name] for name in twice}
    assert once["ops.filter_evals"] > 0 and once["ops.ranker_evals"] > 0
    assert second["ops.filter_evals"] == second["ops.ranker_evals"] == 0
    assert second["ops.syndrome_computes"] == 1
    assert second["ops.candidate_enumerations"] == 1
    context = RecoveryContext()
    assert _measure(
        lambda engine: [engine.recover(word, context) for _ in range(2)]
    ) == twice
    fresh = _measure(
        lambda engine: [engine.recover(word, RecoveryContext()) for _ in range(2)]
    )
    assert fresh["ops.filter_evals"] == 2 * once["ops.filter_evals"]
    assert fresh["ops.ranker_evals"] == 2 * once["ops.ranker_evals"]


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


def _metered(drive):
    """Run *drive(engine)* on a fresh table engine under a fresh
    registry; return its output and every ``swdecc.*`` and ``ops.*``
    metric it committed."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        output = drive(
            SwdEcc(_WORD_CODE, tie_break=TieBreak.FIRST, rng=random.Random(0))
        )
    finally:
        obs_metrics.set_registry(previous)
    return output, {
        name: data
        for name, data in registry.as_dict().items()
        if name.startswith(("swdecc.", "ops."))
    }


#: A sweep error: up to four flipped bits (a codeword, a correctable
#: word, a 2-bit DUE, or a wider error), or a word wider than the code.
_SWEEP_ERROR = st.one_of(
    st.lists(
        st.integers(min_value=0, max_value=_WORD_CODE.n - 1),
        max_size=4, unique=True,
    ).map(lambda bits: sum(1 << bit for bit in bits)),
    st.just(1 << _WORD_CODE.n),
)


@settings(max_examples=40, deadline=None)
@given(
    messages=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=1, max_size=6,
    ),
    errors=st.lists(_SWEEP_ERROR, min_size=1, max_size=6),
    wide=st.booleans(),
)
def test_sweep_patterns_commit_what_per_pattern_calls_commit(
    messages, errors, wide
):
    """One ``sweep_patterns()`` call commits, pattern by pattern, the
    counters and histograms that one ``sweep_probabilities()`` call per
    pattern commits, and raises the same error at the same pattern
    after the same commits: a non-DUE, a word with no candidates, or
    (*wide*) a message wider than k bits."""
    if wide:
        messages = [*messages, 1 << 32]
    context = RecoveryContext.for_instructions(_TABLE)

    def kernel(engine):
        swept = []
        try:
            for stats in engine.sweep_patterns(messages, errors, context):
                swept.append(stats)
        except ReproError as error:
            swept.append(repr(error))
        return swept

    def per_pattern(engine):
        swept = []
        try:
            for error in errors:
                swept.append(
                    engine.sweep_probabilities(messages, error, context)
                )
        except ReproError as error:
            swept.append(repr(error))
        return swept

    assert _metered(kernel) == _metered(per_pattern)


#: Received word -> its message bits.
_SHIFT = _WORD_CODE.n - _WORD_CODE.k
_CONTEXTS = [
    RecoveryContext.for_instructions(
        FrequencyTable.from_image(
            synthesize_benchmark(name, length=512, seed=2016)
        )
    )
    for name in BENCHMARK_NAMES
]


def _distinct_class_words(count, seed):
    """*count* 2-bit DUE words whose decision classes (syndrome, selector
    base) are pairwise distinct, so no decision row is ever reused."""
    rng = random.Random(seed)
    patterns = [pattern.vector for pattern in double_bit_patterns(_WORD_CODE.n)]
    classes, words = set(), []
    while len(words) < count:
        word = _WORD_CODE.encode(rng.getrandbits(32)) ^ rng.choice(patterns)
        base = (word >> _SHIFT) & ALL_SELECTOR_FIELDS
        row_class = (_WORD_CODE.syndrome(word), base)
        if row_class not in classes:
            classes.add(row_class)
            words.append(word)
    return words


def _serve(requests):
    """Serve ``(context, word)`` *requests* in order on a fresh engine
    under a fresh registry; return the answers keyed by request, the
    op totals and the engine."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        engine = SwdEcc(_WORD_CODE, tie_break=TieBreak.FIRST, rng=random.Random(0))
        answers = {
            (id(context), word): engine.recover(word, context)
            for context, word in requests
        }
    finally:
        obs_metrics.set_registry(previous)
    return answers, op_counts(registry), engine


def test_interleaved_contexts_answer_and_charge_as_each_alone():
    """Five contexts, word by word, on one engine: every answer and
    every op total equals serving each context's words alone, and each
    context ends with the verdicts serving it alone builds."""
    words = _distinct_class_words(5 * 30, seed=15)
    streams = [words[index::5] for index in range(5)]
    alone = [
        (context, word)
        for context, stream in zip(_CONTEXTS, streams)
        for word in stream
    ]
    interleaved = [
        (context, stream[position])
        for position in range(30)
        for context, stream in zip(_CONTEXTS, streams)
    ]
    alone_answers, alone_ops, alone_engine = _serve(alone)
    answers, ops, engine = _serve(interleaved)
    assert answers == alone_answers
    assert ops == alone_ops
    for context in _CONTEXTS:
        assert engine._verdicts.table_for(context) == (
            alone_engine._verdicts.table_for(context)
        )


def test_warm_verdict_tables_charge_what_cold_ones_do():
    """Charges are per decided word, never per verdict-table miss: the
    same words charge the same ops whether the context's verdict table
    starts empty or was filled by an earlier sweep."""
    words = _distinct_class_words(40, seed=16)
    context = _CONTEXTS[2]
    window = [word >> _SHIFT for word in words[:8]]
    bits = (1 << 5) | (1 << 30)

    def charges(warm):
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_registry(registry)
        try:
            engine = SwdEcc(
                _WORD_CODE, tie_break=TieBreak.FIRST, rng=random.Random(0)
            )
            if warm:
                engine.sweep_probabilities(window, bits, context)
                assert len(engine._verdicts.table_for(context)) > 0
            before = op_counts(registry)
            answers = [engine.recover(word, context) for word in words]
            swept = engine.sweep_probabilities(window, bits, context)
            after = op_counts(registry)
        finally:
            obs_metrics.set_registry(previous)
        return answers, swept, {op: after[op] - before[op] for op in after}

    assert charges(warm=True) == charges(warm=False)


class _LargeContext(RecoveryContext):
    """A context too large for the small-object allocator.  A freed
    one's memory goes back to the system allocator, which hands it to
    the next object of its size, so its id is soon reused."""

    __slots__ = tuple(f"_pad{index}" for index in range(96))


def test_recycled_context_id_gets_its_own_verdicts():
    """A dropped context lives on in its verdict table, so its id cannot
    be recycled; once the cap drops the table the id is free, and a new
    context that lands on it must not read the old verdicts.  Two
    frequency tables favour different mnemonics, so one word recovers
    differently under each."""
    favour_addiu = FrequencyTable.from_counts("a", {"addiu": 100, "lw": 1, "sw": 1})
    favour_lw = FrequencyTable.from_counts("b", {"lw": 100, "addiu": 1, "sw": 1})
    word = 0x2835982FF
    oracle = SwdEcc(_WORD_CODE, tie_break=TieBreak.FIRST, cache=False)
    expected_first = oracle.recover(
        word, _LargeContext(frequency_table=favour_addiu)
    ).chosen_message
    expected_second = oracle.recover(
        word, _LargeContext(frequency_table=favour_lw)
    ).chosen_message
    assert expected_first != expected_second

    engine = SwdEcc(_WORD_CODE, tie_break=TieBreak.FIRST)
    first = _LargeContext(frequency_table=favour_addiu)
    assert engine.recover(word, first).chosen_message == expected_first
    # Serving another context moves the row memo off ``first``; from
    # here on only its verdict table refers to it.
    engine.recover(word, RecoveryContext())
    first_id, first_ref = id(first), weakref.ref(first)
    del first
    gc.collect()
    assert first_ref() is not None  # its table keeps the id taken
    first = first_ref()
    for _ in range(cache_module.MAX_CONTEXTS):
        engine.recover(word, RecoveryContext())
    tables = engine._verdicts._tables.values()
    assert all(table.context is not first for table in tables)  # capped
    del first, tables  # the last reference: the id is free from here on
    gc.collect()
    assert first_ref() is None

    held = []  # keep misses alive so their memory is not handed back
    while len(held) < 1000:
        second = _LargeContext(frequency_table=favour_lw)
        if id(second) == first_id:
            break
        held.append(second)
    assert id(second) == first_id, "no context reused the dropped id"
    assert engine.recover(word, second).chosen_message == expected_second
