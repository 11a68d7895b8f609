"""Decode tables: bit-identity with the reference oracle, fallbacks, bounds.

The table path's contract is *bit-identity*: ``SwdEcc()`` must return
results indistinguishable from the cache-free oracle
``SwdEcc(cache=False)`` — same fields, same tie-break RNG consumption,
same exceptions with the same messages — across every double-bit
syndrome, from ``recover()`` and from the sweep kernel
(``sweep_patterns()``, and ``sweep_probabilities()``, its one-pattern
case), plus clean bypasses for everything the table does not cover
(radius escalation) and clean interop for everything downstream
(equality, hashing, pickling).  The oracle never touches the table it
checks.
The decision kernel's per-context verdict tables are checked the same
way — every code, context, strategy and tie-break — and for their
bounds.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import RecoveryStrategy
from repro.core import cache as cache_module
from repro.core.filters import InstructionLegalityFilter
from repro.core.rankers import CandidateRanker, FrequencyRanker, UniformRanker
from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import RecoveryResult, SwdEcc, TieBreak
from repro.ecc import canonical_secded_39_32, daec_code, hsiao_39_32
from repro.ecc.candidates import CandidateEnumerator
from repro.ecc.channel import double_bit_patterns
from repro.ecc.code import DecodeStatus
from repro.ecc.decode_table import DecodeTable
from repro.errors import DecodingError, EncodingError, ReproError
from repro.isa.decoder import (
    ALL_SELECTOR_FIELDS,
    SELECTOR_FIELD_MASKS,
    _spec_for_word,
    selector_key,
    spec_for_selector_key,
)
from repro.obs import metrics as obs_metrics
from repro.program.profiles import BENCHMARK_NAMES
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

CODE = canonical_secded_39_32()
PATTERNS = tuple(pattern.vector for pattern in double_bit_patterns(CODE.n))
IMAGE = synthesize_benchmark("mcf", length=512, seed=2016)
CONTEXT = RecoveryContext.for_instructions(FrequencyTable.from_image(IMAGE))


def _engines(tie_break=TieBreak.FIRST, seed=0, code=CODE):
    """An identically configured (table, oracle) engine pair."""
    fast = SwdEcc(code, tie_break=tie_break, rng=random.Random(seed))
    reference = SwdEcc(
        code, tie_break=tie_break, rng=random.Random(seed), cache=False
    )
    assert reference.decode_table is None
    return fast, reference


# ---------------------------------------------------------------------------
# Table structure
# ---------------------------------------------------------------------------


def test_table_covers_all_double_bit_syndromes():
    table = DecodeTable(CODE)
    assert table.num_syndromes == 63
    assert table.num_pairs == 741
    assert table.supports_fast_path
    assert table.resident_bytes > 0
    assert table.build_seconds > 0


def test_table_pair_masks_match_lazy_enumerator():
    table = DecodeTable(CODE)
    walk = CandidateEnumerator(CODE)
    seen = set()
    for pattern in PATTERNS:
        syndrome = CODE.syndrome(pattern)
        if syndrome in seen:
            continue
        seen.add(syndrome)
        assert table.entry(syndrome).masks == walk.pair_masks(syndrome)
    # Syndromes no pair produces have no entry; the walk finds none.
    uncovered = next(
        s for s in range(1, 128) if table.entry(s) is None
    )
    assert walk.pair_masks(uncovered) == ()


@settings(max_examples=100, deadline=None)
@given(received=st.integers(min_value=0, max_value=(1 << CODE.n) - 1))
def test_chunked_syndrome_matches_code(received):
    assert CODE.decode_table.syndrome_of(received) == CODE.syndrome(received)


def test_precompile_is_idempotent():
    """The table belongs to the code: built once, shared by every
    engine over that code object, and left behind when the code is
    pickled (the receiver rebuilds it on first use)."""
    code = hsiao_39_32()
    table = code.decode_table
    assert table.code is code
    assert code.decode_table is table
    assert SwdEcc(code).decode_table is table
    assert SwdEcc(code, ranker=UniformRanker()).decode_table is table
    clone = pickle.loads(pickle.dumps(code))
    assert clone._decode_table is None
    assert clone.decode_table is not table
    assert clone.decode_table.entries.keys() == table.entries.keys()


def test_build_registers_metrics():
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        DecodeTable(CODE)
    finally:
        obs_metrics.set_registry(previous)
    assert registry.counter("decode_table.builds").value == 1
    assert registry.counter("decode_table.entries").value == 63
    assert registry.counter("decode_table.pair_masks").value == 741
    assert registry.counter("decode_table.resident_bytes").value > 0
    assert registry.histogram("decode_table.build_seconds").count == 1


# ---------------------------------------------------------------------------
# Selector-key purity (what makes decision rows safe to share)
# ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(word=st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_spec_is_selector_pure(word):
    """Legality and mnemonic depend only on the selector-field bits."""
    via_key = spec_for_selector_key(selector_key(word))
    direct = _spec_for_word(word)
    assert (direct is None) == (via_key is None)
    if direct is not None:
        assert direct.mnemonic == via_key.mnemonic


def test_selector_masks_within_union():
    for opcode_mask in SELECTOR_FIELD_MASKS:
        assert opcode_mask & ~ALL_SELECTOR_FIELDS == 0


# ---------------------------------------------------------------------------
# Bit-identity of recover()
# ---------------------------------------------------------------------------


def test_identical_across_all_741_patterns():
    """Every double-bit pattern, deterministic tie-break, full equality
    (equality materializes every lazy field on the fast result)."""
    fast, reference = _engines()
    for index, pattern in enumerate(PATTERNS):
        received = CODE.encode(IMAGE.words[index % len(IMAGE.words)]) ^ pattern
        fast_result = fast.recover(received, CONTEXT)
        reference_result = reference.recover(received, CONTEXT)
        assert fast_result == reference_result
        assert reference_result == fast_result  # reflected (cross-class)
        assert hash(fast_result) == hash(reference_result)


@settings(max_examples=50, deadline=None)
@given(
    message=st.integers(min_value=0, max_value=(1 << 32) - 1),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
)
def test_identical_on_random_words(message, pattern_index):
    fast, reference = _engines()
    received = CODE.encode(message) ^ PATTERNS[pattern_index]
    assert fast.recover(received, CONTEXT) == reference.recover(
        received, CONTEXT
    )


@settings(max_examples=30, deadline=None)
@given(
    message=st.integers(min_value=0, max_value=(1 << 32) - 1),
    pattern_index=st.integers(min_value=0, max_value=len(PATTERNS) - 1),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_identical_rng_consumption_random_tie_break(
    message, pattern_index, seed
):
    """RANDOM tie-break consumes identical RNG state on both paths."""
    fast, reference = _engines(tie_break=TieBreak.RANDOM, seed=seed)
    received = CODE.encode(message) ^ PATTERNS[pattern_index]
    for _ in range(3):  # repeated draws keep the streams aligned
        assert fast.recover(received, CONTEXT) == reference.recover(
            received, CONTEXT
        )
    assert fast._rng.random() == reference._rng.random()


def test_identical_without_context():
    """No side info: empty filter/ranker context, still bit-identical."""
    fast, reference = _engines()
    received = CODE.encode(0xDEADBEEF) ^ PATTERNS[3]
    assert fast.recover(received) == reference.recover(received)


def test_identical_on_filter_fallback():
    """A word whose candidates are all illegal falls back identically."""
    fast, reference = _engines()
    fallback = None
    for message in range(0, 1 << 16):
        received = CODE.encode(message << 26) ^ PATTERNS[0]
        result = reference.recover(received, CONTEXT)
        if result.filter_fell_back:
            fallback = received
            break
    assert fallback is not None, "no fallback case found"
    fast_result = fast.recover(fallback, CONTEXT)
    assert fast_result.filter_fell_back
    assert fast_result == reference.recover(fallback, CONTEXT)


def test_radius_escalation_bypasses_table():
    """A 3-bit error has no table entry: the reference path serves it."""
    fast, reference = _engines()
    table = fast.decode_table
    received = None
    for i in range(CODE.n):
        for j in range(i + 1, CODE.n):
            for k in range(j + 1, CODE.n):
                error = (1 << i) | (1 << j) | (1 << k)
                word = CODE.encode(0x12345678) ^ error
                syndrome = CODE.syndrome(word)
                if (
                    syndrome != 0
                    and syndrome not in CODE.syndrome_to_position
                    and table.entry(syndrome) is None
                ):
                    received = word
                    break
            if received is not None:
                break
        if received is not None:
            break
    assert received is not None, "no escalating triple error found"
    fast_result = fast.recover(received, CONTEXT)
    reference_result = reference.recover(received, CONTEXT)
    assert fast_result == reference_result
    assert type(fast_result) is RecoveryResult  # not a table-served result


@pytest.mark.parametrize(
    "received",
    [
        CODE.encode(0xCAFE),        # clean codeword
        CODE.encode(0xCAFE) ^ 1,    # correctable single-bit error
        1 << CODE.n,                # out of range
        -1,                         # negative
    ],
)
def test_non_due_errors_match_reference(received):
    fast, reference = _engines()
    with pytest.raises(DecodingError) as fast_error:
        fast.recover(received, CONTEXT)
    with pytest.raises(DecodingError) as reference_error:
        reference.recover(received, CONTEXT)
    assert str(fast_error.value) == str(reference_error.value)


# ---------------------------------------------------------------------------
# Bit-identity of sweep_probabilities()
# ---------------------------------------------------------------------------


def _strategy_engine(strategy, tie_break, cache, code=CODE, seed=0):
    """The sweep's engine for *strategy*, under either tie-break."""
    if strategy is RecoveryStrategy.RANDOM_CANDIDATE:
        filters, ranker = (), UniformRanker()
    elif strategy is RecoveryStrategy.FILTER_ONLY:
        filters, ranker = (InstructionLegalityFilter(),), UniformRanker()
    else:
        filters, ranker = (InstructionLegalityFilter(),), FrequencyRanker()
    return SwdEcc(
        code, filters=filters, ranker=ranker, tie_break=tie_break,
        rng=random.Random(seed), cache=cache,
    )


@settings(max_examples=60, deadline=None)
@given(
    strategy=st.sampled_from(RecoveryStrategy),
    tie_break=st.sampled_from(TieBreak),
    messages=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=1, max_size=6,
    ),
    positions=st.lists(
        st.integers(min_value=0, max_value=CODE.n - 1),
        min_size=2, max_size=4, unique=True,
    ),
)
def test_sweep_probabilities_match_oracle(
    strategy, tie_break, messages, positions
):
    """Every strategy and tie-break, over 2- to 4-bit patterns: table
    entries, escalations and non-DUE patterns alike.  (The table path
    draws no tie-break RNG: its probabilities are exact.)"""
    error = 0
    for position in positions:
        error |= 1 << (CODE.n - 1 - position)
    fast = _strategy_engine(strategy, tie_break, cache=True)
    oracle = _strategy_engine(strategy, tie_break, cache=False)
    assert fast.decode_table is not None and oracle.decode_table is None
    try:
        expected = oracle.sweep_probabilities(messages, error, CONTEXT)
    except DecodingError as oracle_error:
        with pytest.raises(DecodingError) as fast_error:
            fast.sweep_probabilities(messages, error, CONTEXT)
        assert str(fast_error.value) == str(oracle_error)
        return
    assert fast.sweep_probabilities(messages, error, CONTEXT) == expected


@pytest.mark.parametrize(
    "messages",
    [[1 << 32], [-1], [IMAGE.words[0], 1 << 40, -1]],
    ids=["too-wide", "negative", "first-bad-reported"],
)
def test_sweep_rejects_messages_wider_than_k(messages):
    """A message that does not fit in k bits raises the oracle's
    EncodingError (that of the first bad message) instead of a made-up
    rate."""
    fast = _strategy_engine(RecoveryStrategy.FILTER_AND_RANK, TieBreak.FIRST, True)
    oracle = _strategy_engine(
        RecoveryStrategy.FILTER_AND_RANK, TieBreak.FIRST, False
    )
    with pytest.raises(EncodingError) as oracle_error:
        oracle.sweep_probabilities(messages, PATTERNS[0], CONTEXT)
    with pytest.raises(EncodingError) as fast_error:
        fast.sweep_probabilities(messages, PATTERNS[0], CONTEXT)
    assert str(fast_error.value) == str(oracle_error.value)


#: Op counters a sweep charges exactly as word-by-word recovery does.
#: (``ops.xor`` and ``ops.syndrome_computes`` are priced per path: the
#: sweep computes no word's syndrome and walks no column.)
_DECISION_OPS = (
    "ops.candidate_enumerations", "ops.filter_evals", "ops.ranker_evals",
)


def _swept(engine_for, drive):
    """Run *drive* on a fresh engine under a fresh registry; return its
    output and the decision metrics it committed."""
    registry = obs_metrics.MetricsRegistry()
    previous = obs_metrics.set_registry(registry)
    try:
        output = drive(engine_for())
    finally:
        obs_metrics.set_registry(previous)
    snapshot = registry.as_dict()
    return output, {
        name: data
        for name, data in snapshot.items()
        if name.startswith("swdecc.") or name in _DECISION_OPS
    }


# ---------------------------------------------------------------------------
# Result interop (lazy fields, pickling, copying)
# ---------------------------------------------------------------------------


def test_lazy_result_pickles_and_copies_as_plain_result():
    fast, reference = _engines()
    received = CODE.encode(IMAGE.words[0]) ^ PATTERNS[10]
    fast_result = fast.recover(received, CONTEXT)
    reference_result = reference.recover(received, CONTEXT)

    unpickled = pickle.loads(pickle.dumps(fast_result))
    assert type(unpickled) is RecoveryResult
    assert unpickled == reference_result
    assert copy.copy(fast_result) == reference_result
    assert copy.deepcopy(fast_result) == reference_result
    assert {fast_result, reference_result} == {reference_result}

    assert fast_result.num_candidates == reference_result.num_candidates
    assert fast_result.num_valid == reference_result.num_valid
    assert fast_result.recovered(IMAGE.words[0]) == reference_result.recovered(
        IMAGE.words[0]
    )


# ---------------------------------------------------------------------------
# Engine configuration
# ---------------------------------------------------------------------------


def test_service_catalog_precompiles_by_default():
    """Catalog engines serve from their code's decode table."""
    from repro.service.catalog import DEFAULT_CODE_ID, ServiceCatalog

    catalog = ServiceCatalog()
    engine = catalog.engine(DEFAULT_CODE_ID)
    assert engine.decode_table is catalog.code(DEFAULT_CODE_ID).decode_table


def test_unhooked_ranker_keeps_the_oracle_path():
    """A ranker without a spec hook (it reads more than the decoded
    spec) must not be served from decision rows."""

    class ParityRanker(FrequencyRanker):
        def score(self, message, context):
            return float(message & 1)

    engine = SwdEcc(CODE, ranker=ParityRanker())
    assert engine.decode_table is None
    received = CODE.encode(IMAGE.words[3]) ^ PATTERNS[5]
    reference = SwdEcc(CODE, ranker=ParityRanker(), cache=False)
    assert engine.recover(received, CONTEXT) == reference.recover(
        received, CONTEXT
    )


# ---------------------------------------------------------------------------
# Decision-row cache bound
# ---------------------------------------------------------------------------

#: Rows one engine may hold per context (about 4 MiB).
ROW_CACHE_LIMIT = 4096


def test_row_cache_is_bounded_and_answers_stay_exact():
    """5,000 never-repeating DUEs in one context: the row cache stays
    within its cap and every answer still equals the oracle."""
    fast, reference = _engines()
    rng = random.Random(2016)
    words = set()
    while len(words) < 5000:
        words.add(CODE.encode(rng.getrandbits(32)) ^ rng.choice(PATTERNS))
    classes = {
        (CODE.syndrome(word), (word >> 7) & ALL_SELECTOR_FIELDS)
        for word in words
    }
    assert len(classes) > ROW_CACHE_LIMIT  # the cap must be crossed
    peak = 0
    for word in sorted(words):
        assert fast.recover(word, CONTEXT) == reference.recover(word, CONTEXT)
        peak = max(peak, len(fast._row_cache))
    assert 0 < peak <= ROW_CACHE_LIMIT


# ---------------------------------------------------------------------------
# The decision kernel and its verdict tables
# ---------------------------------------------------------------------------

KERNEL_CODES = {
    "secded-39-32": CODE,
    "hsiao-39-32": hsiao_39_32(),
    "daec-41-32": daec_code(),
}
KERNEL_PATTERNS = {
    name: tuple(pattern.vector for pattern in double_bit_patterns(code.n))
    for name, code in KERNEL_CODES.items()
}
KERNEL_CONTEXTS = {"none": RecoveryContext()} | {
    name: RecoveryContext.for_instructions(
        FrequencyTable.from_image(
            synthesize_benchmark(name, length=512, seed=2016)
        )
    )
    for name in BENCHMARK_NAMES
}
#: Per code: a word whose candidates are all illegal (the legality
#: filter falls back) and a word that ties three or more candidates
#: under the mcf context.
PINNED_WORDS = {
    "secded-39-32": {"fallback": 0x6900000024, "tie": 0x1E759EBEA6},
    "hsiao-39-32": {"fallback": 0x6900000024, "tie": 0x1E759EBEA6},
    "daec-41-32": {"fallback": 0x1E00000001C, "tie": 0x79D65FFAFD},
}


def _assert_same_fields(fast_result, reference_result):
    for field in dataclasses.fields(RecoveryResult):
        assert getattr(fast_result, field.name) == getattr(
            reference_result, field.name
        ), field.name
    assert fast_result.ranked_targets() == reference_result.ranked_targets()
    assert fast_result.num_candidates == reference_result.num_candidates
    assert fast_result.num_valid == reference_result.num_valid


def _recover_both(fast, reference, received, context):
    """Recover on both engines; a non-DUE must raise the same error."""
    try:
        reference_result = reference.recover(received, context)
    except DecodingError as reference_error:
        with pytest.raises(DecodingError) as fast_error:
            fast.recover(received, context)
        assert str(fast_error.value) == str(reference_error)
        return
    _assert_same_fields(fast.recover(received, context), reference_result)


@settings(max_examples=150, deadline=None)
@given(
    code_name=st.sampled_from(sorted(KERNEL_CODES)),
    context_name=st.sampled_from(sorted(KERNEL_CONTEXTS)),
    strategy=st.sampled_from(RecoveryStrategy),
    tie_break=st.sampled_from(TieBreak),
    seed=st.integers(min_value=0, max_value=1 << 16),
    words=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << 32) - 1),
            st.integers(min_value=0, max_value=1 << 20),
        ),
        min_size=1, max_size=4,
    ),
)
def test_kernel_recover_matches_oracle_field_for_field(
    code_name, context_name, strategy, tie_break, seed, words
):
    """Every code, context, strategy and tie-break: each word twice
    (a new decision row, then a row hit), and the RANDOM tie-break's
    RNG streams stay aligned."""
    code = KERNEL_CODES[code_name]
    patterns = KERNEL_PATTERNS[code_name]
    context = KERNEL_CONTEXTS[context_name]
    fast = _strategy_engine(strategy, tie_break, True, code, seed)
    reference = _strategy_engine(strategy, tie_break, False, code, seed)
    assert fast.decode_table is code.decode_table
    for message, pick in words:
        received = code.encode(message) ^ patterns[pick % len(patterns)]
        for _ in range(2):
            _recover_both(fast, reference, received, context)
    assert fast._rng.random() == reference._rng.random()


@pytest.mark.parametrize("tie_break", list(TieBreak))
@pytest.mark.parametrize("strategy", list(RecoveryStrategy))
@pytest.mark.parametrize("code_name", sorted(KERNEL_CODES))
def test_kernel_pinned_fallback_and_tie_words(code_name, strategy, tie_break):
    code = KERNEL_CODES[code_name]
    pins = PINNED_WORDS[code_name]
    oracle = _strategy_engine(
        RecoveryStrategy.FILTER_AND_RANK, TieBreak.FIRST, False, code
    )
    mcf = KERNEL_CONTEXTS["mcf"]
    assert oracle.recover(pins["fallback"], mcf).filter_fell_back
    assert oracle.recover(pins["tie"], mcf).tied >= 3
    fast = _strategy_engine(strategy, tie_break, True, code, seed=7)
    reference = _strategy_engine(strategy, tie_break, False, code, seed=7)
    for context in KERNEL_CONTEXTS.values():
        for received in (pins["fallback"], pins["tie"]):
            for _ in range(3):
                _recover_both(fast, reference, received, context)
    assert fast._rng.random() == reference._rng.random()


# ---------------------------------------------------------------------------
# The sweep kernel: many patterns per call
# ---------------------------------------------------------------------------


def _fallback_sweep_word(code_name):
    """The pinned fallback word of *code_name* as a sweep input: a
    message and a 2-bit error whose every candidate the legality filter
    rejects."""
    code = KERNEL_CODES[code_name]
    received = PINNED_WORDS[code_name]["fallback"]
    table = code.decode_table
    mask = table.entry(table.syndrome_of(received)).masks[0]
    return (received ^ mask) >> (code.n - code.k), mask


@pytest.mark.parametrize("tie_break", list(TieBreak))
@pytest.mark.parametrize("strategy", list(RecoveryStrategy))
@pytest.mark.parametrize("code_name", sorted(KERNEL_CODES))
def test_sweep_matches_word_by_word_recovery_on_all_2_bit_patterns(
    code_name, strategy, tie_break
):
    """Every table-served catalog code: one ``sweep_patterns()`` call
    over all its 2-bit patterns, and one ``sweep_probabilities()`` call
    per pattern, equal ``_sweep_by_recover`` (one reference
    ``recover()`` per word) — rates, candidate and valid counts, every
    ``swdecc.*`` counter and histogram (buckets, count, sum, min, max)
    and the decision op counters.  The window ends with the code's
    pinned fallback message; daec's single-candidate patterns gather
    one column."""
    code = KERNEL_CODES[code_name]
    patterns = KERNEL_PATTERNS[code_name]
    fallback_message, _ = _fallback_sweep_word(code_name)
    window = [*IMAGE.words[:3], fallback_message]

    def engine_for(cache):
        return lambda: _strategy_engine(strategy, tie_break, cache, code)

    swept, swept_metrics = _swept(
        engine_for(True),
        lambda engine: list(engine.sweep_patterns(window, patterns, CONTEXT)),
    )
    one_by_one, one_by_one_metrics = _swept(
        engine_for(True),
        lambda engine: [
            engine.sweep_probabilities(window, pattern, CONTEXT)
            for pattern in patterns
        ],
    )
    recovered, recovered_metrics = _swept(
        engine_for(False),
        lambda engine: [
            engine._sweep_by_recover(window, pattern, CONTEXT)
            for pattern in patterns
        ],
    )
    assert swept == one_by_one == recovered
    assert swept_metrics == one_by_one_metrics == recovered_metrics
    words = len(window) * len(patterns)
    assert swept_metrics["swdecc.recoveries"]["value"] == words
    for name in ("swdecc.candidates", "swdecc.valid_messages"):
        assert swept_metrics[name]["count"] == words
    if strategy is not RecoveryStrategy.RANDOM_CANDIDATE:
        assert swept_metrics["swdecc.filter_fallbacks"]["value"] > 0
    if code_name == "daec-41-32":
        assert swept_metrics["swdecc.candidates"]["min"] == 1


#: A sweep error: flipped bit positions (none to four, folded into the
#: code's width), the code's pinned fallback error, or a word wider
#: than the code.
_SWEEP_ERRORS = st.one_of(
    st.lists(st.integers(min_value=0, max_value=63), max_size=4, unique=True),
    st.sampled_from(["fallback", "wide"]),
)


@settings(max_examples=80, deadline=None)
@given(
    code_name=st.sampled_from(sorted(KERNEL_CODES)),
    strategy=st.sampled_from(RecoveryStrategy),
    tie_break=st.sampled_from(TieBreak),
    messages=st.lists(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        min_size=1, max_size=5,
    ),
    with_fallback=st.booleans(),
    specs=st.lists(_SWEEP_ERRORS, min_size=1, max_size=6),
)
def test_sweep_patterns_match_oracle_per_error(
    code_name, strategy, tie_break, messages, with_fallback, specs
):
    """Mixed error lists — codewords and correctable words mid-list,
    2-bit DUEs, 3- and 4-bit errors with and without a table entry, the
    all-filtered fallback word, errors wider than the code — yield,
    error by error, what the oracle's ``sweep_probabilities()`` returns,
    and raise its error at the same pattern."""
    code = KERNEL_CODES[code_name]
    fallback_message, fallback_error = _fallback_sweep_word(code_name)
    if with_fallback:
        messages = [*messages, fallback_message]
    errors = []
    for spec in specs:
        if spec == "fallback":
            errors.append(fallback_error)
        elif spec == "wide":
            errors.append(1 << code.n)
        else:
            error = 0
            for position in spec:
                error ^= 1 << (code.n - 1 - position % code.n)
            errors.append(error)
    fast = _strategy_engine(strategy, tie_break, True, code)
    oracle = _strategy_engine(strategy, tie_break, False, code)
    swept = fast.sweep_patterns(messages, errors, CONTEXT)
    for error in errors:
        try:
            expected = oracle.sweep_probabilities(messages, error, CONTEXT)
        except ReproError as oracle_error:
            with pytest.raises(type(oracle_error)) as fast_error:
                next(swept)
            assert str(fast_error.value) == str(oracle_error)
            return
        assert next(swept) == expected
    assert next(swept, None) is None


#: Mnemonics :class:`_OddScoreRanker` scores oddly.
_ODD_MNEMONICS = frozenset({"addiu", "lw", "sw", "addu", "beq", "sll"})


class _OddScoreRanker(CandidateRanker):
    """Scores a legal word by its mnemonic's length, except *odd* (NaN
    or -inf) for :data:`_ODD_MNEMONICS`: scores ``max()`` cannot order
    against the sweep's -inf for a filtered candidate."""

    name = "odd-scores"

    def __init__(self, odd: float) -> None:
        self._odd = odd

    def _score(self, spec):
        if spec is None:
            return 0.0
        if spec.mnemonic in _ODD_MNEMONICS:
            return self._odd
        return len(spec.mnemonic)

    def score(self, message, context):
        return self._score(_spec_for_word(message))

    def spec_scorer(self):
        return lambda spec, context: self._score(spec)


@pytest.mark.parametrize("tie_break", list(TieBreak))
def test_sweep_decides_unorderable_scores_with_decide(tie_break):
    """A row holding a -inf or NaN score is decided by ``_decide``.  A
    -inf score sweeps as the oracle recovers; NaN, which the oracle
    cannot rank, sweeps as ``_decide`` decides each word."""
    window = IMAGE.words[:6]
    shift = CODE.n - CODE.k
    for odd in (float("-inf"), float("nan")):
        ranker = _OddScoreRanker(odd)
        fast = SwdEcc(CODE, ranker=ranker, tie_break=tie_break)
        assert fast.decode_table is not None
        swept = list(fast.sweep_patterns(window, PATTERNS, CONTEXT))
        verdicts = fast._verdicts.table_for(CONTEXT)
        assert odd in verdicts.values()
        if odd == odd:
            oracle = SwdEcc(CODE, ranker=ranker, tie_break=tie_break, cache=False)
            assert swept == [
                oracle.sweep_probabilities(window, pattern, CONTEXT)
                for pattern in PATTERNS
            ]
            continue
        expected = []
        for pattern in PATTERNS:
            offsets = fast._sweep_entry(pattern).offsets
            stats = []
            for message in window:
                probability, pool, _, fell_back = fast._decide_word(
                    message, pattern >> shift, offsets, verdicts
                )
                stats.append(
                    (probability, len(offsets), 0 if fell_back else pool)
                )
            expected.append(stats)
        assert swept == expected


def test_context_less_calls_share_one_default_context():
    """Calls without a context share one default context: repeated
    recover(), recover_batch() and sweep_probabilities() calls fill one
    verdict table and keep one decision-row generation."""
    fast, reference = _engines()
    received = CODE.encode(IMAGE.words[0]) ^ PATTERNS[0]
    first = reference.recover(received)
    filled = None
    for _ in range(4):
        assert fast.recover(received) == first
        assert fast.recover_batch([received]) == [first]
        fast.sweep_probabilities(IMAGE.words[:4], PATTERNS[0])
        assert fast.recovery_probability(
            received, first.chosen_message
        ) == reference.recovery_probability(received, first.chosen_message)
        assert len(fast._verdicts) == 1
        (table,) = fast._verdicts._tables.values()
        assert filled in (None, len(table))  # nothing new after the first
        filled = len(table)
        assert len(fast._row_cache) == 1
    assert filled > 0


def _selector_keyspace():
    """Every selector key: each opcode with every value of the other
    bits its selector mask keeps."""
    keys = []
    for opcode, mask in enumerate(SELECTOR_FIELD_MASKS):
        free = [bit for bit in range(26) if mask >> bit & 1]
        for value in range(1 << len(free)):
            key = opcode << 26
            for index, bit in enumerate(free):
                if value >> index & 1:
                    key |= 1 << bit
            keys.append(key)
    return keys


def test_verdict_tables_are_bounded():
    """cap + 1 fresh contexts leave at most cap tables; a table holds
    selector keys only, so never more than the 6,298 of the keyspace."""
    keyspace = _selector_keyspace()
    assert len(keyspace) == len(set(keyspace)) == 6298
    fast, _ = _engines()
    cap = cache_module.MAX_CONTEXTS
    received = CODE.encode(IMAGE.words[0]) ^ PATTERNS[0]
    for _ in range(cap + 1):
        fast.recover(received, RecoveryContext())
        assert 0 < len(fast._verdicts) <= cap
    for _ in range(cap + 1):
        fast.sweep_probabilities(IMAGE.words[:2], PATTERNS[1], RecoveryContext())
        assert 0 < len(fast._verdicts) <= cap

    rng = random.Random(2016)
    messages = [rng.getrandbits(32) for _ in range(40)]
    for pattern in PATTERNS:
        fast.sweep_probabilities(messages, pattern, CONTEXT)
    table = fast._verdicts.table_for(CONTEXT)
    assert all(selector_key(key) == key for key in table)
    assert 0 < len(table) <= 6298
    for key in keyspace:
        table[key]
    for pattern in PATTERNS[::7]:
        fast.sweep_probabilities(messages, pattern, CONTEXT)
    assert len(table) == 6298
    assert all(len(other) <= 6298 for other in fast._verdicts._tables.values())


# ---------------------------------------------------------------------------
# Correctable-radius guard (t >= 2 codes must take the reference path)
# ---------------------------------------------------------------------------


def test_radius_one_guard_accepts_secded_family():
    from repro.ecc.daec import daec_code

    for code in (CODE, hsiao_39_32(), daec_code()):
        table = DecodeTable(code)
        assert table.radius_one, code.name
        assert table.supports_fast_path, code.name


def test_radius_one_guard_demotes_dec_and_dected():
    from repro.ecc.bch import dec_code, dected_code

    for factory in (dec_code, dected_code):
        code = factory()
        table = DecodeTable(code)
        assert code.correctable_bits() == 2
        assert not table.radius_one, code.name
        assert not table.supports_fast_path, code.name


def test_precompiled_dec_engine_uses_reference_path():
    from repro.ecc.bch import dec_code

    code = dec_code()
    engine = SwdEcc(code, tie_break=TieBreak.FIRST, rng=random.Random(0))
    # The code's table exists but must not arm the table path.
    assert not code.decode_table.supports_fast_path
    assert engine.decode_table is None


def test_dec_precompile_bit_identical_regression():
    """(44, 32) DEC: the default engine == the oracle, word for word.

    DEC corrects doubles in hardware, so its DUE class is triples; a
    2-bit-coset table serving those would shadow the wider enumeration.
    """
    from repro.ecc.bch import dec_code

    code = dec_code()
    fast, reference = _engines(code=code)
    rng = random.Random(2016)
    compared = 0
    while compared < 25:
        message = IMAGE.words[rng.randrange(len(IMAGE.words))]
        positions = rng.sample(range(code.n), 3)
        received = code.encode(message)
        for position in positions:
            received ^= 1 << (code.n - 1 - position)
        if code.decode(received).status is not DecodeStatus.DUE:
            continue  # some triples decode inside the t=2 sphere
        fast_result = fast.recover(received, CONTEXT)
        reference_result = reference.recover(received, CONTEXT)
        assert fast_result == reference_result
        assert hash(fast_result) == hash(reference_result)
        compared += 1


def test_daec_precompiled_identical_on_non_adjacent_doubles():
    from repro.ecc.daec import daec_code

    code = daec_code()
    fast, reference = _engines(code=code)
    assert fast.decode_table is code.decode_table
    rng = random.Random(7)
    for _ in range(25):
        message = IMAGE.words[rng.randrange(len(IMAGE.words))]
        i = rng.randrange(code.n)
        j = rng.randrange(code.n)
        while abs(i - j) <= 1:
            j = rng.randrange(code.n)
        received = code.encode(message)
        received ^= 1 << (code.n - 1 - i)
        received ^= 1 << (code.n - 1 - j)
        assert code.decode(received).status is DecodeStatus.DUE
        assert fast.recover(received, CONTEXT) == reference.recover(
            received, CONTEXT
        )
