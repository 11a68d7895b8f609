"""Per-word JSON: ``result_fragment`` is byte-identical to the reference.

The service writes each recovered word's JSON with
:func:`~repro.service.api.result_fragment`; the reference is
``json.dumps(result_payload(word, result), sort_keys=True)``.  The
suite compares the two on table-served and oracle results of every
catalog code, in the ``none`` context and a benchmark context, under
both tie-breaks, including filter fallbacks, ties and radius
escalations, and on rankers whose scores are ints or non-finite floats.
It also checks that a table result answers ``ranked_targets()``,
``num_candidates`` and ``num_valid`` without materializing its tuples.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core.rankers import CandidateRanker
from repro.core.swdecc import RecoveryResult, SwdEcc, TieBreak
from repro.errors import ReproError
from repro.service.api import result_fragment, result_payload
from repro.service.catalog import DEFAULT_CODE_ID, ServiceCatalog

CATALOG = ServiceCatalog()
CODE_IDS = tuple(CATALOG.code_ids())
#: Codes whose DUEs are 2-bit errors (table-served); the DEC/DECTED
#: codes' 3- and 4-bit DUEs run the oracle at ~50 ms a word.
TABLE_CODE_IDS = ("secded-39-32", "hsiao-39-32", "daec-41-32")
CONTEXT_IDS = ("none", "mcf")
LAZY_FIELDS = ("candidates", "candidate_messages", "valid_messages", "scores")

_ENGINES: dict[tuple, SwdEcc] = {}


def _engine(code_id: str, tie_break: TieBreak, cache: bool) -> SwdEcc:
    key = (code_id, tie_break, cache)
    engine = _ENGINES.get(key)
    if engine is None:
        engine = _ENGINES[key] = SwdEcc(
            CATALOG.code(code_id),
            tie_break=tie_break,
            rng=random.Random(0),
            cache=cache,
        )
    return engine


def _reference(received, result: RecoveryResult) -> str:
    return json.dumps(result_payload(received, result), sort_keys=True)


def _check(engine: SwdEcc, received: int, context_id: str):
    """Recover *received* and compare the fragment with the reference;
    returns the result (``None`` for a word that is not a DUE)."""
    try:
        result = engine.recover(received, CATALOG.context(context_id))
    except ReproError:
        return None
    assert result_fragment(received, result) == _reference(received, result)
    return result


def _received(code_id: str, message: int, positions: list[int]) -> int:
    error = 0
    for position in positions:
        error |= 1 << position
    return CATALOG.code(code_id).encode(message) ^ error


def _dues(code_id: str, extra_bits: int):
    """Messages and error positions: ``t + 1`` distinct bits (the
    code's DUE class), or ``t + 2`` with *extra_bits* (aliased and
    escalating errors)."""
    code = CATALOG.code(code_id)
    weight = code.correctable_bits() + 1
    return st.tuples(
        st.integers(min_value=0, max_value=(1 << code.k) - 1),
        st.lists(
            st.integers(min_value=0, max_value=code.n - 1),
            min_size=weight,
            max_size=weight + extra_bits,
            unique=True,
        ),
    )


@pytest.mark.parametrize("code_id", TABLE_CODE_IDS)
@pytest.mark.parametrize("context_id", CONTEXT_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fragment_matches_reference(code_id, context_id, data):
    message, positions = data.draw(_dues(code_id, extra_bits=1))
    tie_break = data.draw(st.sampled_from(TieBreak))
    cache = data.draw(st.booleans())
    received = _received(code_id, message, positions)
    _check(_engine(code_id, tie_break, cache), received, context_id)


@pytest.mark.parametrize(
    "code_id", sorted(set(CODE_IDS) - set(TABLE_CODE_IDS))
)
@pytest.mark.parametrize("context_id", CONTEXT_IDS)
# No shrink phase: at ~50 ms an oracle call, shrinking a failure would
# take minutes; the first failing example is reported as drawn.
@settings(
    max_examples=4,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(data=st.data())
def test_fragment_matches_reference_multi_bit_codes(code_id, context_id, data):
    message, positions = data.draw(_dues(code_id, extra_bits=0))
    tie_break = data.draw(st.sampled_from(TieBreak))
    cache = data.draw(st.booleans())
    received = _received(code_id, message, positions)
    _check(_engine(code_id, tie_break, cache), received, context_id)


def test_suite_reaches_fallbacks_ties_and_escalations():
    """The cases the property draws at random, pinned: a filter
    fallback, a tie and a 3-bit radius escalation, each on the table
    engine and the oracle."""
    code = CATALOG.code(DEFAULT_CODE_ID)
    oracle = _engine(DEFAULT_CODE_ID, TieBreak.FIRST, False)
    context = CATALOG.context("mcf")
    words = [code.encode(message << 26) ^ 0b11 for message in range(64)]
    fallback = next(
        word for word in words
        if oracle.recover(word, context).filter_fell_back
    )
    tie = next(
        word for word in words if oracle.recover(word, context).tied > 1
    )
    escalation = next(
        word
        for word in (code.encode(0x12345678) ^ 0b111 << at for at in range(36))
        if code.syndrome(word) not in code.syndrome_to_position
        and code.decode_table.entry(code.syndrome(word)) is None
    )
    for tie_break in TieBreak:
        for cache in (True, False):
            engine = _engine(DEFAULT_CODE_ID, tie_break, cache)
            assert _check(engine, fallback, "mcf").filter_fell_back
            assert _check(engine, tie, "mcf").tied > 1
            escalated = _check(engine, escalation, "mcf")
            assert type(escalated) is RecoveryResult  # the oracle served it
    table = _engine(DEFAULT_CODE_ID, TieBreak.FIRST, True)
    for word in (fallback, tie, escalation):
        assert result_fragment(
            word, table.recover(word, context)
        ) == result_fragment(word, oracle.recover(word, context))


class _ModuloRanker(CandidateRanker):
    """Int scores with plenty of ties (keeps the engine on the oracle)."""

    def score(self, message, context):
        return message % 3


class _UnboundedRanker(CandidateRanker):
    """Infinite, negative-infinite, signed-zero and finite scores."""

    def score(self, message, context):
        return (math.inf, -math.inf, -0.0, 0.0, 0.1)[message % 5]


@pytest.mark.parametrize("ranker", [_ModuloRanker(), _UnboundedRanker()])
@pytest.mark.parametrize("tie_break", list(TieBreak))
@settings(max_examples=25, deadline=None)
@given(dues=_dues(DEFAULT_CODE_ID, extra_bits=0))
def test_fragment_matches_reference_for_unusual_scores(
    ranker, tie_break, dues
):
    engine = SwdEcc(
        CATALOG.code(DEFAULT_CODE_ID),
        ranker=ranker,
        tie_break=tie_break,
        rng=random.Random(0),
    )
    assert engine.decode_table is None  # no spec scorer: oracle path
    _check(engine, _received(DEFAULT_CODE_ID, *dues), "mcf")


def test_fragment_writes_every_json_value_like_the_encoder():
    """Values a hand-built result may carry — NaN, infinities, signed
    zeros, a subnormal, bool and int scores, non-int received words —
    are written exactly as the encoder writes them."""
    result = RecoveryResult(
        received=5,
        candidates=tuple(range(9)),
        candidate_messages=tuple(range(9)),
        valid_messages=tuple(range(9)),
        filter_fell_back=True,
        scores=(
            math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, True, 2
        ),
        chosen_message=1,
        chosen_codeword=1,
        tied=1,
    )
    for received in (5, "0x5", None):
        assert result_fragment(received, result) == _reference(
            received, result
        )


@pytest.mark.parametrize("code_id", TABLE_CODE_IDS)
@pytest.mark.parametrize("context_id", CONTEXT_IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_result_answers_from_its_decision_row(
    code_id, context_id, data
):
    message, positions = data.draw(_dues(code_id, extra_bits=0))
    received = _received(code_id, message, positions)
    context = CATALOG.context(context_id)
    engine = _engine(code_id, TieBreak.FIRST, True)
    try:
        result = engine.recover(received, context)
    except ReproError:
        return
    assert type(result) is not RecoveryResult  # served from the table
    ranked = result.ranked_targets()
    num_candidates, num_valid = result.num_candidates, result.num_valid
    fragment = result_fragment(received, result)
    assert not set(LAZY_FIELDS) & set(vars(result))
    # Materialized, the fields give the same answers ...
    assert ranked == RecoveryResult.ranked_targets(result)
    assert num_candidates == len(result.candidates)
    assert num_valid == len(result.valid_messages)
    # ... and the served text is the oracle's, bit for bit.
    oracle = _engine(code_id, TieBreak.FIRST, False)
    assert fragment == result_fragment(
        received, oracle.recover(received, context)
    )
