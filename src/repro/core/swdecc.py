"""The SWD-ECC engine: enumerate -> filter -> rank -> choose.

This is the paper's primary contribution (Sec. III-B), assembled from
the substrates:

1. *Enumerate* the equidistant candidate codewords of the DUE with
   :class:`~repro.ecc.candidates.CandidateEnumerator`;
2. *Filter* the candidate messages with hard side information
   (:mod:`repro.core.filters`), falling back to the unfiltered list if
   the filter rejects everything;
3. *Rank* the survivors with soft side information
   (:mod:`repro.core.rankers`);
4. *Choose* the top-ranked candidate, breaking ties randomly (the
   paper's policy) or deterministically.

SWD-ECC costs nothing when no DUE occurs: this engine is only invoked
on a word the hardware decoder has already flagged.

The engine runs that one algorithm two ways.  By default it serves
every double-bit DUE from the code's
:class:`~repro.ecc.decode_table.DecodeTable`: the syndrome picks a
table entry, and one *decision* per ``(entry, selector base, context)``
class replaces the per-candidate filter and rank calls.  A decision
reads each candidate's filter verdict and ranker score from a
per-context *verdict table* keyed by the candidate's selector key
(:func:`~repro.isa.decoder.selector_key`; 6,298 keys in all): one dict
probe per candidate, filled on first sight of a key.  With
``cache=False`` it is the reference oracle: the pipeline above, word by
word, with no table and no memo.  The oracle also serves radius
escalation and every configuration the table path rejects.
"""

from __future__ import annotations

import enum
import logging
import random
import time
from bisect import bisect_left
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

from repro.core.cache import ContextCache, ContextTable, ContextTables
from repro.core.filters import CandidateFilter, FilterChain, InstructionLegalityFilter
from repro.core.rankers import CandidateRanker, FrequencyRanker
from repro.core.sideinfo import RecoveryContext
from repro.ecc.candidates import CandidateEnumerator
from repro.ecc.code import LinearBlockCode
from repro.ecc.decode_table import DecodeEntry, DecodeTable
from repro.errors import DecodingError, EncodingError, RecoveryError
from repro.isa.decoder import (
    ALL_SELECTOR_FIELDS,
    SELECTOR_FIELD_MASKS,
    selector_key,
    spec_for_selector_key,
)
from repro.obs import events as obs_events
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span

_log = obs_logging.get_logger("swdecc")

__all__ = ["TieBreak", "RecoveryResult", "SwdEcc", "success_probability"]

#: The side-info context of calls that pass none: one shared, empty
#: context, so context-less calls share its verdict table and decision
#: rows instead of starting a new generation of each per call.
_DEFAULT_CONTEXT = RecoveryContext()


class TieBreak(enum.Enum):
    """How the engine resolves equal top scores."""

    RANDOM = "random"
    """Choose uniformly among the tied candidates (the paper's policy;
    explains the ~15% plateau for low-order-bit errors in Fig. 8)."""

    FIRST = "first"
    """Choose the numerically smallest tied candidate (deterministic)."""


@dataclass(frozen=True)
class RecoveryResult:
    """Full trace of one heuristic recovery attempt.

    Attributes
    ----------
    received:
        The DUE word as read from memory.
    candidates:
        All equidistant candidate codewords.
    candidate_messages:
        Their decoded k-bit messages (same order).
    valid_messages:
        The messages surviving the filter stage.
    filter_fell_back:
        True when filtering rejected everything and the engine reverted
        to the unfiltered candidates.
    scores:
        Ranker score per surviving message (same order as
        ``valid_messages``).
    chosen_message:
        The recovery target message.
    chosen_codeword:
        Its codeword.
    tied:
        Number of candidates sharing the winning score (1 = the ranker
        was decisive).
    """

    received: int
    candidates: tuple[int, ...]
    candidate_messages: tuple[int, ...]
    valid_messages: tuple[int, ...]
    filter_fell_back: bool
    scores: tuple[float, ...]
    chosen_message: int
    chosen_codeword: int
    tied: int

    @property
    def num_candidates(self) -> int:
        """Size of the unfiltered candidate list (Fig. 5a)."""
        return len(self.candidates)

    @property
    def num_valid(self) -> int:
        """Size of the filtered list (Fig. 5b)."""
        return len(self.valid_messages)

    def ranked_targets(self) -> list[tuple[int, float]]:
        """``(message, score)`` per surviving message, best first.

        Score descending, then message ascending — the deterministic
        tie order the FIRST tie-break picks from.
        """
        return sorted(zip(self.valid_messages, self.scores), key=_target_order)

    def recovered(self, original_message: int) -> bool:
        """Did the attempt pick the true original message?"""
        return self.chosen_message == original_message


def _target_order(pair: tuple[int, float]) -> tuple[float, int]:
    """Sort key of :meth:`RecoveryResult.ranked_targets`."""
    return -pair[1], pair[0]


#: The score of a ``(message, score)`` pair (a C-level sort key).
_score_of = itemgetter(1)


#: RecoveryResult fields, in declaration order (for the lazy variant's
#: equality/pickle downcast).
_RESULT_FIELDS = (
    "received",
    "candidates",
    "candidate_messages",
    "valid_messages",
    "filter_fell_back",
    "scores",
    "chosen_message",
    "chosen_codeword",
    "tied",
)


class _TableResult(RecoveryResult):
    """A :class:`RecoveryResult` whose tuple fields materialize lazily.

    The table path decides the recovery from per-syndrome offsets
    without ever building the candidate/score tuples; most callers
    (the service, for one) only read ``chosen_message`` and
    ``chosen_codeword``, so the tuples are reconstructed on first
    access instead of per call.  Every field, once read, is
    bit-identical to the reference path's, and equality/hash/pickle
    interoperate with plain results.  :meth:`ranked_targets`,
    ``num_candidates`` and ``num_valid`` are answered from the decision
    row and the table entry without materializing any tuple.  Built by
    :meth:`SwdEcc._recover_from_table`, which fills the instance dict
    directly.
    """

    @property
    def num_candidates(self) -> int:
        return len(self._entry.offsets)

    @property
    def num_valid(self) -> int:
        # The row's pool is the filter's survivors, or every candidate
        # when the filter fell back: exactly ``valid_messages``.
        return len(self._row[0])

    def ranked_targets(self) -> list[tuple[int, float]]:
        received_message = self._received_message
        row = self._row
        targets = [
            (received_message ^ offset, score)
            for offset, score in zip(row[0], row[1])
        ]
        # Messages are distinct, so this orders them ascending; the
        # stable second sort then puts scores descending, equal scores
        # keeping that order.  No Python key function runs.
        targets.sort()
        targets.sort(key=_score_of, reverse=True)
        return targets

    def __getattr__(self, name: str):
        if name == "candidates":
            received = self.received
            value = tuple(
                sorted(received ^ mask for mask in self._entry.masks)
            )
        elif name == "candidate_messages":
            shift = self._shift
            value = tuple(codeword >> shift for codeword in self.candidates)
        elif name == "valid_messages":
            if self.filter_fell_back:
                value = self.candidate_messages
            else:
                pool = set(self._row[0])
                received_message = self._received_message
                value = tuple(
                    message
                    for message in self.candidate_messages
                    if message ^ received_message in pool
                )
        elif name == "scores":
            pool, scores = self._row[0], self._row[1]
            score_by_offset = dict(zip(pool, scores))
            received_message = self._received_message
            value = tuple(
                score_by_offset[message ^ received_message]
                for message in self.valid_messages
            )
        else:
            raise AttributeError(name)
        self.__dict__[name] = value
        return value

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in _RESULT_FIELDS)

    def __eq__(self, other: object):
        # The generated dataclass __eq__ requires identical classes;
        # interoperate with plain RecoveryResult in both directions
        # (reference __eq__ returns NotImplemented, Python reflects).
        if isinstance(other, RecoveryResult):
            return self._field_values() == tuple(
                getattr(other, name) for name in _RESULT_FIELDS
            )
        return NotImplemented

    def __hash__(self) -> int:
        # Matches the generated frozen-dataclass hash (field tuple).
        return hash(self._field_values())

    def __reduce__(self):
        # Pickle (and copy) as a fully materialized plain result: the
        # row holds table internals that must not cross process
        # boundaries, and receivers need no lazy machinery.
        return (RecoveryResult, self._field_values())


#: A filtered candidate's value in a sweep row: below every score, so
#: ``max`` picks a kept candidate whenever there is one.
_FILTERED = float("-inf")


def _sweep_rows(
    messages: Sequence[int], deltas: tuple[int, ...], verdicts: ContextTable
) -> list[list]:
    """The rows of :meth:`SwdEcc.sweep_patterns`: per message, the
    verdict of ``message ^ delta`` for each delta, filtered candidates
    at :data:`_FILTERED`.  A row holding a score ``max`` cannot order
    against :data:`_FILTERED` (NaN, or ``-inf`` itself) reads as all
    filtered instead, so each of its words is decided by
    :meth:`SwdEcc._decide` like a filter fallback."""
    masks = SELECTOR_FIELD_MASKS
    rows = [
        [
            verdicts[(candidate := message ^ delta) & masks[candidate >> 26]]
            for delta in deltas
        ]
        for message in messages
    ]
    # The verdict table now holds every score the rows hold.
    unorderable = {
        score
        for score in set(verdicts.values())
        if score is not None and not score > _FILTERED
    }
    # Through dict.get with the verdict as its default, None (filtered)
    # becomes _FILTERED and a score stays itself.
    row_value = {None: _FILTERED}.get
    for index, row in enumerate(rows):
        if unorderable and not unorderable.isdisjoint(row):
            rows[index] = [_FILTERED] * len(deltas)
        else:
            row[:] = map(row_value, row, row)
    return rows


def _verdict_fill(predicate, scorer):
    """The filler of an engine's verdict tables: a selector key's
    ranker score when the filter keeps its spec, else ``None``."""

    def fill(key: int, context: RecoveryContext) -> float | None:
        spec = spec_for_selector_key(key)
        return scorer(spec, context) if predicate(spec) else None

    return fill


class SwdEcc:
    """Software-Defined ECC heuristic recovery engine.

    Parameters
    ----------
    code:
        The ECC code protecting the memory.
    filters:
        Hard-constraint filters; defaults to instruction legality (the
        paper's exemplar).  Pass an empty sequence for no filtering.
    ranker:
        Soft-preference ranker; defaults to mnemonic frequency.
    tie_break:
        Tie resolution policy (random by default, as in the paper).
    rng:
        RNG for random tie-breaking; supply a seeded instance for
        reproducible sweeps.
    cache:
        Serve double-bit DUEs from the code's decode table whenever
        its guards and the filter/ranker spec hooks allow (default).
        ``False`` selects the reference oracle: every word runs the
        enumerate → filter → rank → choose pipeline with no table and
        no memo.  Both give bit-identical results.
    """

    def __init__(
        self,
        code: LinearBlockCode,
        filters: Sequence[CandidateFilter] | None = None,
        ranker: CandidateRanker | None = None,
        tie_break: TieBreak = TieBreak.RANDOM,
        rng: random.Random | None = None,
        cache: bool = True,
    ) -> None:
        self._code = code
        self._enumerator = CandidateEnumerator(code)
        if filters is None:
            filters = (InstructionLegalityFilter(),)
        self._filter = FilterChain(filters)
        self._ranker = ranker if ranker is not None else FrequencyRanker()
        self._tie_break = tie_break
        self._rng = rng if rng is not None else random.Random()
        # Metric objects are cached here so the per-recover() cost is a
        # couple of attribute reads and integer adds (counters are
        # default-on; see repro.obs).
        registry = obs_metrics.get_registry()
        self._event_log = obs_events.get_event_log()
        self._m_recoveries = registry.counter("swdecc.recoveries")
        self._m_ranker_evals = registry.counter(
            "ops.ranker_evals",
            help="Candidate messages scored by the ranker",
        )
        # The table path enumerates by per-message XORs without going
        # through the enumerator, so it charges the same op classes
        # itself (keeps its energy comparable to the reference path).
        self._m_ops_enum = registry.counter(
            "ops.candidate_enumerations",
            help="Candidate-codeword enumerations for DUEs",
        )
        self._m_ops_xor = registry.counter(
            "ops.xor", help="Modeled GF(2) XOR word operations"
        )
        self._m_ops_syndromes = registry.counter(
            "ops.syndrome_computes", help="Syndrome computations (H @ r)"
        )
        self._m_ops_filter = registry.counter(
            "ops.filter_evals",
            help="Candidate messages evaluated by the filter chain",
        )
        self._m_fallbacks = registry.counter("swdecc.filter_fallbacks")
        self._m_escalations = registry.counter("swdecc.radius_escalations")
        self._m_ties = registry.counter("swdecc.tie_breaks")
        self._h_candidates = registry.histogram(
            "swdecc.candidates", buckets=obs_metrics.DEFAULT_COUNT_BUCKETS
        )
        self._h_valid = registry.histogram(
            "swdecc.valid_messages", buckets=obs_metrics.DEFAULT_COUNT_BUCKETS
        )
        # Table path: the code's shared decode table, armed only when
        # the filter chain and ranker certify spec-local semantics (k <=
        # 32 MIPS words) and the table's structural guards hold.
        self._table: DecodeTable | None = None
        if cache and code.k <= 32:
            predicate = self._filter.spec_predicate()
            scorer = self._ranker.spec_scorer()
            if (
                predicate is not None
                and scorer is not None
                and code.decode_table.supports_fast_path
            ):
                self._table = code.decode_table
                self._scorer = scorer
                # Hot-loop snapshots: the table path inlines the chunked
                # syndrome XOR and the entry probe.
                self._chunks = self._table.chunks
                self._entry_get = self._table.entries.get
                self._ce_syndromes = code.syndrome_to_position
                # selector key -> score if the filter keeps the key's
                # spec, else None; one table per context.
                self._verdicts = ContextTables(_verdict_fill(predicate, scorer))
        # (syndrome, selector base) -> decision row, per context.
        self._row_cache = ContextCache()
        self._n = code.n
        self._message_shift = code.n - code.k

    @property
    def code(self) -> LinearBlockCode:
        """The underlying ECC code."""
        return self._code

    @property
    def decode_table(self) -> DecodeTable | None:
        """The code's decode table when this engine serves from it,
        else ``None`` (the reference oracle)."""
        return self._table

    @property
    def filter_chain(self) -> FilterChain:
        """The configured filter chain."""
        return self._filter

    @property
    def ranker(self) -> CandidateRanker:
        """The configured ranker."""
        return self._ranker

    def _candidates_with_escalation(self, received: int) -> tuple[int, ...]:
        """Distance-2 candidates, escalating one radius if none exist.

        The fast enumeration assumes the DUE came from a double-bit
        flip; an accumulated triple-bit error may sit at distance >= 3
        from every codeword, in which case we escalate to radius
        ``t + 2`` list decoding before giving up.
        """
        candidates = self._enumerator.candidates(received)
        if candidates:
            return candidates
        self._m_escalations.inc()
        radius = self._code.correctable_bits() + 2
        obs_logging.emit(
            _log, logging.DEBUG, "radius escalation",
            received=f"0x{received:x}", radius=radius,
        )
        candidates = self._enumerator.candidates_within_radius(received, radius)
        if not candidates:
            raise RecoveryError(
                f"word 0x{received:x} has no candidate codewords within "
                f"radius {radius}"
            )
        return candidates

    def recover(
        self, received: int, context: RecoveryContext | None = None
    ) -> RecoveryResult:
        """Heuristically recover from the DUE word *received*.

        Assumes a double-bit error first (the paper's model); if no
        codeword lies at distance 2 — an accumulated higher-weight
        error — the enumeration escalates one radius before giving up
        with :class:`~repro.errors.RecoveryError`.  Propagates
        :class:`~repro.errors.DecodingError` when *received* is not a
        DUE in the first place.

        The table path serves clean 2-bit cosets straight from the
        decode table — bit-identical results, including tie-break RNG
        consumption, at a fraction of the cost — and this reference
        pipeline serves everything else.
        """
        if context is None:
            context = _DEFAULT_CONTEXT
        if self._table is not None:
            result = self._recover_from_table(received, context)
            if result is not None:
                return result
        start_ns = time.perf_counter_ns()
        with span("swdecc.recover"):
            with span("swdecc.enumerate"):
                candidates = self._candidates_with_escalation(received)
                candidate_messages = tuple(
                    self._code.extract_message(codeword)
                    for codeword in candidates
                )
            with span("swdecc.filter"):
                valid_messages = self._filter.apply(candidate_messages, context)
            fell_back = not valid_messages
            if fell_back:
                # The side information's premise failed (e.g. the original
                # word was not a legal instruction): recover from the raw
                # candidate list rather than giving up.
                valid_messages = candidate_messages
            with span("swdecc.rank"):
                scores = tuple(
                    self._ranker.score(message, context)
                    for message in valid_messages
                )
            with span("swdecc.choose"):
                best_score = max(scores)
                tied_messages = [
                    message
                    for message, score in zip(valid_messages, scores)
                    if score == best_score
                ]
                if len(tied_messages) == 1 or self._tie_break is TieBreak.FIRST:
                    chosen_message = min(tied_messages)
                else:
                    chosen_message = self._rng.choice(tied_messages)
                chosen_codeword = candidates[
                    candidate_messages.index(chosen_message)
                ]
        latency_ns = time.perf_counter_ns() - start_ns
        num_valid = 0 if fell_back else len(valid_messages)
        self._m_recoveries.inc()
        self._m_ranker_evals.inc(len(scores))
        if fell_back:
            self._m_fallbacks.inc()
            obs_logging.emit(
                _log, logging.DEBUG, "filter fell back",
                received=f"0x{received:x}",
                candidates=len(candidates),
                latency_ns=latency_ns,
            )
        if len(tied_messages) > 1:
            self._m_ties.inc()
        self._h_candidates.observe(len(candidates))
        self._h_valid.observe(num_valid)
        self._event_log.record(
            obs_events.DueEvent(
                received=received,
                num_candidates=len(candidates),
                num_valid=num_valid,
                filter_fell_back=fell_back,
                chosen_message=chosen_message,
                chosen_codeword=chosen_codeword,
                tied=len(tied_messages),
                latency_ns=latency_ns,
            )
        )
        return RecoveryResult(
            received=received,
            candidates=candidates,
            candidate_messages=candidate_messages,
            valid_messages=tuple(valid_messages),
            filter_fell_back=fell_back,
            scores=scores,
            chosen_message=chosen_message,
            chosen_codeword=chosen_codeword,
            tied=len(tied_messages),
        )

    def _recover_from_table(
        self, received: int, context: RecoveryContext
    ) -> RecoveryResult | None:
        """Serve one recovery from the decode table, or ``None``.

        Returns ``None`` when *received* is not a clean 2-bit coset
        (no table entry), handing the radius-escalation case to the
        reference path untouched.  Raises the same
        :class:`~repro.errors.DecodingError` family, with the same
        messages, as the reference ``_check_due`` for non-DUE inputs.

        Op accounting charges what the lookup actually performs — one
        syndrome compute, one enumeration, a handful of XORs, plus
        filter/ranker evaluations only when a decision row is built
        (however many verdict-table misses that build fills).
        """
        start_ns = time.perf_counter_ns()
        # Inlined DecodeTable.syndrome_of: same range check (negative
        # words shift to -1, which is truthy), same message, then the
        # chunked XOR probes, without per-call method dispatch.
        if received >> self._n:
            raise DecodingError(
                f"received word 0x{received:x} does not fit in "
                f"{self._n} bits"
            )
        chunks = self._chunks
        if len(chunks) == 3:
            # Unrolled for the 3-probe shape every n <= 39 code takes.
            (low0, mask0, chunk0), (low1, mask1, chunk1), (low2, mask2, chunk2) = chunks
            syndrome = (
                chunk0[(received >> low0) & mask0]
                ^ chunk1[(received >> low1) & mask1]
                ^ chunk2[(received >> low2) & mask2]
            )
        else:
            syndrome = 0
            for low, mask, chunk in chunks:
                syndrome ^= chunk[(received >> low) & mask]
        self._m_ops_syndromes._value += 1
        if syndrome == 0:
            raise DecodingError(
                "received word is a codeword, not a DUE; nothing to enumerate"
            )
        if syndrome in self._ce_syndromes:
            raise DecodingError(
                "received word is a correctable 1-bit error, not a DUE"
            )
        entry = self._entry_get(syndrome)
        if entry is None:
            return None
        received_message = received >> self._message_shift
        base = received_message & ALL_SELECTOR_FIELDS
        rows = self._row_cache.values_for(context)
        row_key = (syndrome << 32) | base
        row = rows.get(row_key)
        if row is None:
            # (pool, scores, tied, fell_back, num_valid, bucket indices)
            row = self._decide(
                entry.offsets, base, self._verdicts.table_for(context)
            )
            if self._filter.filters:
                self._m_ops_filter.inc(len(entry.offsets))
            self._m_ranker_evals.inc(len(row[0]))
            num_valid = 0 if row[3] else len(row[0])
            # Histogram observations on this path are row constants, so
            # their bucket indices are resolved here, once per row.
            row += (
                num_valid,
                bisect_left(self._h_candidates.buckets, len(entry.offsets)),
                bisect_left(self._h_valid.buckets, num_valid),
            )
            rows[row_key] = row
        tied_offsets = row[2]
        fell_back = row[3]
        tied = len(tied_offsets)
        if tied == 1:
            chosen_message = received_message ^ tied_offsets[0]
        elif self._tie_break is TieBreak.FIRST:
            chosen_message = min(
                [received_message ^ offset for offset in tied_offsets]
            )
        else:
            # Candidate messages are strictly increasing in candidate
            # order (distinct offsets, systematic extraction), so the
            # reference tie list is exactly this sorted list — one
            # rng.choice on an equal-length sequence consumes identical
            # RNG state and picks the identical element.
            chosen_message = self._rng.choice(
                sorted(received_message ^ offset for offset in tied_offsets)
            )
        chosen_codeword = received ^ entry.mask_by_offset[
            chosen_message ^ received_message
        ]
        latency_ns = time.perf_counter_ns() - start_ns
        num_candidates = len(entry.offsets)
        num_valid = row[4]
        # Counter.inc minus its non-negativity guard (these amounts are
        # constants >= 0), and Histogram.observe with the row's
        # precomputed bucket indices: the per-call bookkeeping storm is
        # a measurable slice of a ~5 us fast path.
        self._m_ops_enum._value += 1
        self._m_ops_xor._value += tied + 1
        self._m_recoveries._value += 1
        if fell_back:
            self._m_fallbacks.inc()
            obs_logging.emit(
                _log, logging.DEBUG, "filter fell back",
                received=f"0x{received:x}",
                candidates=num_candidates,
                latency_ns=latency_ns,
            )
        if tied > 1:
            self._m_ties._value += 1
        histogram = self._h_candidates
        histogram._bucket_counts[row[5]] += 1
        histogram._count += 1
        histogram._sum += num_candidates
        if histogram._min is None or num_candidates < histogram._min:
            histogram._min = num_candidates
        if histogram._max is None or num_candidates > histogram._max:
            histogram._max = num_candidates
        histogram = self._h_valid
        histogram._bucket_counts[row[6]] += 1
        histogram._count += 1
        histogram._sum += num_valid
        if histogram._min is None or num_valid < histogram._min:
            histogram._min = num_valid
        if histogram._max is None or num_valid > histogram._max:
            histogram._max = num_valid
        # tuple.__new__ skips the namedtuple keyword/default wrapper;
        # the trailing None/None are DueEvent's address/true_message
        # defaults.
        self._event_log.record(
            tuple.__new__(
                obs_events.DueEvent,
                (
                    received, num_candidates, num_valid, fell_back,
                    chosen_message, chosen_codeword, tied, latency_ns,
                    None, None,
                ),
            )
        )
        # Filling the instance dict in place bypasses the frozen
        # dataclass's Python-level __setattr__, a measurable slice of
        # this path (the frozen contract still holds for callers).
        result = object.__new__(_TableResult)
        result.__dict__.update({
            "received": received,
            "filter_fell_back": fell_back,
            "chosen_message": chosen_message,
            "chosen_codeword": chosen_codeword,
            "tied": tied,
            "_received_message": received_message,
            "_shift": self._message_shift,
            "_entry": entry,
            "_row": row,
        })
        return result

    def _decide(
        self, offsets: tuple[int, ...], base: int, verdicts: ContextTable
    ) -> tuple:
        """Filter → fallback → rank → ties for one decode-table class.

        The one decision of the table path: :meth:`recover` runs it
        once per new decision row, and :meth:`sweep_patterns` for each
        word its gather cannot decide.  A candidate's message is
        ``base ^ offset`` (*base* is the received message, or just its
        selector-field bits), and its filter verdict and ranker score
        are pure functions of its selector key and the context — so
        each is one probe of the context's *verdicts* table (the score
        when the filter keeps the key's spec, else ``None``), and every
        word of one ``(entry, selector base, context)`` class shares
        this decision.  When the filter rejects every candidate, all of
        them are scored through the ranker's spec hook instead.

        Pure: charges nothing.  Callers charge, per decided word, the
        filter evaluations (every candidate, when the chain has
        filters) and ranker evaluations (the pool) the reference
        pipeline would — never per verdict-table miss.

        Returns ``(pool, scores, tied, fell_back)``: the offsets the
        ranker scored (the filter's survivors, or every candidate when
        the filter fell back), their scores, the top-scored offsets,
        and whether the filter fell back.
        """
        masks = SELECTOR_FIELD_MASKS
        pool = []
        scores = []
        for offset in offsets:
            message = base ^ offset
            score = verdicts[message & masks[message >> 26]]
            if score is not None:
                pool.append(offset)
                scores.append(score)
        fell_back = not pool
        if fell_back:
            scorer = self._scorer
            context = verdicts.context
            pool = offsets
            scores = [
                scorer(spec_for_selector_key(selector_key(base ^ offset)), context)
                for offset in offsets
            ]
        best_score = max(scores)
        if scores.count(best_score) == 1:
            # A sole winner (about half of Fig. 8's decisions).
            tied = (pool[scores.index(best_score)],)
        else:
            tied = tuple([
                offset
                for offset, score in zip(pool, scores)
                if score == best_score
            ])
        return tuple(pool), tuple(scores), tied, fell_back

    def recover_batch(
        self,
        received_words: Sequence[int],
        context: RecoveryContext | None = None,
    ) -> list[RecoveryResult]:
        """Recover a batch of DUE words sharing one side-info context.

        The context is resolved once; results match word-by-word
        :meth:`recover` calls exactly.
        """
        if context is None:
            context = _DEFAULT_CONTEXT
        with span("swdecc.recover_batch"):
            return [self.recover(received, context) for received in received_words]

    def sweep_probabilities(
        self,
        messages: Sequence[int],
        error: int,
        context: RecoveryContext | None = None,
    ) -> list[tuple[float, int, int]]:
        """Exact per-message recovery stats for one error pattern: the
        one-pattern case of :meth:`sweep_patterns`."""
        return next(self.sweep_patterns(messages, (error,), context))

    def sweep_patterns(
        self,
        messages: Sequence[int],
        errors: Iterable[int],
        context: RecoveryContext | None = None,
    ) -> Iterator[list[tuple[float, int, int]]]:
        """Exact per-message recovery stats, one list per error pattern.

        The kernel behind :class:`~repro.analysis.sweep.DueSweep`.
        Yields, for each error in order, ``(success_probability,
        num_candidates, num_valid)`` per message — ``num_valid`` is 0
        when the filter fell back — bit-identical to recovering
        ``encode(m) ^ error`` with :meth:`recover` and scoring the
        trace with :func:`success_probability` under this engine's
        tie-break.

        On the table path every candidate is the original message
        ``m`` XOR a *delta* ``(error >> r) ^ offset``, one per offset
        of the pattern's table entry; the original is the candidate at
        delta 0.  The call builds one row per message, the verdict of
        ``m ^ delta`` for each distinct delta of its patterns (``-inf``
        when filtered), and decides each (pattern, message) in C:
        ``itemgetter`` gathers the candidates' values in offset order,
        and ``max`` and ``count`` give the best and the tie size.
        :meth:`_decide` decides the words the gather cannot: filter
        fallbacks, FIRST ties, and rows holding a NaN or ``-inf``
        score.  Rows live for one call (``docs/performance.md``).

        Counters and histograms advance as :meth:`recover` would
        advance them, committed once per pattern; per-DUE *events* are
        not recorded (an exhaustive sweep would only churn the bounded
        ring).  The oracle, and patterns without a table entry, run
        :meth:`recover` word by word.  A pattern's stats, counters and
        errors are those of a :meth:`sweep_probabilities` call for it:
        the first table-served pattern raises
        :class:`~repro.errors.EncodingError`, as ``code.encode`` would,
        for the first message that does not fit in k bits.
        """
        if context is None:
            context = _DEFAULT_CONTEXT
        errors = tuple(errors)
        entries = [self._sweep_entry(error) for error in errors]
        shift = self._message_shift
        # delta -> row column, numbered over every table-served pattern.
        columns: dict[int, int] = {}
        for error, entry in zip(errors, entries):
            if entry is not None:
                error_offset = error >> shift
                for offset in entry.offsets:
                    columns.setdefault(error_offset ^ offset, len(columns))
        rows = None
        tie_first = self._tie_break is TieBreak.FIRST
        words = len(messages)
        for error, entry in zip(errors, entries):
            if entry is None:
                yield self._sweep_by_recover(messages, error, context)
                continue
            if rows is None:
                # The rows index the 64 selector masks by a message's
                # top six bits, so a message wider than k bits must not
                # reach them.
                k = self._code.k
                bad = next((m for m in messages if m < 0 or m >> k), None)
                if bad is not None:
                    raise EncodingError(
                        f"message 0x{bad:x} does not fit in {k} bits"
                    )
                verdicts = self._verdicts.table_for(context)
                rows = _sweep_rows(messages, tuple(columns), verdicts)
            error_offset = error >> shift
            offsets = entry.offsets
            num_candidates = len(offsets)
            pattern_columns = [
                columns[error_offset ^ offset] for offset in offsets
            ]
            if num_candidates > 1:
                gather = itemgetter(*pattern_columns)
            else:
                # itemgetter of one index returns the bare item, not a
                # sequence; a one-item slice keeps max and count working.
                (column,) = pattern_columns
                gather = itemgetter(slice(column, column + 1))
            # The original's column, unless it is no candidate (a
            # wider error that shares a 2-bit syndrome).
            original = (
                columns[0] if error_offset in entry.mask_by_offset else None
            )
            stats = []
            valid_counts = {}
            ranker_evals = 0
            fallbacks = 0
            tie_count = 0
            for message, row in zip(messages, rows):
                values = gather(row)
                best = max(values)
                tied = values.count(best)
                if best == _FILTERED or (tie_first and tied > 1):
                    probability, pool_size, tied, fell_back = self._decide_word(
                        message, error_offset, offsets, verdicts
                    )
                else:
                    fell_back = False
                    pool_size = num_candidates - values.count(_FILTERED)
                    probability = (
                        1.0 / tied
                        if original is not None and row[original] == best
                        else 0.0
                    )
                ranker_evals += pool_size
                if fell_back:
                    num_valid = 0
                    fallbacks += 1
                else:
                    num_valid = pool_size
                if tied > 1:
                    tie_count += 1
                valid_counts[num_valid] = valid_counts.get(num_valid, 0) + 1
                stats.append((probability, num_candidates, num_valid))
            self._h_candidates.observe_counts({num_candidates: words})
            self._h_valid.observe_counts(valid_counts)
            if self._filter.filters:
                self._m_ops_filter.inc(words * num_candidates)
            self._m_ranker_evals.inc(ranker_evals)
            self._m_recoveries.inc(words)
            self._m_ops_enum.inc(words)
            self._m_ops_xor.inc(words * num_candidates)
            if fallbacks:
                self._m_fallbacks.inc(fallbacks)
                obs_logging.emit(
                    _log, logging.DEBUG, "filter fell back (table sweep)",
                    error=f"0x{error:x}", count=fallbacks, messages=words,
                )
            if tie_count:
                self._m_ties.inc(tie_count)
            yield stats

    def _decide_word(
        self,
        message: int,
        error_offset: int,
        offsets: tuple[int, ...],
        verdicts: ContextTable,
    ) -> tuple[float, int, int, bool]:
        """One sweep word decided by :meth:`_decide`: the success
        probability of *message* under the error with message bits
        *error_offset*, the pool and tie sizes, and whether the filter
        fell back."""
        received_message = message ^ error_offset
        pool, _, tied, fell_back = self._decide(
            offsets, received_message, verdicts
        )
        if error_offset not in tied:
            probability = 0.0
        elif self._tie_break is TieBreak.FIRST:
            probability = (
                1.0
                if message == min([received_message ^ t for t in tied])
                else 0.0
            )
        else:
            probability = 1.0 / len(tied)
        return probability, len(pool), len(tied), fell_back

    def _sweep_entry(self, error: int) -> DecodeEntry | None:
        """The table entry serving the sweep of *error*, or ``None``
        (the oracle, or a pattern without one).  Set-up shared by every
        word of the pattern (no word's own syndrome is computed), so
        like the table build it charges no op."""
        table = self._table
        if table is None or not 0 <= error < 1 << self._n:
            return None
        syndrome = table.syndrome_of(error)
        if not syndrome or syndrome in self._ce_syndromes:
            return None
        return self._entry_get(syndrome)

    def _sweep_by_recover(
        self,
        messages: Sequence[int],
        error: int,
        context: RecoveryContext,
    ) -> list[tuple[float, int, int]]:
        """Word-by-word :meth:`sweep_probabilities`: one :meth:`recover`
        per message, so the oracle and the patterns the table does not
        cover escalate or raise exactly as :meth:`recover` would."""
        code = self._code
        stats = []
        for message in messages:
            result = self.recover(code.encode(message) ^ error, context)
            stats.append((
                success_probability(result, message, self._tie_break),
                result.num_candidates,
                0 if result.filter_fell_back else result.num_valid,
            ))
        return stats

    def recovery_probability(
        self, received: int, original_message: int, context: RecoveryContext | None = None
    ) -> float:
        """Exact probability that :meth:`recover` returns the original.

        Computes the analytical success probability of the configured
        strategy — 1/|tied| when the original is among the top-scored
        candidates, else 0 — removing tie-break sampling noise from
        sweeps.  This is how the per-pattern success *rates* of Figs. 6
        and 8 are evaluated.
        """
        if context is None:
            context = _DEFAULT_CONTEXT
        candidates = self._candidates_with_escalation(received)
        candidate_messages = tuple(
            self._code.extract_message(codeword) for codeword in candidates
        )
        valid_messages = self._filter.apply(candidate_messages, context)
        if not valid_messages:
            valid_messages = candidate_messages
        if original_message not in valid_messages:
            return 0.0
        scores = [self._ranker.score(m, context) for m in valid_messages]
        self._m_ranker_evals.inc(len(scores))
        best_score = max(scores)
        tied = [
            message
            for message, score in zip(valid_messages, scores)
            if score == best_score
        ]
        if original_message not in tied:
            return 0.0
        if self._tie_break is TieBreak.FIRST:
            return 1.0 if original_message == min(tied) else 0.0
        return 1.0 / len(tied)


def success_probability(
    result: RecoveryResult,
    original_message: int,
    tie_break: TieBreak = TieBreak.RANDOM,
) -> float:
    """Exact success probability of an already-computed recovery trace.

    Equivalent to :meth:`SwdEcc.recovery_probability` but reusing the
    enumeration/filter/rank work captured in *result* — the sweep
    harness calls :meth:`SwdEcc.recover` once per DUE and derives the
    probability from the trace.
    """
    if original_message not in result.valid_messages:
        return 0.0
    best_score = max(result.scores)
    tied = [
        message
        for message, score in zip(result.valid_messages, result.scores)
        if score == best_score
    ]
    if original_message not in tied:
        return 0.0
    if tie_break is TieBreak.FIRST:
        return 1.0 if original_message == min(tied) else 0.0
    return 1.0 / len(tied)
