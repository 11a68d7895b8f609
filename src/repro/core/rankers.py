"""Candidate rankers: soft side-information preferences.

After filtering, several candidates usually remain; a ranker scores
them so the engine can pick the most plausible one.  The paper's
exemplar is :class:`FrequencyRanker` — "choose a valid candidate whose
logical operation occurs most frequently in the application binary
image" — with random choice as the baseline.  The data-memory rankers
implement the Sec. III-B ideas: integral closeness to cache-line
neighbours and bitwise (majority-vote-like) similarity.

Scores are floats where higher is better; rankers must be
deterministic functions of (message, context) so experiments are
reproducible (randomness enters only through the engine's tie-breaker).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Sequence

from repro.bits import popcount
from repro.core.sideinfo import RecoveryContext
from repro.isa.decoder import try_decode

__all__ = [
    "CandidateRanker",
    "FrequencyRanker",
    "OracleFrequencyRanker",
    "BigramContextRanker",
    "PairFrequencyRanker",
    "UniformRanker",
    "MagnitudeSimilarityRanker",
    "BitwiseSimilarityRanker",
]


class CandidateRanker(ABC):
    """Interface: score a candidate message, higher = more plausible."""

    #: Human-readable name used in experiment reports.
    name: str = "ranker"

    @abstractmethod
    def score(self, message: int, context: RecoveryContext) -> float:
        """Return the plausibility score of *message*."""

    def score_many(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> list[float]:
        """Score several messages: ``[self.score(m, context) ...]``.

        Subclasses may override with a batched implementation; results
        must equal the per-message ones exactly.
        """
        return [self.score(message, context) for message in messages]

    def spec_scorer(self):
        """A ``(spec, context) -> float`` scorer, or ``None``.

        The decode-table path (see ``repro.core.swdecc``) decides
        scores per (syndrome, selector-field) class, which is only
        sound when the score is a pure function of the message's
        decoded :class:`~repro.isa.opcodes.InstructionSpec` (``None``
        for illegal words) and the context.  Rankers that read other
        message bits return ``None`` (the default) to keep the engine
        on the reference path; providers must return exactly what
        :meth:`score` would for any message decoding to that spec.
        """
        return None


class FrequencyRanker(CandidateRanker):
    """Score by the mnemonic's relative frequency in the program image.

    Messages that are not legal instructions score 0.0 (they only
    appear here when legality filtering was skipped or fell back).
    Without a frequency table in the context every legal message scores
    the same small positive value, degrading gracefully to
    filtering-only behaviour.
    """

    name = "mnemonic-frequency"

    def score(self, message: int, context: RecoveryContext) -> float:
        instruction = try_decode(message)
        if instruction is None:
            return 0.0
        if context.frequency_table is None:
            return 1.0
        return context.frequency_table.frequency(instruction.mnemonic)

    def spec_scorer(self):
        """Spec-keyed twin of :meth:`score`.

        ``Instruction.mnemonic`` is ``spec.mnemonic``, so the score is
        a pure function of the decoded spec.  Subclasses overriding
        ``score`` must opt in again explicitly — the exact type check
        keeps an inherited scorer from silently diverging from an
        overridden reference path.
        """
        if type(self) is not FrequencyRanker:
            return None
        return _frequency_spec_score


def _frequency_spec_score(spec, context: RecoveryContext) -> float:
    if spec is None:
        return 0.0
    if context.frequency_table is None:
        return 1.0
    return context.frequency_table.frequency(spec.mnemonic)


def _uniform_spec_score(spec, context: RecoveryContext) -> float:
    return 1.0


class OracleFrequencyRanker(CandidateRanker):
    """Frequency ranking for any ISA, via a supplied mnemonic oracle.

    The ISA-agnostic counterpart of :class:`FrequencyRanker`: scores
    ``context.frequency_table.frequency(mnemonic(message))`` using a
    caller-supplied ``mnemonic(word) -> str | None`` function (``None``
    for illegal words, which score 0.0).
    """

    def __init__(
        self, mnemonic_of_word, name: str = "oracle-frequency"
    ) -> None:
        self._mnemonic = mnemonic_of_word
        self.name = name

    def score(self, message: int, context: RecoveryContext) -> float:
        mnemonic = self._mnemonic(message)
        if mnemonic is None:
            return 0.0
        if context.frequency_table is None:
            return 1.0
        return context.frequency_table.frequency(mnemonic)


class BigramContextRanker(CandidateRanker):
    """Rank by fit with the *neighbouring* instructions, not just the
    global mix.

    The paper's conclusion notes "there is still room for improvement
    with a more sophisticated use of side information"; this is the
    natural next step after unigram frequency.  The score is

    ``P(candidate | preceding) * P(following | candidate)``

    using the smoothed conditionals of
    :class:`~repro.program.stats.BigramTable`.  Whichever neighbour is
    unknown contributes the unigram frequency instead, so the ranker
    degrades gracefully to :class:`FrequencyRanker` when no context is
    available.
    """

    name = "bigram-context"

    def __init__(self) -> None:
        # Degradation path when the context carries no bigram table.
        self._unigram_fallback = FrequencyRanker()

    def score(self, message: int, context: RecoveryContext) -> float:
        instruction = try_decode(message)
        if instruction is None:
            return 0.0
        table = context.bigram_table
        if table is None:
            return self._unigram_fallback.score(message, context)
        mnemonic = instruction.mnemonic
        if context.preceding_mnemonic is not None:
            forward = table.conditional(mnemonic, context.preceding_mnemonic)
        else:
            forward = table.unigram.frequency(mnemonic)
        if context.following_mnemonic is not None:
            backward = table.conditional(context.following_mnemonic, mnemonic)
        else:
            backward = 1.0
        return forward * backward


class PairFrequencyRanker(CandidateRanker):
    """Frequency ranking for 64-bit messages holding two instructions.

    Scores the product of the two halves' mnemonic frequencies
    (treating adjacent instructions as independent draws from the
    program's mix — the same first-order model the paper's single-word
    ranker uses).  Messages with an illegal half score 0.0.
    """

    name = "pair-mnemonic-frequency"

    def score(self, message: int, context: RecoveryContext) -> float:
        high = try_decode(message >> 32)
        low = try_decode(message & 0xFFFF_FFFF)
        if high is None or low is None:
            return 0.0
        if context.frequency_table is None:
            return 1.0
        return context.frequency_table.frequency(
            high.mnemonic
        ) * context.frequency_table.frequency(low.mnemonic)


class UniformRanker(CandidateRanker):
    """Every candidate scores alike: selection is pure tie-breaking.

    With the engine's random tie-breaker this is the paper's baseline
    of choosing a candidate uniformly at random.
    """

    name = "uniform"

    def score(self, message: int, context: RecoveryContext) -> float:
        return 1.0

    def spec_scorer(self):
        """Constant, so trivially spec-pure (exact type only, as with
        :meth:`FrequencyRanker.spec_scorer`)."""
        if type(self) is not UniformRanker:
            return None
        return _uniform_spec_score


class MagnitudeSimilarityRanker(CandidateRanker):
    """Score by integral closeness to the cache-line neighbourhood.

    Sec. III-B: "if the data types of words in the cache line are
    known, then the integral magnitude can be used as a distance
    metric."  The score is the negated distance to the nearest
    neighbour word, so identical values score 0 and distant values
    score very negatively.  Without a neighbourhood, all messages tie.
    """

    name = "magnitude-similarity"

    def score(self, message: int, context: RecoveryContext) -> float:
        if not context.neighborhood:
            return 0.0
        return -min(abs(message - neighbor) for neighbor in context.neighborhood)


class BitwiseSimilarityRanker(CandidateRanker):
    """Score by bitwise similarity to the cache-line neighbourhood.

    The data-type-agnostic variant of Sec. III-B ("a simple
    majority-vote procedure on groups of bits"): the score is the
    negated mean Hamming distance to the neighbourhood, which prefers
    the candidate that agrees with the per-bit majority of its
    neighbours.
    """

    name = "bitwise-similarity"

    def score(self, message: int, context: RecoveryContext) -> float:
        if not context.neighborhood:
            return 0.0
        total = sum(
            popcount(message ^ neighbor) for neighbor in context.neighborhood
        )
        return -total / len(context.neighborhood)
