"""Candidate filters: hard side-information constraints.

A filter removes candidate messages that the side information proves
impossible.  The exemplar is :class:`InstructionLegalityFilter` — the
paper's "filter out the candidates that are not legal MIPS
instructions" — and the data-memory filters implement the Sec. III-B
suggestions (low-magnitude integers, pointers within the address
space).

Filters must be *sound with respect to their premise*: if the premise
holds (the word really was a legal instruction / small integer /
pointer), the true message always survives.  The engine in
:mod:`repro.core.swdecc` handles the premise-violated case by falling
back to the unfiltered candidate list when a filter empties it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence

from repro.isa.decoder import is_legal
from repro.core.sideinfo import RecoveryContext
from repro.obs import metrics as obs_metrics

__all__ = [
    "CandidateFilter",
    "InstructionLegalityFilter",
    "InstructionPairLegalityFilter",
    "OracleLegalityFilter",
    "IntegerMagnitudeFilter",
    "PointerRangeFilter",
    "FilterChain",
]


class CandidateFilter(ABC):
    """Interface: reduce a candidate message list using side information."""

    #: Human-readable name used in experiment reports.
    name: str = "filter"

    @abstractmethod
    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        """Return the messages consistent with the side information.

        Implementations must preserve order and must not invent
        messages that were not in the input.
        """

    def spec_predicate(self):
        """A ``spec -> bool`` verdict function, or ``None``.

        The decode-table path (see ``repro.core.swdecc``) decides
        filter verdicts per (syndrome, selector-field) class, which is
        only sound when the filter's keep/drop decision is a pure
        function of the message's decoded
        :class:`~repro.isa.opcodes.InstructionSpec` (``None`` for
        illegal words) — i.e. legality-style field-local filters.
        Filters whose verdict depends on other message bits or on the
        context must return ``None`` (the default) to keep the engine
        on the reference path.
        """
        return None


class InstructionLegalityFilter(CandidateFilter):
    """Keep only messages that decode as legal MIPS instructions.

    The first stage of both the filtering-only and the
    filtering-and-ranking strategies of Sec. IV.
    """

    name = "instruction-legality"

    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        return tuple(message for message in messages if is_legal(message))

    def spec_predicate(self):
        """Legality is exactly "the word decodes to a spec"."""
        return _spec_is_legal


class OracleLegalityFilter(CandidateFilter):
    """Legality filtering for any ISA, via a supplied oracle.

    The paper's technique is ISA-agnostic: all it needs is a predicate
    "is this word a legal instruction?".  Supply one (e.g.
    :func:`repro.isa_rv.is_legal` for RV32I) and this filter plays the
    role :class:`InstructionLegalityFilter` plays for MIPS.
    """

    def __init__(
        self, is_legal_word: Callable[[int], bool], name: str = "oracle-legality"
    ) -> None:
        self._is_legal = is_legal_word
        self.name = name

    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        return tuple(message for message in messages if self._is_legal(message))


class InstructionPairLegalityFilter(CandidateFilter):
    """Keep 64-bit messages whose two halves are both legal instructions.

    The paper's future work proposes adapting SWD-ECC to 64-bit ISAs
    and memories; with the common (72, 64) SECDED code, one protected
    word holds *two* 32-bit MIPS instructions, so a candidate message
    is plausible only when both halves decode.  Requiring two legality
    checks prunes roughly quadratically harder than one.
    """

    name = "instruction-pair-legality"

    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        return tuple(
            message
            for message in messages
            if is_legal(message >> 32) and is_legal(message & 0xFFFF_FFFF)
        )


class IntegerMagnitudeFilter(CandidateFilter):
    """Keep messages below the context's unsigned magnitude bound.

    Implements the paper's example of ruling out candidates "whose
    messages have 1s in the most-significant bit positions" when the
    location is known to hold small unsigned integers.  A no-op when
    the context carries no bound.
    """

    name = "integer-magnitude"

    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        bound = context.value_bound
        if bound is None:
            return tuple(messages)
        return tuple(message for message in messages if message < bound)


class PointerRangeFilter(CandidateFilter):
    """Keep messages inside the application's virtual address range.

    Implements the paper's pointer example: candidates pointing outside
    the allocated address space cannot be the original pointer.  A
    no-op when the context carries no range.
    """

    name = "pointer-range"

    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        if context.pointer_range is None:
            return tuple(messages)
        low, high = context.pointer_range
        return tuple(message for message in messages if low <= message < high)


def _spec_is_legal(spec) -> bool:
    """`InstructionLegalityFilter`'s verdict, keyed by decoded spec."""
    return spec is not None


def _spec_always_true(spec) -> bool:
    """The identity chain's verdict: every message survives."""
    return True


class FilterChain(CandidateFilter):
    """Apply several filters in sequence.

    Unlike the engine-level fallback, the chain itself is strict: it
    simply composes its members.  An empty chain is the identity.
    """

    name = "chain"

    def __init__(self, filters: Sequence[CandidateFilter]) -> None:
        self._filters = tuple(filters)
        self.name = "+".join(f.name for f in self._filters) or "identity"
        self._m_evals = obs_metrics.get_registry().counter(
            "ops.filter_evals",
            help="Candidate messages evaluated by the filter chain",
        )

    @property
    def filters(self) -> tuple[CandidateFilter, ...]:
        """The composed filters, in application order."""
        return self._filters

    def spec_predicate(self):
        """The chain's composed spec verdict, or ``None``.

        Available only when *every* member provides one (an empty
        chain is the always-keep identity); any member on the
        reference-only default disables the whole chain's table path.
        """
        predicates = []
        for candidate_filter in self._filters:
            predicate = candidate_filter.spec_predicate()
            if predicate is None:
                return None
            predicates.append(predicate)
        if not predicates:
            return _spec_always_true
        if len(predicates) == 1:
            return predicates[0]
        return lambda spec: all(predicate(spec) for predicate in predicates)

    def apply(
        self, messages: Sequence[int], context: RecoveryContext
    ) -> tuple[int, ...]:
        # One batched inc per apply(); the identity chain does no work.
        if self._filters and messages:
            self._m_evals.inc(len(messages))
        current = tuple(messages)
        for candidate_filter in self._filters:
            current = candidate_filter.apply(current, context)
        return current
