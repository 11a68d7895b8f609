"""Context-keyed memoization for the engine's decision rows.

A decision row (filter verdicts, ranker scores and tie set for one
``(syndrome, selector base)`` class, see :mod:`repro.core.swdecc`) is
a pure function of its key *given a fixed*
:class:`~repro.core.sideinfo.RecoveryContext` (contexts are frozen
dataclasses; their tables never mutate).  A service replaying a warm
word set reuses rows across requests, so a per-context ``key -> row``
memo skips the filter/rank work for every repeat.

:class:`ContextCache` keys on context *identity* (``is``), not
equality: equality on a context would hash its frequency tables on
every lookup, costing more than the work it saves.  The cache keeps
one context generation at a time — rebinding to a new context clears
it — and a hard entry cap bounds memory under never-repeating traffic.

Aliasing contract: :meth:`ContextCache.values_for` hands hot loops the
*live* memo dict, so the cap must be enforced with an **in-place**
``dict.clear()`` — rebinding ``self._values`` to a fresh dict would
leave any caller that fetched the dict earlier in the same generation
writing into an orphaned copy, silently losing memoization for the
rest of its loop.  A *context switch*, by contrast, deliberately
rebinds to a fresh dict: a stale holder's entries belong to the dead
generation and must not leak into the new one.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ContextCache"]

#: Entries per generation before the memo is dropped and restarted.
#: A decision row holds about 1 KiB, so 4096 rows bound one cache at
#: about 4 MiB while still holding a warm set of a few thousand words.
MAX_ENTRIES = 1 << 12


class ContextCache:
    """A one-generation ``(context, key) -> value`` memo.

    The caller owns the value semantics; this class only handles
    generation tracking (context identity) and the size cap.
    """

    __slots__ = ("_context", "_values")

    def __init__(self) -> None:
        self._context: Any = None
        self._values: dict[int, Any] = {}

    def values_for(self, context: Any) -> dict[int, Any]:
        """The live memo dict for *context*, for inlined hot loops.

        Rebinding to a new context rebinds to a fresh dict (old-generation
        holders must not pollute the new context); arriving at the entry
        cap clears **in place**, so a holder fetched earlier in the same
        generation keeps memoizing into the live dict instead of an
        orphaned one.
        """
        if context is not self._context:
            self._context = context
            self._values = {}
        elif len(self._values) >= MAX_ENTRIES:
            self._values.clear()
        return self._values

    def __len__(self) -> int:
        return len(self._values)
