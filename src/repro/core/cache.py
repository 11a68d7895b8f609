"""Context-keyed memoization for the engine's decision rows and verdicts.

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

:class:`ContextTables` is the other memo: one lazily filled
:class:`ContextTable` per context, kept *across* context switches.
The engine keeps its filter/ranker verdicts there, keyed by selector
key (a keyspace of 6,298 keys), so traffic that alternates between a
few contexts every request does not refill them.  Each table holds a
strong reference to its context: a table keyed by ``id(context)``
keeps that id from being recycled while the table lives.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

__all__ = ["ContextCache", "ContextTable", "ContextTables"]

#: Entries per generation before the memo is dropped and restarted.
#: A decision row holds about 1 KiB, so 4096 rows bound one cache at
#: about 4 MiB while still holding a warm set of a few thousand words.
MAX_ENTRIES = 1 << 12

#: Contexts one :class:`ContextTables` keeps tables for; the next new
#: context drops them all.  A service registers a handful of contexts
#: and a sweep makes one per image, so the cap only bounds memory when
#: a caller mints contexts without end.
MAX_CONTEXTS = 64


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


class ContextTable(dict):
    """A ``key -> value`` dict for one context that fills itself.

    A missing key is filled once by ``fill(key, context)``, so a hot
    loop reads every value with one subscript.  ``context`` is held
    strongly (see the module docstring).
    """

    __slots__ = ("context", "_fill")

    def __init__(self, context: Any, fill: Callable[[int, Any], Any]) -> None:
        super().__init__()
        self.context = context
        self._fill = fill

    def __missing__(self, key: int) -> Any:
        value = self[key] = self._fill(key, self.context)
        return value


class ContextTables:
    """One :class:`ContextTable` per context, for up to
    :data:`MAX_CONTEXTS` contexts at a time."""

    __slots__ = ("_fill", "_tables")

    def __init__(self, fill: Callable[[int, Any], Any]) -> None:
        self._fill = fill
        self._tables: dict[int, ContextTable] = {}

    def table_for(self, context: Any) -> ContextTable:
        """The table of *context*, created empty on first sight."""
        table = self._tables.get(id(context))
        if table is None:
            if len(self._tables) >= MAX_CONTEXTS:
                self._tables.clear()
            table = self._tables[id(context)] = ContextTable(
                context, self._fill
            )
        return table

    def __len__(self) -> int:
        return len(self._tables)
