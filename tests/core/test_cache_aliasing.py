"""Regression tests for the ContextCache cap-clear aliasing bug.

``ContextCache.values_for`` returns the *live* memo dict for hot loops
to use directly.  The entry-cap clear used to rebind ``self._values``
to a fresh dict, which orphaned any reference a hot loop was still
holding: the loop kept writing into the dead dict, the cache recorded
nothing, and every subsequent lookup missed — silently losing
memoization.  The cap must clear **in place**; only a context switch
may rebind.
"""

from __future__ import annotations

import pytest

from repro.core import cache as cache_module
from repro.core.cache import ContextCache


@pytest.fixture()
def small_cap(monkeypatch):
    """Shrink the entry cap so tests can cross it in a few stores."""
    monkeypatch.setattr(cache_module, "MAX_ENTRIES", 8)
    return 8


class TestCapClearAliasing:
    def test_values_for_stays_live_across_cap_clear(self, small_cap):
        # The hot-loop pattern: fetch the dict once, then read/write it
        # directly while the generation crosses the entry cap.
        cache = ContextCache()
        context = object()
        values = cache.values_for(context)
        for message in range(small_cap):
            values[message] = message * 10
        # Crossing the cap (e.g. another recover() fetching the rows)
        # clears the generation...
        cleared = cache.values_for(context)
        assert len(cache) == 0
        # ...but the original holder must still be writing into the
        # *live* dict, not an orphaned one.
        values[99] = 990
        assert cleared is values, (
            "cap clear rebound the memo dict; hot-loop holders are now "
            "writing into an orphaned copy"
        )
        assert cache.values_for(context) == {99: 990}

    def test_cap_clear_mid_loop_preserves_memoization(self, small_cap):
        # Simulate a hot loop: one fetch, then a write loop that crosses
        # the cap several times while other callers keep re-fetching the
        # memo.  Every post-clear write must land in the live dict.
        cache = ContextCache()
        context = object()
        values = cache.values_for(context)
        for message in range(small_cap * 3 + 3):
            values[message] = message
            if len(values) >= cache_module.MAX_ENTRIES:
                # Another caller arriving mid-loop triggers the cap.
                cache.values_for(context)
        fresh = cache.values_for(context)
        assert fresh is values, (
            "the hot loop's dict was orphaned by a cap clear mid-loop"
        )
        # The tail of the loop (after the last clear) is memoized.
        tail = range(small_cap * 3, small_cap * 3 + 3)
        assert fresh == {message: message for message in tail}

    def test_context_switch_still_rebinds(self, small_cap):
        # A *context* change must NOT clear in place: a stale holder
        # from the previous generation would otherwise leak dead
        # entries into the new context's memo.
        cache = ContextCache()
        first, second = object(), object()
        stale = cache.values_for(first)
        stale[1] = "old-generation"
        fresh = cache.values_for(second)
        assert fresh is not stale
        stale[2] = "late-write-from-dead-holder"
        assert cache.values_for(second) == {}
