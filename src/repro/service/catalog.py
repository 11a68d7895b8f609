"""Engine/context catalog for the DUE-recovery service.

Requests name their code and side-info context by *id* rather than
shipping matrices and frequency tables over the wire: the service owns
one :class:`~repro.core.swdecc.SwdEcc` engine per registered code and
one :class:`~repro.core.sideinfo.RecoveryContext` per registered
context, and resolves ``(code_id, context_id)`` per batch.

Two invariants make this safe and fast:

- **Stable identity** — the catalog always returns the *same* context
  object for a context id, so the engines' identity-keyed
  :class:`~repro.core.cache.ContextCache` generations survive across
  batches that reuse a context (the common case: one hot workload).
- **Single consumer** — engines are only ever driven by the batcher's
  worker thread (see :mod:`repro.service.batcher`), so their memo
  dicts need no locking.  Building catalog entries is lazy and does
  take a lock, because HTTP handler threads may race to *resolve*.

Engines use deterministic (:data:`~repro.core.swdecc.TieBreak.FIRST`)
tie-breaking: a service answer must not depend on RNG state that
earlier requests advanced, and determinism is what makes batched
results bit-identical to serial :meth:`SwdEcc.recover` calls.
"""

from __future__ import annotations

import random
from threading import Lock

from repro.core.sideinfo import RecoveryContext
from repro.core.swdecc import SwdEcc, TieBreak
from repro.ecc import (
    canonical_secded_39_32,
    daec_code,
    dec_code,
    dected_code,
    hsiao_39_32,
)
from repro.ecc.code import LinearBlockCode
from repro.errors import ServiceError
from repro.program.profiles import BENCHMARK_NAMES
from repro.program.stats import FrequencyTable
from repro.program.synth import synthesize_benchmark

__all__ = ["ServiceCatalog", "DEFAULT_CODE_ID", "DEFAULT_CONTEXT_ID"]

#: Code id assumed when a request omits ``code``.
DEFAULT_CODE_ID = "secded-39-32"

#: Context id assumed when a request omits ``context``.
DEFAULT_CONTEXT_ID = "none"

#: Image size used when lazily synthesizing a benchmark context.
_CONTEXT_IMAGE_LENGTH = 2048

#: Benchmark-synthesis seed (pins every context's frequency table).
_CONTEXT_SEED = 2016

#: Built-in code families, resolvable by id in every process.  Factory
#: codes need no shard forwarding: workers rebuild them lazily from
#: this table, so registering a new family here is enough to serve it
#: from pre-forked shards too.
_CODE_FACTORIES = {
    DEFAULT_CODE_ID: canonical_secded_39_32,
    "hsiao-39-32": hsiao_39_32,
    "daec-41-32": daec_code,
    "dec-44-32": dec_code,
    "dected-45-32": dected_code,
}


class ServiceCatalog:
    """Resolve ``(code_id, context_id)`` to a live engine and context.

    Benchmark contexts are synthesized with a pinned image length and
    seed that match the CLI's defaults, so service answers line up
    with ``repro recover``-style offline runs, and every shard worker
    rebuilds the same contexts.

    Engines serve from their code's decode table, built (about 10 ms)
    when the code's first engine is.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self._codes: dict[str, LinearBlockCode] = {}
        self._engines: dict[str, SwdEcc] = {}
        self._contexts: dict[str, RecoveryContext] = {
            DEFAULT_CONTEXT_ID: RecoveryContext()
        }
        self._registered_codes: set[str] = set()
        self._registered_contexts: set[str] = set()
        self._frozen_reason: str | None = None

    @property
    def image_length(self) -> int:
        """Synthesis length for lazily-built benchmark contexts."""
        return _CONTEXT_IMAGE_LENGTH

    @property
    def seed(self) -> int:
        """Synthesis seed for lazily-built benchmark contexts."""
        return _CONTEXT_SEED

    # ------------------------------------------------------------------
    # Registration / enumeration
    # ------------------------------------------------------------------

    def code_ids(self) -> list[str]:
        """Ids resolvable as codes (built-in families + registered)."""
        with self._lock:
            return sorted(set(_CODE_FACTORIES) | set(self._codes))

    def context_ids(self) -> list[str]:
        """Ids resolvable as contexts (benchmarks + registered)."""
        with self._lock:
            return sorted(set(BENCHMARK_NAMES) | set(self._contexts))

    def freeze(self, reason: str) -> None:
        """Reject further registrations, naming *reason* in the error.

        Called when a :class:`~repro.service.shards.ShardPool` forks:
        ``ShardSpec.from_catalog`` snapshots the explicit registrations
        at that moment, so a registration landing afterwards would
        exist in the parent only — requests routed to shard workers
        would die with an opaque unknown-id error.  Freezing turns that
        silent skew into an immediate, descriptive failure at the
        registration site.
        """
        with self._lock:
            self._frozen_reason = reason

    def thaw(self) -> None:
        """Allow registrations again (the shard pool is gone)."""
        with self._lock:
            self._frozen_reason = None

    @property
    def frozen(self) -> bool:
        """True while registrations are rejected (shard pool live)."""
        with self._lock:
            return self._frozen_reason is not None

    def _check_not_frozen(self, what: str, name: str) -> None:
        # Caller holds self._lock.
        if self._frozen_reason is not None:
            raise ServiceError(
                f"cannot register {what} {name!r}: the catalog is frozen "
                f"({self._frozen_reason}). Shard workers snapshot "
                "registrations when the pool starts, so a late "
                "registration would never reach them — register every "
                "code and context before starting the service, or run "
                "with workers=0."
            )

    def register_code(self, code_id: str, code: LinearBlockCode) -> None:
        """Expose *code* to requests under *code_id*."""
        with self._lock:
            self._check_not_frozen("code", code_id)
            self._codes[code_id] = code
            self._engines.pop(code_id, None)
            self._registered_codes.add(code_id)

    def register_context(
        self, context_id: str, context: RecoveryContext
    ) -> None:
        """Expose *context* to requests under *context_id*."""
        with self._lock:
            self._check_not_frozen("context", context_id)
            self._contexts[context_id] = context
            self._registered_contexts.add(context_id)

    def registrations(
        self,
    ) -> tuple[
        dict[str, LinearBlockCode], dict[str, "RecoveryContext"]
    ]:
        """Explicitly registered codes and contexts (not lazily-built
        factory/benchmark entries).

        Shard workers rebuild factory codes and benchmark contexts
        themselves from the pinned ``image_length``/``seed``, but
        explicit registrations only exist in this process — the shard
        pool forwards exactly these at fork time so every worker
        resolves the same ids.
        """
        with self._lock:
            return (
                {name: self._codes[name] for name in self._registered_codes},
                {
                    name: self._contexts[name]
                    for name in self._registered_contexts
                },
            )

    def built_benchmark_context_ids(self) -> list[str]:
        """Benchmark contexts already synthesized in this process.

        The shard pool forwards these as its workers' preload list:
        a context the parent warmed (via ``preload`` or live traffic)
        should be warm in every worker too, and benchmark contexts
        rebuild deterministically from ``image_length``/``seed`` so
        only the *names* need to cross the fork.
        """
        with self._lock:
            return sorted(
                name
                for name in self._contexts
                if name in BENCHMARK_NAMES
                and name not in self._registered_contexts
            )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def code(self, code_id: str) -> LinearBlockCode:
        """The code registered under *code_id* (built lazily)."""
        with self._lock:
            code = self._codes.get(code_id)
            if code is None:
                factory = _CODE_FACTORIES.get(code_id)
                if factory is None:
                    raise ServiceError(
                        f"unknown code id {code_id!r}; "
                        f"available: {', '.join(self.code_ids_locked())}"
                    )
                code = factory()
                self._codes[code_id] = code
            return code

    def code_ids_locked(self) -> list[str]:
        """Code ids without re-taking the lock (internal error paths)."""
        return sorted(set(_CODE_FACTORIES) | set(self._codes))

    def engine(self, code_id: str) -> SwdEcc:
        """The (single) engine serving *code_id* recoveries."""
        code = self.code(code_id)
        with self._lock:
            engine = self._engines.get(code_id)
            if engine is None:
                engine = SwdEcc(
                    code,
                    tie_break=TieBreak.FIRST,
                    rng=random.Random(0),
                )
                self._engines[code_id] = engine
            return engine

    def context(self, context_id: str) -> RecoveryContext:
        """The context registered under *context_id*.

        Benchmark names resolve lazily to an instruction-memory context
        built from the synthesized image's frequency table; the built
        object is cached so identity stays stable (the engines' context
        caches key on ``is``).
        """
        with self._lock:
            context = self._contexts.get(context_id)
            if context is not None:
                return context
        if context_id not in BENCHMARK_NAMES:
            raise ServiceError(
                f"unknown context id {context_id!r}; "
                f"available: {', '.join(self.context_ids())}"
            )
        image = synthesize_benchmark(
            context_id, length=_CONTEXT_IMAGE_LENGTH, seed=_CONTEXT_SEED
        )
        built = RecoveryContext.for_instructions(
            FrequencyTable.from_image(image)
        )
        with self._lock:
            # First builder wins so identity stays stable under races.
            return self._contexts.setdefault(context_id, built)

    def resolve(
        self, code_id: str, context_id: str
    ) -> tuple[SwdEcc, RecoveryContext]:
        """Engine + context for one request (validates both ids)."""
        return self.engine(code_id), self.context(context_id)

    def preload(self, context_ids: list[str] | None = None) -> None:
        """Eagerly build the default engine and the named contexts.

        Called at service startup so the first request doesn't pay
        image synthesis; unknown ids raise up front instead of at
        serving time.
        """
        self.engine(DEFAULT_CODE_ID)
        for context_id in context_ids or ():
            self.context(context_id)
