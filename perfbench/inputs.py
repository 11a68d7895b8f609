"""Seeded benchmark inputs: DUE words whose original messages are known.

Every received word is an instruction word from one of the five SPEC
stand-in images, encoded with the service's default code and hit by
one double-bit error pattern.  The images are synthesized exactly as
``ServiceCatalog`` builds its contexts (with the catalog's own
``image_length`` and ``seed``), so the benchmark knows each word's
original message and the service answers it against the same
frequency table.

The seed picks the words, never the images: two runs with the same
seed send byte-identical request bodies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from repro.ecc import canonical_secded_39_32
from repro.ecc.channel import double_bit_patterns
from repro.program.profiles import BENCHMARK_NAMES
from repro.program.synth import synthesize_benchmark
from repro.service.catalog import ServiceCatalog

#: The contexts ``distinct`` and ``sharded`` rotate through, per request.
CONTEXTS: tuple[str, ...] = tuple(BENCHMARK_NAMES)

HOT_CONTEXT = "mcf"
HOT_POOL_WORDS = 512
HOT_REQUEST_WORDS = 256
#: Distinct request bodies per client; they repeat for the whole run.
HOT_BODIES_PER_CLIENT = 32

DISTINCT_REQUEST_WORDS = 64


@dataclass(frozen=True)
class Request:
    """One ``POST /recover/batch`` body and what it should recover to."""

    context: str
    words: tuple[int, ...]
    originals: tuple[int, ...]
    body: bytes


class DueSource:
    """Double-bit DUEs over the catalog's instruction images."""

    def __init__(self) -> None:
        self.code = canonical_secded_39_32()
        self.patterns = [
            pattern.vector for pattern in double_bit_patterns(self.code.n)
        ]
        catalog = ServiceCatalog()
        self.programs = {
            name: synthesize_benchmark(
                name, length=catalog.image_length, seed=catalog.seed
            )
            for name in CONTEXTS
        }
        self.images = {name: image.words for name, image in self.programs.items()}
        # Encoding once per image word keeps generation of a few
        # hundred thousand DUEs well under a second.
        self.codewords = {
            name: [self.code.encode(word) for word in words]
            for name, words in self.images.items()
        }

    def due(self, context: str, index: int, pattern: int) -> tuple[int, int]:
        """(received word, original message) for one image word."""
        return (
            self.codewords[context][index] ^ self.patterns[pattern],
            self.images[context][index],
        )


def _request(context: str, pairs: list[tuple[int, int]]) -> Request:
    words = tuple(word for word, _ in pairs)
    body = json.dumps({"received": list(words), "context": context})
    return Request(
        context=context,
        words=words,
        originals=tuple(original for _, original in pairs),
        body=body.encode("ascii"),
    )


def hot_pool(source: DueSource, seed: int) -> list[tuple[int, int]]:
    """The 512 distinct mcf DUEs a ``hot-set`` run keeps re-reporting.

    Instruction indexes and patterns are drawn without replacement
    (each from its own seeded permutation), which keeps the pool's
    recovery rate close to the image's across seeds.
    """
    rng = random.Random(f"hot-set/{seed}")
    image_length = len(source.images[HOT_CONTEXT])
    indexes = rng.sample(range(image_length), image_length)
    patterns = rng.sample(range(len(source.patterns)), len(source.patterns))
    pool: list[tuple[int, int]] = []
    seen: set[int] = set()
    draw = 0
    while len(pool) < HOT_POOL_WORDS:
        pair = source.due(
            HOT_CONTEXT,
            indexes[draw % image_length],
            patterns[draw % len(patterns)],
        )
        draw += 1
        if pair[0] not in seen:
            seen.add(pair[0])
            pool.append(pair)
    return pool


def hot_set_streams(
    source: DueSource, seed: int, clients: int
) -> tuple[list[Request], list[list[Request]]]:
    """Warm-up requests (the pool, once) and per-client request cycles.

    Each client cycles through its own 256-word samples of the pool.
    """
    pool = hot_pool(source, seed)
    half = len(pool) // 2
    warmup = [
        _request(HOT_CONTEXT, pool[:half]),
        _request(HOT_CONTEXT, pool[half:]),
    ]
    rng = random.Random(f"hot-set-requests/{seed}")
    streams = [
        [
            _request(HOT_CONTEXT, rng.sample(pool, HOT_REQUEST_WORDS))
            for _ in range(HOT_BODIES_PER_CLIENT)
        ]
        for _ in range(clients)
    ]
    return warmup, streams


def distinct_streams(
    source: DueSource, seed: int, clients: int, words: int
) -> list[list[Request]]:
    """Per-client streams of never-repeating DUEs, *words* in total.

    Request ``j`` of the global stream uses context ``j mod 5`` and goes
    to client ``j mod clients``, so every client rotates through all
    contexts and no two clients ever send the same word.
    """
    rng = random.Random(f"distinct/{seed}")
    num_patterns = len(source.patterns)
    seen: set[int] = set()
    streams: list[list[Request]] = [[] for _ in range(clients)]
    for index in range(words // DISTINCT_REQUEST_WORDS):
        context = CONTEXTS[index % len(CONTEXTS)]
        image_length = len(source.images[context])
        pairs: list[tuple[int, int]] = []
        while len(pairs) < DISTINCT_REQUEST_WORDS:
            pair = source.due(
                context,
                rng.randrange(image_length),
                rng.randrange(num_patterns),
            )
            if pair[0] not in seen:
                seen.add(pair[0])
                pairs.append(pair)
        streams[index % clients].append(_request(context, pairs))
    return streams
