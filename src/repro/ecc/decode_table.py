"""Syndrome decode tables: the DUE space of a code, materialized.

For a fixed (n, k) code the entire double-bit-DUE space is tiny — all
C(n, 2) column pairs of H map onto at most ``2^r`` distinct syndromes
(63 for the paper's (39, 32) SECDED code) — and both the flip-mask set
and the candidate *message offsets* of a DUE are pure functions of its
syndrome, never of the received word.  This module builds that whole
mapping once per code (:attr:`LinearBlockCode.decode_table
<repro.ecc.code.LinearBlockCode.decode_table>`):

- ``syndrome -> DecodeEntry`` with the flip masks (bit-identical, in
  the same order, to the ``CandidateEnumerator.pair_masks`` column
  walk), the k-bit message offsets ``mask >> r``, and a reverse
  ``offset -> mask`` index so a chosen message maps back to its
  codeword in O(1);
- chunked syndrome lookup tables (``ceil(n / 13)`` tables of at most
  8192 entries) that turn the per-word ``H @ r`` multiply into a few
  list probes and XORs.

The build charges no ``ops.*`` counters: it is set-up, priced by
``decode_table.build_seconds``, so op totals do not depend on how many
processes or engines a study uses.  Engines serve recoveries from the
table only when :attr:`DecodeTable.supports_fast_path` holds — the
structural guards against code subclasses that override ``syndrome``,
``encode`` or ``extract_message``, or that correct more than one bit;
everything else takes the reference path.
"""

from __future__ import annotations

import sys
import time

from repro.bits import bit_mask
from repro.ecc.code import LinearBlockCode
from repro.errors import DecodingError
from repro.obs import metrics as obs_metrics

__all__ = ["DecodeTable", "DecodeEntry"]

#: Width of each syndrome-lookup chunk; 13 keeps every chunk table at
#: most 8192 entries (~70 KiB of small ints for n = 39) while needing
#: only 3 probes per 39-bit word.
_CHUNK_BITS = 13

#: Words spot-checked against the H product at build time.
_VERIFY_WORDS = 8


class DecodeEntry:
    """One syndrome's candidate set."""

    __slots__ = ("syndrome", "masks", "offsets", "mask_by_offset")

    def __init__(self, syndrome: int, masks: tuple[int, ...], r: int) -> None:
        self.syndrome = syndrome
        #: Flip masks, in ``CandidateEnumerator.pair_masks`` order.
        self.masks = masks
        #: Candidate message offsets ``mask >> r``, same order: the
        #: candidate messages of a received word are ``(received >> r)
        #: ^ offset`` for systematic codes.
        self.offsets = tuple(mask >> r for mask in masks)
        #: ``offset -> mask`` — recovers the chosen codeword as
        #: ``received ^ mask_by_offset[chosen_message ^ (received >> r)]``.
        self.mask_by_offset = dict(zip(self.offsets, masks))


class DecodeTable:
    """The complete syndrome→candidates decode table of one code.

    Building runs the enumerator's column walk once per reachable
    syndrome and materializes chunked syndrome tables, so a single-word
    ``recover()`` becomes syndrome XOR + table probe + decide + choose.
    Exported via ``repro.obs``:

    - ``decode_table.builds`` / ``decode_table.entries`` /
      ``decode_table.pair_masks`` / ``decode_table.resident_bytes``
      (counters, so shard-worker deltas ship to the parent registry);
    - ``decode_table.build_seconds`` (histogram).
    """

    def __init__(self, code: LinearBlockCode) -> None:
        start_ns = time.perf_counter_ns()
        self._code = code
        n = code.n
        r = n - code.k
        self._n = n
        self._r = r
        self._word_mask = bit_mask(n)
        columns = code.column_syndromes
        syndrome_to_position = code.syndrome_to_position

        # --- syndrome -> flip masks, via the enumerator's column walk
        # (identical tuples, identical order), once per reachable
        # syndrome.
        pair_syndromes: set[int] = set()
        for i in range(n):
            column_i = columns[i]
            for j in range(i + 1, n):
                pair_syndromes.add(column_i ^ columns[j])
        top_bit = 1 << (n - 1)
        entries: dict[int, DecodeEntry] = {}
        num_pairs = 0
        for syndrome in pair_syndromes:
            found = []
            for position, column in enumerate(columns):
                partner = syndrome_to_position.get(syndrome ^ column)
                if partner is not None and partner > position:
                    found.append((top_bit >> position) | (top_bit >> partner))
            if found:
                entries[syndrome] = DecodeEntry(syndrome, tuple(found), r)
                num_pairs += len(found)
        self._entries = entries

        # --- chunked syndrome lookup: XOR of per-chunk partial
        # syndromes reproduces H @ r exactly (each table entry is the
        # XOR of the column syndromes of its set bits).  Each chunk bit
        # doubles the table: entries with the bit set are the entries
        # without it, XOR that bit's column.
        chunks: list[tuple[int, int, list[int]]] = []
        for low in range(0, n, _CHUNK_BITS):
            width = min(_CHUNK_BITS, n - low)
            table = [0]
            for bit in range(width):
                column = columns[n - 1 - (low + bit)]
                table += [value ^ column for value in table]
            chunks.append((low, bit_mask(width), table))
        self._chunks = tuple(chunks)

        # --- fast-path guards: the shift-based offsets and chunked
        # syndromes replicate the *base class* semantics, so a subclass
        # overriding any of them gets the reference path, not a wrong
        # answer.
        base = LinearBlockCode
        self.linear_extract = type(code).extract_message is base.extract_message
        # Messages occupy the top k bits of every codeword (G = [I_k | P]),
        # so a stored message m is received as ``m ^ (error >> r)``.
        self.systematic = type(code).encode is base.encode and all(
            row >> r == 1 << (code.k - 1 - index)
            for index, row in enumerate(code.generator.rows)
        )
        exact_syndrome = type(code).syndrome is base.syndrome
        if exact_syndrome:
            # Spot-check against the raw H product (code.syndrome would
            # charge ops.syndrome_computes to a build that charges none).
            parity_check = code.parity_check
            probe = 0x9E3779B97F4A7C15 & self._word_mask
            for _ in range(_VERIFY_WORDS):
                if self._syndrome_unchecked(probe) != parity_check.mul_vector(probe):
                    exact_syndrome = False
                    break
                probe = (probe * 6364136223846793005 + 1442695040888963407) & self._word_mask
        self.exact_syndrome = exact_syndrome
        self.offsets_distinct = all(
            len(entry.mask_by_offset) == len(entry.offsets)
            for entry in entries.values()
        )
        # The table materializes exactly the radius-1 DUE cosets (pairs
        # of H columns).  An engine whose code corrects t >= 2 bits
        # (DEC/DECTED BCH) treats *triple*-bit patterns as its DUE
        # class, so serving it from 2-bit cosets would shadow the
        # wider enumeration — such codes take the reference path.
        self.radius_one = code.correctable_bits() == 1
        #: True when engines may serve recoveries straight from this
        #: table; False leaves them on the word-by-word reference path.
        self.supports_fast_path = (
            self.radius_one
            and self.linear_extract
            and self.systematic
            and self.exact_syndrome
            and self.offsets_distinct
        )

        self.num_syndromes = len(entries)
        self.num_pairs = num_pairs
        self.resident_bytes = self._measure_resident_bytes()
        self.build_seconds = (time.perf_counter_ns() - start_ns) / 1e9

        registry = obs_metrics.get_registry()
        registry.counter(
            "decode_table.builds", help="Syndrome decode tables built"
        ).inc()
        registry.counter(
            "decode_table.entries",
            help="Distinct DUE syndromes materialized across table builds",
        ).inc(self.num_syndromes)
        registry.counter(
            "decode_table.pair_masks",
            help="Flip-pair masks materialized across table builds",
        ).inc(self.num_pairs)
        registry.counter(
            "decode_table.resident_bytes",
            help="Approximate resident size of built decode tables",
        ).inc(self.resident_bytes)
        registry.histogram(
            "decode_table.build_seconds",
            help="Wall time to build one syndrome decode table",
        ).observe(self.build_seconds)

    @property
    def code(self) -> LinearBlockCode:
        """The code this table was built for."""
        return self._code

    @property
    def num_chunks(self) -> int:
        """Number of syndrome-lookup chunks (probes per word)."""
        return len(self._chunks)

    @property
    def chunks(self) -> tuple[tuple[int, int, list[int]], ...]:
        """The ``(low_bit, chunk_mask, partial_syndromes)`` lookup
        chunks, for callers that inline the per-word XOR loop."""
        return self._chunks

    @property
    def entries(self) -> dict[int, DecodeEntry]:
        """The live ``syndrome -> DecodeEntry`` mapping (treat as
        read-only), for callers that inline the per-word probe."""
        return self._entries

    def _measure_resident_bytes(self) -> int:
        """Container-level size estimate of the materialized tables."""
        total = sys.getsizeof(self._entries)
        for entry in self._entries.values():
            total += (
                sys.getsizeof(entry.masks)
                + sys.getsizeof(entry.offsets)
                + sys.getsizeof(entry.mask_by_offset)
            )
            total += sum(map(sys.getsizeof, entry.masks))
            total += sum(map(sys.getsizeof, entry.offsets))
        for _, _, table in self._chunks:
            total += sys.getsizeof(table) + sum(map(sys.getsizeof, table))
        return total

    def _syndrome_unchecked(self, received: int) -> int:
        syndrome = 0
        for low, mask, table in self._chunks:
            syndrome ^= table[(received >> low) & mask]
        return syndrome

    def syndrome_of(self, received: int) -> int:
        """The r-bit syndrome of *received*, by chunked table lookup.

        Matches ``code.syndrome`` bit-for-bit (the build spot-checks
        this) including the out-of-range :class:`DecodingError`.
        """
        if received < 0 or received > self._word_mask:
            raise DecodingError(
                f"received word 0x{received:x} does not fit in {self._n} bits"
            )
        return self._syndrome_unchecked(received)

    def entry(self, syndrome: int) -> DecodeEntry | None:
        """The entry for *syndrome*, or ``None`` when no column pair
        of H produces it (the radius-escalation case)."""
        return self._entries.get(syndrome)
