"""Candidate-codeword enumeration for DUEs (on-demand list decoding).

This is the first requirement of SWD-ECC (Sec. III-B): given a received
word that the decoder flagged as a DUE, compute *every* codeword that
could have produced it under the assumed error weight.  For a SECDED
code and a 2-bit DUE the paper's procedure is to flip each of the n bits
in turn and keep the trial strings that the hardware would decode as
1-bit CEs; those decode targets are exactly the codewords at Hamming
distance 2 from the received word.

:class:`CandidateEnumerator` implements that procedure with a syndrome
shortcut — flipping bit *i* XORs column *i* of H into the syndrome, so
each trial is one table lookup instead of a full re-decode — plus a
generic ``radius`` mode for stronger codes (e.g. 3-bit DUEs under a
DECTED code).

Because the code is linear, the *flip patterns* that turn a DUE into a
codeword depend only on the word's syndrome, never on the word itself:
a pair (i, j) works exactly when column i XOR column j of H equals the
syndrome.  The enumerator is the cache-free reference walk; the
per-code :class:`~repro.ecc.decode_table.DecodeTable` runs the same walk
once per syndrome and serves the engine's table path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from repro.bits import bit_mask, popcount
from repro.ecc.code import DecodeStatus, LinearBlockCode
from repro.errors import DecodingError
from repro.obs import metrics as obs_metrics

__all__ = [
    "CandidateEnumerator",
    "CandidateCountProfile",
    "candidate_count_profile",
]


class CandidateEnumerator:
    """Enumerates equidistant candidate codewords for a DUE.

    Parameters
    ----------
    code:
        The linear block code protecting the memory.
    """

    def __init__(self, code: LinearBlockCode) -> None:
        self._code = code
        self._n = code.n
        self._column_syndromes = code.column_syndromes
        self._syndrome_to_position = code.syndrome_to_position
        registry = obs_metrics.get_registry()
        self._m_enumerations = registry.counter(
            "ops.candidate_enumerations",
            help="Candidate-codeword enumerations for DUEs",
        )
        self._m_xor = registry.counter(
            "ops.xor", help="Modeled GF(2) XOR word operations"
        )

    @property
    def code(self) -> LinearBlockCode:
        """The code this enumerator works over."""
        return self._code

    def pair_masks(self, syndrome: int) -> tuple[int, ...]:
        """Flip masks reaching every distance-2 codeword of a coset.

        For each unordered column pair (i, j) of H with
        ``column_i XOR column_j == syndrome``, the returned tuple holds
        the n-bit mask with bits i and j set; XOR-ing any received word
        of that syndrome with each mask yields exactly the distance-2
        candidate codewords.
        """
        self._m_xor.inc(self._n)  # the n-column walk below
        top_bit = 1 << (self._n - 1)
        found = []
        for position, column in enumerate(self._column_syndromes):
            partner = self._syndrome_to_position.get(syndrome ^ column)
            # Each pair is discovered from both ends; keep the i < j view.
            if partner is not None and partner > position:
                found.append((top_bit >> position) | (top_bit >> partner))
        return tuple(found)

    def _check_due(self, received: int) -> int:
        """Validate *received* as a DUE and return its syndrome."""
        n = self._n
        if received < 0 or received > bit_mask(n):
            raise DecodingError(
                f"received word 0x{received:x} does not fit in {n} bits"
            )
        syndrome = self._code.syndrome(received)
        if syndrome == 0:
            raise DecodingError(
                "received word is a codeword, not a DUE; nothing to enumerate"
            )
        if syndrome in self._syndrome_to_position:
            raise DecodingError(
                "received word is a correctable 1-bit error, not a DUE"
            )
        return syndrome

    def candidates(self, received: int) -> tuple[int, ...]:
        """Return all codewords at Hamming distance 2 from *received*.

        *received* must be a 2-bit DUE (non-zero syndrome that matches
        no single column of H).  The true original codeword is always in
        the returned tuple when the actual error had weight 2.

        Returns candidates in increasing numeric order.
        """
        syndrome = self._check_due(received)
        masks = self.pair_masks(syndrome)
        self._m_enumerations.inc()
        self._m_xor.inc(len(masks))
        return tuple(sorted(received ^ mask for mask in masks))

    def candidate_messages(self, received: int) -> tuple[int, ...]:
        """Return the k-bit messages of :meth:`candidates`, same order."""
        return tuple(
            self._code.extract_message(codeword)
            for codeword in self.candidates(received)
        )

    def candidates_within_radius(self, received: int, radius: int) -> tuple[int, ...]:
        """Return all codewords within Hamming distance *radius*.

        Generalises :meth:`candidates` to codes whose decoder corrects
        ``t`` bits: trial-flips every combination of up to
        ``radius - t`` bits and collects the successful decodes.  The
        enumeration cost grows as ``C(n, radius - t)``.
        """
        if radius < 0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        n = self._n
        if received < 0 or received > bit_mask(n):
            raise DecodingError(
                f"received word 0x{received:x} does not fit in {n} bits"
            )
        t = self._code.correctable_bits()
        extra_flips = max(radius - t, 0)
        self._m_enumerations.inc()
        # Trial-flip XOR work below (the trial decodes count their own
        # syndrome ops via code.decode).
        self._m_xor.inc(
            sum(comb(n, w) * w for w in range(extra_flips + 1))
        )
        top_bit = 1 << (n - 1)
        found: set[int] = set()
        for flip_count in range(extra_flips + 1):
            for positions in combinations(range(n), flip_count):
                trial = received
                for position in positions:
                    trial ^= top_bit >> position
                result = self._code.decode(trial)
                if result.status is DecodeStatus.DUE:
                    continue
                codeword = result.codeword
                assert codeword is not None
                if popcount(codeword ^ received) <= radius:
                    found.add(codeword)
        return tuple(sorted(found))


@dataclass(frozen=True)
class CandidateCountProfile:
    """Candidate-count statistics over all 2-bit error patterns (Fig. 4).

    Attributes
    ----------
    counts:
        ``counts[(i, j)]`` is the number of equidistant candidate
        codewords when bits *i* and *j* (MSB-first, i < j) are in error.
        By linearity this is independent of the stored message.
    """

    counts: dict[tuple[int, int], int]

    @property
    def minimum(self) -> int:
        """Best case: fewest candidates over all patterns."""
        return min(self.counts.values())

    @property
    def maximum(self) -> int:
        """Worst case: most candidates over all patterns."""
        return max(self.counts.values())

    @property
    def mean(self) -> float:
        """Average candidate count over all patterns."""
        return sum(self.counts.values()) / len(self.counts)

    @property
    def num_patterns(self) -> int:
        """Number of 2-bit patterns (741 for n = 39)."""
        return len(self.counts)

    def as_matrix(self, width: int) -> list[list[int]]:
        """Return a symmetric width x width matrix (0 on the diagonal)."""
        matrix = [[0] * width for _ in range(width)]
        for (i, j), count in self.counts.items():
            matrix[i][j] = count
            matrix[j][i] = count
        return matrix


def candidate_count_profile(code: LinearBlockCode) -> CandidateCountProfile:
    """Compute the Fig. 4 heatmap data for *code*.

    Because the code is linear, the number of candidates for a 2-bit DUE
    depends only on the error positions, not the stored codeword; we
    evaluate every pattern against the all-zero codeword.  Each count is
    the number of unordered column pairs of H whose XOR equals the XOR
    of the two error columns (the original codeword included).
    """
    enumerator = CandidateEnumerator(code)
    n = code.n
    top_bit = 1 << (n - 1)
    counts: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            received = (top_bit >> i) | (top_bit >> j)
            counts[(i, j)] = len(enumerator.candidates(received))
    return CandidateCountProfile(counts=counts)
