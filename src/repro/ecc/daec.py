"""SEC-DED-DAEC: single-error-correcting, double-error-detecting,
double-*adjacent*-error-correcting codes.

Real DRAM/SRAM upsets are frequently *adjacent* multi-bit events — a
single particle strike flips a run of physically neighbouring cells —
which a plain (39, 32) SECDED code can only flag as DUEs.  A
SEC-DED-DAEC code (Dutta & Touba 2007 and the derivatives surveyed by
Tripathi et al., arXiv:2002.07507) additionally corrects every
*adjacent* double error by construction, while keeping non-adjacent
doubles detectable.  This module provides the generic construction
check plus one frozen instance, :func:`daec_code`, a (41, 32) code.

Construction requirements (checked by :class:`DaecCode`)
--------------------------------------------------------
With H columns ``h_0 .. h_{n-1}``:

1. all columns distinct and nonzero (SEC);
2. minimum distance >= 4: no column equals the XOR of two others
   (DED — every double error is at least *detected*);
3. every adjacent-pair sum ``h_i ^ h_{i+1}`` is produced by **exactly
   one** column pair among all C(n, 2) pairs, and all ``n - 1``
   adjacent sums are distinct.

Requirement 3 is the DAEC property: an adjacent double's syndrome
identifies its pair *uniquely*, so correcting it can never silently
miscorrect a different double — any non-adjacent double lands on a
syndrome that no adjacent pair produces and stays a DUE (exactly the
words SWD-ECC then recovers heuristically).

Why (41, 32) and not (39, 32)
-----------------------------
A systematic (39, 32) DAEC code with these zero-miscorrection rules is
*impossible*: with r = 7 there are only 127 nonzero syndromes, and a
counting argument over the involution ``x -> x ^ s`` shows the 38
adjacent sums plus 39 columns plus the d >= 4 constraint cannot all be
injective — every search terminates with no solution.  r = 8 is
borderline (the expected number of valid column orderings is
vanishingly small; extensive randomized search finds none), so the
smallest practical member of the (39, 32)-class family here uses
r = 9.  This matches the literature: published SEC-DED-DAEC codes for
32-bit data also spend extra parity or accept miscorrection of some
non-adjacent doubles; we keep the zero-miscorrection guarantee instead.

The column set below was found by randomized forward-checking search
over the constraints above and is frozen as a literal so the code is
stable across library versions (same posture as
:data:`repro.ecc.matrices.CANONICAL_39_32_COLUMNS`).
"""

from __future__ import annotations

from itertools import combinations

from repro.ecc.code import DecodeResult, DecodeStatus, LinearBlockCode
from repro.ecc.gf2 import from_columns, identity
from repro.errors import CodeConstructionError

__all__ = [
    "DAEC_41_32_COLUMNS",
    "DaecCode",
    "daec_code",
    "adjacent_pair_syndromes",
    "adjacent_syndrome_set",
]

# H columns of the frozen (41, 32) SEC-DED-DAEC code, one 9-bit value
# per codeword bit position 0..40 (MSB-first).  Positions 0..31 carry
# the message, positions 32..40 the parity identity block.
DAEC_41_32_COLUMNS: tuple[int, ...] = (
    283, 338, 102, 334, 195, 186, 494, 489, 157, 142, 365, 378, 59,
    261, 216, 383, 266, 95, 303, 313, 146, 294, 415, 501, 226, 465,
    440, 459, 252, 484, 179, 214,
    256, 128, 64, 32, 16, 8, 4, 2, 1,
)


def adjacent_pair_syndromes(code: LinearBlockCode) -> dict[int, tuple[int, int]]:
    """Map each adjacent-pair syndrome of *code* to its position pair.

    For any linear code this is ``{h_i ^ h_{i+1}: (i, i + 1)}``; when
    two adjacent pairs share a syndrome (possible for non-DAEC codes)
    the lowest pair wins.  Used by the adaptive selector to classify a
    DUE as *consistent with an adjacent double* — for a true DAEC code
    the mapping is exact, for a SECDED code it is a (useful) heuristic:
    a uniformly random double-bit DUE of the canonical (39, 32) code
    lands on an adjacent-consistent syndrome ~31% of the time, while
    genuine adjacent doubles do so always.
    """
    columns = code.column_syndromes
    mapping: dict[int, tuple[int, int]] = {}
    for i in range(code.n - 1):
        mapping.setdefault(columns[i] ^ columns[i + 1], (i, i + 1))
    return mapping


def adjacent_syndrome_set(code: LinearBlockCode) -> frozenset[int]:
    """The syndromes an adjacent double-bit error can produce."""
    columns = code.column_syndromes
    return frozenset(columns[i] ^ columns[i + 1] for i in range(code.n - 1))


class DaecCode(LinearBlockCode):
    """A systematic SEC-DED-DAEC code built from explicit H columns.

    The constructor verifies the full zero-miscorrection DAEC property
    (module docstring) and :meth:`decode` extends the bounded-distance
    decoder with the adjacent-double branch.  Everything else — the
    :class:`~repro.ecc.candidates.CandidateEnumerator` walk, the
    :class:`~repro.ecc.decode_table.DecodeTable`, SWD-ECC
    recovery of the remaining (non-adjacent) DUEs — works unchanged,
    because those layers only consume ``syndrome``/``column_syndromes``
    which this class does not alter.
    """

    def __init__(
        self, columns: tuple[int, ...], k: int, r: int, name: str = ""
    ) -> None:
        if len(columns) != k + r:
            raise CodeConstructionError(
                f"expected {k + r} columns, got {len(columns)}"
            )
        expected_identity = tuple(1 << (r - 1 - i) for i in range(r))
        if tuple(columns[k:]) != expected_identity:
            raise CodeConstructionError(
                "last r columns must be the identity block for a "
                "systematic code"
            )
        self._verify_daec_property(columns, r)
        parity_check = from_columns(columns, r)
        p_matrix = parity_check.submatrix_columns(range(k)).transpose()
        generator = identity(k).hstack(p_matrix)
        super().__init__(
            generator,
            parity_check,
            name=name or f"SEC-DED-DAEC ({k + r},{k})",
        )
        # syndrome -> (mask of the two adjacent flips, (i, i+1)).
        n = k + r
        top_bit = 1 << (n - 1)
        self._adjacent_decode: dict[int, tuple[int, tuple[int, int]]] = {
            columns[i] ^ columns[i + 1]: (
                (top_bit >> i) | (top_bit >> (i + 1)),
                (i, i + 1),
            )
            for i in range(n - 1)
        }

    @staticmethod
    def _verify_daec_property(columns: tuple[int, ...], r: int) -> None:
        """Raise unless *columns* satisfy the zero-miscorrection rules."""
        n = len(columns)
        space = 1 << r
        if len(set(columns)) != n or not all(0 < c < space for c in columns):
            raise CodeConstructionError(
                "DAEC columns must be distinct nonzero r-bit values"
            )
        column_set = set(columns)
        pair_sums: dict[int, list[tuple[int, int]]] = {}
        for i, j in combinations(range(n), 2):
            s = columns[i] ^ columns[j]
            if s in column_set:
                raise CodeConstructionError(
                    f"columns {i} and {j} sum to column value 0x{s:x}: "
                    "minimum distance < 4 (a double error would "
                    "miscorrect as a single)"
                )
            pair_sums.setdefault(s, []).append((i, j))
        adjacent_sums = [columns[i] ^ columns[i + 1] for i in range(n - 1)]
        if len(set(adjacent_sums)) != n - 1:
            raise CodeConstructionError(
                "adjacent-pair syndromes are not all distinct"
            )
        for i, s in enumerate(adjacent_sums):
            if pair_sums[s] != [(i, i + 1)]:
                raise CodeConstructionError(
                    f"adjacent pair ({i},{i + 1}) shares syndrome 0x{s:x} "
                    f"with pairs {pair_sums[s]}: adjacent correction "
                    "would miscorrect a non-adjacent double"
                )

    @property
    def adjacent_decode_map(self) -> dict[int, tuple[int, tuple[int, int]]]:
        """``syndrome -> (flip mask, (i, i + 1))`` for adjacent doubles."""
        return dict(self._adjacent_decode)

    def correctable_bits(self) -> int:
        """Bounded-distance radius for *arbitrary* error patterns.

        Still 1: only *adjacent* doubles are corrected, so distance-2
        candidate enumeration (and the radius-escalation ladder) must
        keep treating generic doubles as the DUE class — exactly the
        words SWD-ECC recovers.
        """
        return 1

    def decode(self, received: int) -> DecodeResult:
        """SEC-DED-DAEC decode: singles, then adjacent doubles, else DUE."""
        result = super().decode(received)
        if result.status is not DecodeStatus.DUE:
            return result
        adjacent = self._adjacent_decode.get(result.syndrome)
        if adjacent is None:
            return result
        mask, positions = adjacent
        self._m_xor.inc()
        codeword = received ^ mask
        return DecodeResult(
            status=DecodeStatus.CORRECTED,
            codeword=codeword,
            message=self.extract_message(codeword),
            syndrome=result.syndrome,
            corrected_positions=positions,
        )


def daec_code() -> DaecCode:
    """The frozen (41, 32) SEC-DED-DAEC code (see module docstring)."""
    return DaecCode(
        DAEC_41_32_COLUMNS, k=32, r=9, name="SEC-DED-DAEC (41,32)"
    )
