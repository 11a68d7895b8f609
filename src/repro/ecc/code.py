"""Systematic linear block codes and bounded-distance syndrome decoding.

This module provides the generic machinery of Sec. II-A of the paper: an
(n, k) systematic linear block code over GF(2), encoding by generator
matrix, and decoding by syndrome lookup with the three outcomes the ECC
hardware reports upward — no error, corrected error (CE), or detected
but uncorrectable error (DUE).

Layout convention
-----------------
Codewords are ``n``-bit integers with MSB-first bit positions (see
:mod:`repro.bits`).  Systematic codes place the ``k`` message bits in
positions ``0..k-1`` and the ``r = n - k`` parity bits in positions
``k..n-1``, i.e. ``G = [I_k | P]`` and ``H = [P^T | I_r]``.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from repro.bits import bit_mask, popcount
from repro.ecc.gf2 import GF2Matrix, identity
from repro.errors import CodeConstructionError, DecodingError, EncodingError
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:
    from repro.ecc.decode_table import DecodeTable

__all__ = [
    "DecodeStatus",
    "DecodeResult",
    "LinearBlockCode",
    "systematic_pair",
]


class DecodeStatus(enum.Enum):
    """Outcome of a decode attempt, as reported by ECC hardware."""

    OK = "ok"
    """The received word is a codeword; no error was detected."""

    CORRECTED = "corrected"
    """A correctable error (CE) was found and repaired."""

    DUE = "due"
    """A detected-but-uncorrectable error; recovery is up to the system."""


@dataclass(frozen=True)
class DecodeResult:
    """Everything a decoder can report about one received word.

    Attributes
    ----------
    status:
        One of OK / CORRECTED / DUE.
    codeword:
        The decoded codeword, or ``None`` for a DUE.
    message:
        The extracted k-bit message, or ``None`` for a DUE.
    syndrome:
        The raw r-bit syndrome of the received word.
    corrected_positions:
        MSB-first bit positions that were flipped to reach the codeword
        (empty for OK and DUE).
    """

    status: DecodeStatus
    codeword: int | None
    message: int | None
    syndrome: int
    corrected_positions: tuple[int, ...] = ()

    @property
    def is_due(self) -> bool:
        """True when the word was detected as uncorrectable."""
        return self.status is DecodeStatus.DUE

    @property
    def is_clean(self) -> bool:
        """True when no error at all was detected."""
        return self.status is DecodeStatus.OK


class LinearBlockCode:
    """A systematic (n, k) linear block code with 1-bit syndrome decoding.

    The default decoder is the bounded-distance decoder used by SECDED
    hardware: correct any single-bit error, flag everything else as a
    DUE.  Code families with stronger correction (e.g. BCH in
    :mod:`repro.ecc.bch`) subclass and override :meth:`decode`.

    Parameters
    ----------
    generator:
        ``k x n`` generator matrix, systematic form ``[I_k | P]``.
    parity_check:
        ``r x n`` parity-check matrix with ``G @ H^T = 0``.
    name:
        Human-readable name, e.g. ``"Hsiao (39,32) SECDED"``.
    """

    def __init__(
        self,
        generator: GF2Matrix,
        parity_check: GF2Matrix,
        name: str = "",
        allow_ambiguous_columns: bool = False,
    ) -> None:
        k, n_g = generator.shape
        r, n_h = parity_check.shape
        if n_g != n_h:
            raise CodeConstructionError(
                f"generator has {n_g} columns but parity check has {n_h}"
            )
        if k + r != n_g:
            raise CodeConstructionError(
                f"dimensions disagree: k={k}, r={r}, n={n_g}"
            )
        product = generator @ parity_check.transpose()
        if not product.is_zero():
            raise CodeConstructionError("G @ H^T != 0: matrices are inconsistent")
        if parity_check.rank() != r:
            raise CodeConstructionError("parity-check matrix is rank deficient")
        self._generator = generator
        self._parity_check = parity_check
        self._name = name or f"({n_g},{k}) linear code"
        self._n = n_g
        self._k = k
        self._r = r
        # Syndrome of a single-bit error at position i is column i of H.
        self._column_syndromes = parity_check.columns()
        self._syndrome_to_position: dict[int, int] = {}
        ambiguous: set[int] = set()
        for position, column in enumerate(self._column_syndromes):
            if column == 0:
                raise CodeConstructionError(
                    f"H column {position} is zero: single errors there are invisible"
                )
            if column in self._syndrome_to_position:
                if not allow_ambiguous_columns:
                    raise CodeConstructionError(
                        f"H columns {self._syndrome_to_position[column]} and "
                        f"{position} are equal: single errors are ambiguous"
                    )
                ambiguous.add(column)
            else:
                self._syndrome_to_position[column] = position
        # Codes with repeated columns (d = 2, detect-only) must not
        # "correct" a bit they cannot actually locate.
        for column in ambiguous:
            del self._syndrome_to_position[column]
        # Op-level work counters (energy accounting): costs are charged
        # by closed-form formulas here rather than inside the gf2 bit
        # loops, so the hot path pays a few batched inc() calls per
        # decode instead of one per matrix row.
        registry = obs_metrics.get_registry()
        self._m_syndromes = registry.counter(
            "ops.syndrome_computes", help="Syndrome computations (H @ r)"
        )
        self._m_xor = registry.counter(
            "ops.xor", help="Modeled GF(2) XOR word operations"
        )
        self._m_and = registry.counter(
            "ops.and", help="Modeled GF(2) AND word operations"
        )
        self._decode_table = None

    def __getstate__(self) -> dict:
        # The decode table is derived data (about 1 MB for n = 39): a
        # copy sent to another process rebuilds it on first use.
        state = self.__dict__.copy()
        state["_decode_table"] = None
        return state

    # ------------------------------------------------------------------
    # Basic parameters
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Codeword length in bits."""
        return self._n

    @property
    def k(self) -> int:
        """Message length in bits."""
        return self._k

    @property
    def r(self) -> int:
        """Number of parity bits (n - k)."""
        return self._r

    @property
    def name(self) -> str:
        """Human-readable code name."""
        return self._name

    @property
    def generator(self) -> GF2Matrix:
        """The k x n generator matrix."""
        return self._generator

    @property
    def parity_check(self) -> GF2Matrix:
        """The r x n parity-check matrix."""
        return self._parity_check

    @property
    def column_syndromes(self) -> tuple[int, ...]:
        """Columns of H: the syndrome each single-bit error produces."""
        return self._column_syndromes

    @property
    def syndrome_to_position(self) -> dict[int, int]:
        """Map from single-bit-error syndrome to its bit position."""
        return dict(self._syndrome_to_position)

    def correctable_bits(self) -> int:
        """Number of bit errors the default decoder corrects (t = 1)."""
        return 1

    @property
    def decode_table(self) -> DecodeTable:
        """This code's syndrome decode table, built on first access.

        Every engine over this code object shares the one table (see
        :mod:`repro.ecc.decode_table`).
        """
        table = self._decode_table
        if table is None:
            # Deferred: decode_table imports this module.
            from repro.ecc.decode_table import DecodeTable

            table = self._decode_table = DecodeTable(self)
        return table

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    def encode(self, message: int) -> int:
        """Encode a k-bit message into an n-bit codeword."""
        if message < 0 or message > bit_mask(self._k):
            raise EncodingError(
                f"message 0x{message:x} does not fit in {self._k} bits"
            )
        self._m_xor.inc(self._k)
        return self._generator.left_mul_vector(message)

    def syndrome(self, received: int) -> int:
        """Return the r-bit syndrome of an n-bit received word."""
        if received < 0 or received > bit_mask(self._n):
            raise DecodingError(
                f"received word 0x{received:x} does not fit in {self._n} bits"
            )
        # One AND + one parity-XOR per H row (see GF2Matrix.mul_vector);
        # those row ops are folded into the syndrome-compute energy
        # constant rather than charged as separate incs — syndrome() is
        # the hottest instrumented call and stays at one inc.
        self._m_syndromes.inc()
        return self._parity_check.mul_vector(received)

    def is_codeword(self, word: int) -> bool:
        """True when *word* has a zero syndrome."""
        return self.syndrome(word) == 0

    def extract_message(self, codeword: int) -> int:
        """Return the k message bits of a systematic codeword."""
        if codeword < 0 or codeword > bit_mask(self._n):
            raise DecodingError(
                f"codeword 0x{codeword:x} does not fit in {self._n} bits"
            )
        return codeword >> self._r

    def decode(self, received: int) -> DecodeResult:
        """Bounded-distance decode: fix 1-bit errors, flag the rest as DUE."""
        syndrome = self.syndrome(received)
        if syndrome == 0:
            return DecodeResult(
                status=DecodeStatus.OK,
                codeword=received,
                message=self.extract_message(received),
                syndrome=0,
            )
        position = self._syndrome_to_position.get(syndrome)
        if position is None:
            return DecodeResult(
                status=DecodeStatus.DUE,
                codeword=None,
                message=None,
                syndrome=syndrome,
            )
        self._m_xor.inc()
        codeword = received ^ (1 << (self._n - 1 - position))
        return DecodeResult(
            status=DecodeStatus.CORRECTED,
            codeword=codeword,
            message=self.extract_message(codeword),
            syndrome=syndrome,
            corrected_positions=(position,),
        )

    # ------------------------------------------------------------------
    # Code-analysis helpers
    # ------------------------------------------------------------------

    def codewords(self) -> Iterator[int]:
        """Yield all 2^k codewords (only sensible for small k)."""
        if self._k > 24:
            raise DecodingError(
                f"refusing to enumerate 2^{self._k} codewords; "
                "use verify_minimum_distance for large codes"
            )
        for message in range(1 << self._k):
            yield self.encode(message)

    def weight_distribution(self) -> dict[int, int]:
        """Return {weight: count} over all codewords (small codes only)."""
        distribution: dict[int, int] = {}
        for codeword in self.codewords():
            weight = popcount(codeword)
            distribution[weight] = distribution.get(weight, 0) + 1
        return distribution

    def minimum_distance(self) -> int:
        """Exact minimum distance by exhaustive search (small codes only)."""
        best = self._n + 1
        for codeword in self.codewords():
            if codeword != 0:
                best = min(best, popcount(codeword))
        return best

    def verify_minimum_distance(self, distance: int) -> bool:
        """Check ``d_min >= distance`` without enumerating codewords.

        A linear code has minimum distance ``>= d`` iff no non-empty set
        of at most ``d - 1`` columns of H is linearly dependent (sums to
        zero).  Cost is ``sum_{w<=d-1} C(n, w)`` XOR-sums, which is fine
        for the small ``d`` used by memory codes.
        """
        if distance < 1:
            raise ValueError(f"distance must be >= 1, got {distance}")
        columns = self._column_syndromes
        for weight in range(1, distance):
            for subset in combinations(columns, weight):
                acc = 0
                for column in subset:
                    acc ^= column
                if acc == 0:
                    return False
        return True

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self._name} n={self._n} k={self._k}>"


def systematic_pair(p_matrix: GF2Matrix) -> tuple[GF2Matrix, GF2Matrix]:
    """Build (G, H) from the parity part P of a systematic code.

    Given the ``k x r`` matrix P, returns ``G = [I_k | P]`` and
    ``H = [P^T | I_r]``, which satisfy ``G @ H^T = 0`` by construction.
    """
    k, r = p_matrix.shape
    generator = identity(k).hstack(p_matrix)
    parity_check = p_matrix.transpose().hstack(identity(r))
    return generator, parity_check
