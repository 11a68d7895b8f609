"""The MIPS-I instruction decoder: the legality oracle of Sec. IV-A.

The paper isolated gem5's MIPS decoder into a predicate that reports
whether a 32-bit value is a legal instruction and, if so, its operation
(mnemonic).  This module is that predicate, driven by the tables in
:mod:`repro.isa.opcodes`:

- :func:`try_decode` — return an :class:`Instruction` or ``None``;
- :func:`decode` — same but raising :class:`IllegalInstructionError`;
- :func:`is_legal` — the boolean filter used by SWD-ECC;
- :func:`mnemonic_of` — the operation label used for frequency ranking.

Decoding walks the major opcode first, then the sub-field the opcode
delegates to (funct for SPECIAL, rt for REGIMM, fmt+funct for COP1, rs
for coprocessor transfers).  Register and immediate fields never affect
legality — the property the paper highlights to explain why DUEs in
low-order bits are the hardest to recover.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import IllegalInstructionError
from repro.isa import fields
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    COP0_CO_FUNCTS,
    COP0_OPCODE,
    COP0_TRANSFER_RS,
    COP1_FMTS,
    COP1_FUNCTS_BY_FMT,
    COP1_FMT_LETTERS,
    COP1_OPCODE,
    COP2_OPCODE,
    COP3_OPCODE,
    COPZ_BRANCH_RS,
    COPZ_BRANCH_RT,
    COPZ_TRANSFER_RS,
    INSTRUCTION_SPECS,
    InstructionSpec,
    LEGAL_OPCODES,
    PRIMARY_OPCODES,
    REGIMM_OPCODE,
    REGIMM_SELECTORS,
    SPECIAL_FUNCTS,
    SPECIAL_OPCODE,
)

__all__ = [
    "decode",
    "try_decode",
    "is_legal",
    "mnemonic_of",
    "SELECTOR_FIELD_MASKS",
    "ALL_SELECTOR_FIELDS",
    "selector_key",
    "spec_for_selector_key",
]

_OPCODE_FIELD = 0xFC00_0000
_RS_FIELD = 0x03E0_0000
_RT_FIELD = 0x001F_0000
_FUNCT_FIELD = 0x0000_003F


def _selector_fields(opcode: int) -> int:
    """The bit fields that decide legality/mnemonic under *opcode*.

    Decoding walks opcode, then at most one delegated sub-field (see
    the module docstring): funct for SPECIAL, rt for REGIMM, rs+funct
    for COP0/COP1, rs+rt for COP2/COP3.  Register and immediate fields
    outside these masks never affect the decoded spec.
    """
    if opcode == SPECIAL_OPCODE:
        return _OPCODE_FIELD | _FUNCT_FIELD
    if opcode == REGIMM_OPCODE:
        return _OPCODE_FIELD | _RT_FIELD
    if opcode in (COP0_OPCODE, COP1_OPCODE):
        return _OPCODE_FIELD | _RS_FIELD | _FUNCT_FIELD
    if opcode in (COP2_OPCODE, COP3_OPCODE):
        return _OPCODE_FIELD | _RS_FIELD | _RT_FIELD
    return _OPCODE_FIELD


#: Per-opcode mask of the fields that determine the decoded spec:
#: ``_spec_for_word(w) == _spec_for_word(w & SELECTOR_FIELD_MASKS[op])``.
SELECTOR_FIELD_MASKS: tuple[int, ...] = tuple(
    _selector_fields(opcode) for opcode in range(64)
)

#: Union of every selector mask (0xFFFF003F).  Two words that agree on
#: these bits decode to the same spec, which is what lets the
#: decode-table recovery path key filter verdicts and ranker scores
#: by ``word & ALL_SELECTOR_FIELDS`` instead of the full word.
ALL_SELECTOR_FIELDS: int = 0
for _mask in SELECTOR_FIELD_MASKS:
    ALL_SELECTOR_FIELDS |= _mask
del _mask


def selector_key(word: int) -> int:
    """The subset of *word*'s bits that determine its decoded spec."""
    return word & SELECTOR_FIELD_MASKS[(word >> 26) & 0x3F]


def spec_for_selector_key(key: int) -> InstructionSpec | None:
    """Decode a :func:`selector_key`, or ``None`` when illegal.

    ``spec_for_selector_key(selector_key(w))`` equals
    ``_spec_for_word(w)`` for every 32-bit *w*: masking zeroes only
    fields that never reach the sub-decoders.  The selector keyspace is
    structurally bounded (6,298 keys over all opcodes), and the engine
    keeps its verdicts per key and context (``repro.core.swdecc``), so
    it decodes each key about once per context.
    """
    return _spec_for_word(key)


def _spec(mnemonic: str) -> InstructionSpec:
    return INSTRUCTION_SPECS[mnemonic]


def _decode_special(word: int) -> InstructionSpec | None:
    entry = SPECIAL_FUNCTS.get(fields.funct_of(word))
    if entry is None:
        return None
    return _spec(entry[0])


def _decode_regimm(word: int) -> InstructionSpec | None:
    entry = REGIMM_SELECTORS.get(fields.rt_of(word))
    if entry is None:
        return None
    return _spec(entry[0])


def _decode_cop1(word: int) -> InstructionSpec | None:
    fmt = fields.rs_of(word)
    if fmt not in COP1_FMTS:
        return None
    entry = COP1_FUNCTS_BY_FMT[fmt].get(fields.funct_of(word))
    if entry is None:
        return None
    return _spec(f"{entry[0]}.{COP1_FMT_LETTERS[fmt]}")


def _decode_cop0(word: int) -> InstructionSpec | None:
    rs = fields.rs_of(word)
    transfer = COP0_TRANSFER_RS.get(rs)
    if transfer is not None:
        return _spec(transfer)
    if rs & 0x10:
        operation = COP0_CO_FUNCTS.get(fields.funct_of(word))
        if operation is not None:
            return _spec(operation)
    return None


def _decode_copz(word: int, z: int) -> InstructionSpec | None:
    rs = fields.rs_of(word)
    transfer = COPZ_TRANSFER_RS.get(rs)
    if transfer is not None:
        return _spec(transfer.format(z=z))
    if rs == COPZ_BRANCH_RS:
        branch = COPZ_BRANCH_RT.get(fields.rt_of(word))
        if branch is not None:
            return _spec(branch.format(z=z))
        return None
    if rs & 0x10:
        return _spec(f"cop{z}")
    return None


@lru_cache(maxsize=1 << 16)
def _spec_for_word(word: int) -> InstructionSpec | None:
    opcode = fields.opcode_of(word)
    if opcode not in LEGAL_OPCODES:
        return None
    if opcode == SPECIAL_OPCODE:
        return _decode_special(word)
    if opcode == REGIMM_OPCODE:
        return _decode_regimm(word)
    if opcode == COP0_OPCODE:
        return _decode_cop0(word)
    if opcode == COP1_OPCODE:
        return _decode_cop1(word)
    if opcode == COP2_OPCODE:
        return _decode_copz(word, 2)
    if opcode == COP3_OPCODE:
        return _decode_copz(word, 3)
    mnemonic, _, _ = PRIMARY_OPCODES[opcode]
    return _spec(mnemonic)


def try_decode(word: int) -> Instruction | None:
    """Decode *word*, returning ``None`` when it is not a legal instruction."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValueError(f"instruction word 0x{word:x} is not 32 bits")
    spec = _spec_for_word(word)
    if spec is None:
        return None
    return Instruction(word=word, spec=spec)


def decode(word: int) -> Instruction:
    """Decode *word* or raise :class:`IllegalInstructionError`."""
    instruction = try_decode(word)
    if instruction is None:
        raise IllegalInstructionError(word, _illegality_reason(word))
    return instruction


def is_legal(word: int) -> bool:
    """True when *word* decodes to a legal MIPS-I instruction.

    This is the candidate filter of the paper's filtering-only and
    filtering-and-ranking recovery strategies.
    """
    if not 0 <= word <= 0xFFFFFFFF:
        raise ValueError(f"instruction word 0x{word:x} is not 32 bits")
    return _spec_for_word(word) is not None


def mnemonic_of(word: int) -> str:
    """Return the mnemonic of a legal word (raises if illegal)."""
    return decode(word).mnemonic


def _illegality_reason(word: int) -> str:
    opcode = fields.opcode_of(word)
    if opcode not in LEGAL_OPCODES:
        return f"reserved opcode 0x{opcode:02x}"
    if opcode == SPECIAL_OPCODE:
        return f"reserved SPECIAL funct 0x{fields.funct_of(word):02x}"
    if opcode == REGIMM_OPCODE:
        return f"reserved REGIMM selector 0x{fields.rt_of(word):02x}"
    if opcode == COP1_OPCODE:
        fmt = fields.rs_of(word)
        if fmt not in COP1_FMTS:
            return f"reserved COP1 fmt 0x{fmt:02x}"
        return f"reserved COP1 funct 0x{fields.funct_of(word):02x}"
    return f"reserved coprocessor encoding under opcode 0x{opcode:02x}"
