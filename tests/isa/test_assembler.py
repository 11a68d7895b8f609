"""Tests for the two-pass assembler and pseudo-instruction expansion."""

from __future__ import annotations

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import assemble
from repro.isa.decoder import decode, mnemonic_of
from repro.isa.encoder import encode


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("addu $t0, $t1, $t2")
        assert program.words == [encode("addu", rd=8, rs=9, rt=10)]

    def test_comments_and_blank_lines_ignored(self):
        program = assemble(
            """
            # a comment
            addu $t0, $t1, $t2   # trailing comment

            """
        )
        assert len(program.words) == 1

    def test_memory_operands(self):
        program = assemble("lw $ra, 24($sp)\nsw $a0, -8($fp)")
        assert program.words[0] == 0x8FBF0018
        assert decode(program.words[1]).signed_immediate == -8

    def test_word_directive(self):
        program = assemble(".word 0xdeadbeef, 42")
        assert program.words == [0xDEADBEEF, 42]

    def test_shift_and_jump_register(self):
        program = assemble("sll $t0, $t0, 2\njr $ra\njalr $t9")
        assert mnemonic_of(program.words[0]) == "sll"
        assert decode(program.words[2]).rd == 31  # jalr default link reg

    def test_fp_instructions(self):
        program = assemble("add.s $f0, $f2, $f4\nc.eq.d $f6, $f8\nlwc1 $f4, 8($a0)")
        assert mnemonic_of(program.words[0]) == "add.s"
        assert mnemonic_of(program.words[1]) == "c.eq.d"
        assert decode(program.words[2]).rt == 4


class TestLabelsAndBranches:
    def test_backward_branch_offset(self):
        program = assemble(
            """
            loop:
                addiu $t0, $t0, -1
                bnez $t0, loop
            """
        )
        branch = decode(program.words[1])
        # Target = loop = pc+4 + offset*4 -> offset = -2.
        assert branch.signed_immediate == -2

    def test_forward_branch_offset(self):
        program = assemble(
            """
                beq $a0, $a1, done
                nop
                nop
            done:
                jr $ra
            """
        )
        assert decode(program.words[0]).signed_immediate == 2

    def test_jump_to_label(self):
        program = assemble(
            """
            main:
                j end
                nop
            end:
                jr $ra
            """,
            base_address=0x400000,
        )
        jump = decode(program.words[0])
        assert jump.target == (0x400008 >> 2)

    def test_label_on_same_line(self):
        program = assemble("start: addiu $v0, $zero, 1")
        assert program.labels["start"] == 0
        assert len(program.words) == 1

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError, match="duplicate label"):
            assemble("a:\na:\nnop")

    def test_unknown_branch_target_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("beq $a0, $a1, nowhere")

    def test_address_of(self):
        program = assemble("nop\nx: nop", base_address=0x100)
        assert program.address_of("x") == 0x104
        with pytest.raises(AssemblerError):
            program.address_of("missing")


class TestPseudoInstructions:
    def test_nop(self):
        assert assemble("nop").words == [0]

    def test_move(self):
        assert assemble("move $a0, $v0").words == [
            encode("addu", rd=4, rs=2, rt=0)
        ]

    def test_li_small_positive(self):
        assert assemble("li $t0, 42").words == [
            encode("addiu", rt=8, rs=0, imm=42)
        ]

    def test_li_negative(self):
        word = assemble("li $t0, -5").words[0]
        assert decode(word).signed_immediate == -5

    def test_li_16bit_unsigned(self):
        assert assemble("li $t0, 0xabcd").words == [
            encode("ori", rt=8, rs=0, imm=0xABCD)
        ]

    def test_li_32bit_expands_to_lui_ori(self):
        words = assemble("li $t0, 0x12345678").words
        assert len(words) == 2
        assert mnemonic_of(words[0]) == "lui"
        assert mnemonic_of(words[1]) == "ori"
        assert decode(words[0]).immediate == 0x1234
        assert decode(words[1]).immediate == 0x5678

    def test_li_expansion_keeps_labels_consistent(self):
        program = assemble(
            """
                li $t0, 0x12345678
            after:
                nop
            """
        )
        assert program.labels["after"] == 8  # li took two slots

    def test_branch_pseudos(self):
        program = assemble(
            """
            top:
                b top
                beqz $t0, top
                bnez $t1, top
            """
        )
        assert mnemonic_of(program.words[0]) == "beq"
        assert mnemonic_of(program.words[1]) == "beq"
        assert mnemonic_of(program.words[2]) == "bne"

    def test_neg_and_not(self):
        words = assemble("neg $t0, $t1\nnot $t2, $t3").words
        assert mnemonic_of(words[0]) == "sub"
        assert mnemonic_of(words[1]) == "nor"

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate $t0")


class TestOperandValidation:
    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError, match="expects"):
            assemble("addu $t0, $t1")

    @pytest.mark.parametrize("source", [
        "beqz", "bnez $t0", "neg $t0", "not $t0, $t1, $t2",
    ])
    def test_two_operand_pseudo_needs_two_operands(self, source):
        with pytest.raises(AssemblerError, match="needs 2 operands"):
            assemble(source)

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("addu $t0, $t1, $zz")

    def test_branch_offset_out_of_range(self):
        with pytest.raises(AssemblerError, match="out of 16-bit range"):
            assemble("beq $a0, $a1, 40000")

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError, match="bad memory operand"):
            assemble("lw $t0, t1")

    def test_misaligned_jump_rejected(self):
        with pytest.raises(AssemblerError, match="not aligned"):
            assemble("j 0x401")
