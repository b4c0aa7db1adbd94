"""What each machine binds at a pc's first fetch or execution, pinned per
table row and mode: the engine's fetch record (latch kind, plan, (X, R, M)
positions, serialize/hold/predict flags and stage handlers) and the
reference interpreter's record (handler and whether step() retires the
word before calling it). The nop rows cover the exit and print codes, and
one word that decodes to nothing covers the illegal record. The
interpreter's operand, which its table's per-row rule works out, is pinned
for every pc-relative and every immediate row in both modes.

The expected table was captured from the per-record dispatch that built
every record field by field, so a per-shape table must bind the same.
"""

import pytest

from kpusim import isa, pipeline
from kpusim.assembler import Image
from kpusim.codec import Codec
from kpusim.oracle import Interpreter
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF
PC = 0x4000
KINDS = {pipeline._PLAIN: "plain", pipeline._PREFIX: "prefix",
         pipeline._SEALED: "sealed", pipeline._ILLEGAL: "illegal"}
PLANS = {pipeline.SHORT: "short", pipeline.LONG_A: "A", pipeline.LONG_B: "B"}


def _words():
    """(label, word): every table row with zero operands, the three nop
    codes the machines tell apart, and an undecodable word."""
    words = []
    for row in isa.TABLE:
        fields = {name: 0 for name, *_ in row.fields}
        words.append((row.mnemonic, isa.encode(isa.instruction(
            row.mnemonic, **fields))))
    words += [("l.nop %d" % code, isa.encode(isa.instruction("l.nop",
                                                             imm=code)))
              for code in (1, 2)]
    words.append(("undecodable", 0xFFFFFFFF))
    return words


def _name(handler):
    return handler and handler.__name__


def _dispatch(word, mode):
    image = Image(entry=PC, mode=mode, text={PC: word})
    engine = Engine(image, Codec(KEY))
    record = engine._record(PC, engine.state.mode)
    handler, _, _, plain = Interpreter(image, Codec(KEY))._record(PC)
    return (KINDS[record.kind], PLANS[record.plan], record.positions,
            record.serialize, record.holds, record.predicted,
            _name(record.execute), _name(record.memory), _name(record.retire),
            _name(handler), plain)


# (label, mode) -> (kind, plan, (X, R, M), serialize, holds, predicted,
# execute, memory, retire, oracle handler, oracle plain)
EXPECTED = {
    ("l.j", "user"): ("plain", "A", (3, 2, -1), False, False, True,
        "_ex_jump", None, None, "_jump", True),
    ("l.jal", "user"): ("plain", "A", (3, 2, -1), False, False, True,
        "_ex_jump", None, "_retire_link", "_jump", True),
    ("l.bnf", "user"): ("plain", "A", (3, 2, -1), False, False, True,
        "_ex_branch", None, None, "_branch", True),
    ("l.bf", "user"): ("plain", "A", (3, 2, -1), False, False, True,
        "_ex_branch", None, None, "_branch", True),
    ("l.nop", "user"): ("plain", "A", (-1, 2, -1), False, False, False,
        None, None, None, "_nop", True),
    ("l.prefix", "user"): ("prefix", "A", (-1, 2, -1), False, False, False,
        None, None, None, "_prefix", False),
    ("l.sys", "user"): ("plain", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_sys", "_sys", True),
    ("l.rfe", "user"): ("illegal", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_illegal", "_illegal", False),
    ("l.jr", "user"): ("plain", "A", (3, 2, -1), False, False, True,
        "_ex_jump_register", None, None, "_jump", True),
    ("l.jalr", "user"): ("plain", "A", (3, 2, -1), False, False, True,
        "_ex_jump_register", None, "_retire_link", "_jump", True),
    ("l.lwz", "user"): ("plain", "A", (3, 2, 4), False, False, False,
        "_ex_address_user", "_mem_load_user", "_retire_write", "_user_load",
        True),
    ("l.addi", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.andi", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.ori", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.xori", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.muli", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.mfspr", "user"): ("plain", "A", (3, 2, -1), True, False, False,
        "_ex_mfspr_user", None, "_retire_write", "_mfspr", True),
    ("l.slli", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.srli", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.srai", "user"): ("sealed", "B", (13, 12, -1), False, False, False,
        "_ex_immediate_user", None, "_retire_alu", "_sealed_immediate", False),
    ("l.mtspr", "user"): ("plain", "A", (-1, 2, -1), True, False, False,
        None, None, None, "_mtspr", True),
    ("l.sw", "user"): ("plain", "A", (3, 2, 4), False, False, False,
        "_ex_address_user", "_mem_store_user", None, "_user_store", True),
    ("l.add", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.sub", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.and", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.or", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.xor", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.mul", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.divu", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.sll", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.srl", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.sra", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_alu_user", None, "_retire_alu", "_register", True),
    ("l.sfeq", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfne", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfgts", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfges", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sflts", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfles", "user"): ("plain", "A", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.ld", "user"): ("illegal", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_illegal", "_illegal", False),
    ("l.sd", "user"): ("illegal", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_illegal", "_illegal", False),
    ("l.add64", "user"): ("illegal", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_illegal", "_illegal", False),
    ("l.nop 1", "user"): ("plain", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_exit", "_nop", True),
    ("l.nop 2", "user"): ("plain", "A", (-1, 2, -1), False, False, False,
        None, None, "_retire_print", "_nop", True),
    ("undecodable", "user"): ("illegal", "A", (-1, 2, -1), False, True, False,
        None, None, "_retire_illegal", "_illegal", False),
    ("l.j", "super"): ("plain", "short", (3, 2, -1), False, False, True,
        "_ex_jump", None, None, "_jump", True),
    ("l.jal", "super"): ("plain", "short", (3, 2, -1), False, False, True,
        "_ex_jump", None, "_retire_link", "_jump", True),
    ("l.bnf", "super"): ("plain", "short", (3, 2, -1), False, False, True,
        "_ex_branch", None, None, "_branch", True),
    ("l.bf", "super"): ("plain", "short", (3, 2, -1), False, False, True,
        "_ex_branch", None, None, "_branch", True),
    ("l.nop", "super"): ("plain", "short", (-1, 2, -1), False, False, False,
        None, None, None, "_nop", True),
    ("l.prefix", "super"): ("prefix", "short", (-1, 2, -1), False, False,
        False, None, None, None, "_prefix", False),
    ("l.sys", "super"): ("plain", "short", (-1, 2, -1), False, True, False,
        None, None, "_retire_sys", "_sys", True),
    ("l.rfe", "super"): ("plain", "short", (-1, 2, -1), False, True, False,
        None, None, "_retire_rfe", "_rfe", True),
    ("l.jr", "super"): ("plain", "short", (3, 2, -1), False, False, True,
        "_ex_jump_register", None, None, "_jump", True),
    ("l.jalr", "super"): ("plain", "short", (3, 2, -1), False, False, True,
        "_ex_jump_register", None, "_retire_link", "_jump", True),
    ("l.lwz", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_address", "_mem_load", "_retire_write", "_load", True),
    ("l.addi", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.andi", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.ori", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.xori", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.muli", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.mfspr", "super"): ("plain", "short", (3, 2, -1), True, False, False,
        "_ex_mfspr", None, "_retire_write", "_mfspr", True),
    ("l.slli", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.srli", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.srai", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_immediate", None, "_retire_alu", "_immediate", True),
    ("l.mtspr", "super"): ("plain", "short", (3, 2, -1), True, False, False,
        "_ex_mtspr", None, None, "_mtspr", True),
    ("l.sw", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_address", "_mem_store", None, "_store", True),
    ("l.add", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.sub", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.and", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.or", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.xor", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.mul", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.divu", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.sll", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.srl", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.sra", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_alu", None, "_retire_alu", "_register", True),
    ("l.sfeq", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfne", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfgts", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfges", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sflts", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.sfles", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_set_flag", None, "_retire_flag", "_set_flag", True),
    ("l.ld", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_address", "_mem_load64", "_retire_write", "_class64", True),
    ("l.sd", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_address", "_mem_store64", None, "_class64", True),
    ("l.add64", "super"): ("plain", "short", (3, 2, -1), False, False, False,
        "_ex_add64", None, "_retire_write", "_class64", True),
    ("l.nop 1", "super"): ("plain", "short", (-1, 2, -1), False, True, False,
        None, None, "_retire_exit", "_nop", True),
    ("l.nop 2", "super"): ("plain", "short", (-1, 2, -1), False, False, False,
        None, None, "_retire_print", "_nop", True),
    ("undecodable", "super"): ("illegal", "short", (-1, 2, -1), False, True,
        False, None, None, "_retire_illegal", "_illegal", False),
}


@pytest.mark.parametrize("mode", ["user", "super"])
def test_dispatch_matches_the_pinned_table(mode):
    got = {(label, mode): _dispatch(word, mode) for label, word in _words()}
    want = {key: value for key, value in EXPECTED.items() if key[1] == mode}
    assert got == want


MASK32 = 0xFFFFFFFF
# pc-relative row -> its oracle operand, given the target
RELATIVE_OPERANDS = {"l.bf": lambda target: (True, target),
                     "l.bnf": lambda target: (False, target),
                     "l.j": lambda target: target,
                     "l.jal": lambda target: target}


def _oracle_operand(word, mode):
    image = Image(entry=PC, mode=mode, text={PC: word})
    return Interpreter(image, Codec(KEY))._record(PC)[2]


@pytest.mark.parametrize("mode", ["user", "super"])
@pytest.mark.parametrize("offset", [5, -3, -(1 << 25)])
def test_oracle_operand_of_each_pc_relative_row(mode, offset):
    # a branch carries (taken on a set flag, target), a direct jump its
    # target; an offset below the pc wraps to 32 bits
    assert set(RELATIVE_OPERANDS) == isa.PC_RELATIVE
    target = (PC + 4 * offset) & MASK32
    for mnemonic, operand in RELATIVE_OPERANDS.items():
        word = isa.encode(isa.instruction(mnemonic, imm=offset))
        assert _oracle_operand(word, mode) == operand(target), mnemonic


@pytest.mark.parametrize("row", [row for row in isa.TABLE
                                 if row.cls is isa.InstrClass.IMMEDIATE],
                         ids=lambda row: row.mnemonic)
def test_oracle_operand_of_each_immediate_row(row):
    # user mode: (ALU op, the sealed word step() opens with the latch);
    # supervisor mode: (ALU op, the immediate as 32 bits)
    _, _, _, _, low, high, _ = next(f for f in row.fields if f[0] == "imm")
    op = isa.IMM_ALU_OP[row.mnemonic]
    for imm in (low, high - 1, 1):
        word = isa.encode(isa.instruction(row.mnemonic, rd=3, ra=4, imm=imm))
        assert _oracle_operand(word, "user") == (op, word)
        assert _oracle_operand(word, "super") == (op, imm & MASK32)
