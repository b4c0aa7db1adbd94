"""Instruction set: encoding table, decode/encode, and the decode-side
rules both executors share.

Every instruction is one 32-bit word with the opcode in bits [31:26].
Fields that the table does not assign must be zero; any word that violates
that, or names an unassigned opcode/sub-operation, raises IllegalOpcode so
that decoding is total over the 32-bit space.

The pipeline and the reference interpreter read the same predecoded text
table, the same immediate-to-ALU mapping, the same prefix latch and the
same user-mode legality rule from here, so the two can differ only in how
they execute.
"""

from dataclasses import dataclass
from enum import Enum


MASK32 = 0xFFFFFFFF


class IllegalOpcode(Exception):
    """Word does not decode to any instruction."""

    def __init__(self, word, reason=""):
        self.word = word
        msg = "illegal instruction word 0x%08x" % (word & MASK32)
        if reason:
            msg += " (%s)" % reason
        super().__init__(msg)


class OperandOutOfRange(Exception):
    """Operand does not fit its encoding field."""


class MissingPrefix(Exception):
    """Immediate-class instruction arrived in user mode with no full latch."""


class InstrClass(Enum):
    REGISTER = "register"
    IMMEDIATE = "immediate"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    NOP = "no-op"
    PREFIX = "prefix"
    SPR = "mf/tspr"
    SYSTRAP = "sys/trap"
    CLASS64 = "64-bit"


# Primary opcodes (bits [31:26]).
OP_J = 0x00
OP_JAL = 0x01
OP_BNF = 0x03
OP_BF = 0x04
OP_NOP = 0x05
OP_PREFIX = 0x06
OP_SYS = 0x08
OP_RFE = 0x09
OP_JR = 0x11
OP_JALR = 0x12
OP_LWZ = 0x21
OP_ADDI = 0x27
OP_ANDI = 0x29
OP_ORI = 0x2A
OP_XORI = 0x2B
OP_MULI = 0x2C
OP_MFSPR = 0x2D
OP_SHIFTI = 0x2E
OP_MTSPR = 0x30
OP_SW = 0x35
OP_ALU = 0x38
OP_SF = 0x39
OP_C64 = 0x3C

# funct codes for OP_ALU (bits [3:0]).
ALU_ADD, ALU_SUB, ALU_AND, ALU_OR, ALU_XOR = 0, 1, 2, 3, 4
ALU_MUL, ALU_DIVU, ALU_SLL, ALU_SRL, ALU_SRA = 5, 6, 7, 8, 9
ALU_FUNCT_NAMES = {
    ALU_ADD: "l.add", ALU_SUB: "l.sub", ALU_AND: "l.and", ALU_OR: "l.or",
    ALU_XOR: "l.xor", ALU_MUL: "l.mul", ALU_DIVU: "l.divu",
    ALU_SLL: "l.sll", ALU_SRL: "l.srl", ALU_SRA: "l.sra",
}

# sub codes for OP_SHIFTI (bits [15:14]); 3 is unassigned.
SHIFT_SLL, SHIFT_SRL, SHIFT_SRA = 0, 1, 2
SHIFTI_NAMES = {SHIFT_SLL: "l.slli", SHIFT_SRL: "l.srli", SHIFT_SRA: "l.srai"}

# sub codes for OP_SF (bits [25:21]); all comparisons signed where it matters.
SF_EQ, SF_NE, SF_GTS, SF_GES, SF_LTS, SF_LES = 0, 1, 2, 3, 4, 5
SF_NAMES = {
    SF_EQ: "l.sfeq", SF_NE: "l.sfne", SF_GTS: "l.sfgts",
    SF_GES: "l.sfges", SF_LTS: "l.sflts", SF_LES: "l.sfles",
}

# funct codes for OP_C64 (bits [3:0]): supervisor-only 64-bit data ops.
C64_LD, C64_SD, C64_ADD = 0, 1, 2
C64_NAMES = {C64_LD: "l.ld", C64_SD: "l.sd", C64_ADD: "l.add64"}

IMM_SIGNED_OPS = {OP_ADDI, OP_MULI, OP_XORI}
IMM_UNSIGNED_OPS = {OP_ANDI, OP_ORI}

# ALU operation of each immediate-class mnemonic, as an ALU_* funct code.
IMM_ALU_OP = {
    "l.addi": ALU_ADD, "l.andi": ALU_AND, "l.ori": ALU_OR, "l.xori": ALU_XOR,
    "l.muli": ALU_MUL, "l.slli": ALU_SLL, "l.srli": ALU_SRL, "l.srai": ALU_SRA,
}


@dataclass(frozen=True)
class Instruction:
    """Decoded instruction. Unused fields are None.

    imm holds the semantic value: sign-extended for signed fields, raw for
    unsigned ones, the word offset for branches/jumps, the data field for
    shift-immediates.
    """

    opcode: int
    mnemonic: str
    cls: InstrClass
    rd: int | None = None
    ra: int | None = None
    rb: int | None = None
    imm: int | None = None
    funct: int | None = None
    prefix_idx: int | None = None
    prefix_payload: int | None = None


def _sext(value, bits):
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _check_zero(word, mask, what):
    if word & mask:
        raise IllegalOpcode(word, "nonzero %s field" % what)


def decode(word):
    """Decode one 32-bit word or raise IllegalOpcode."""
    word &= MASK32
    op = word >> 26
    rd = (word >> 21) & 0x1F
    ra = (word >> 16) & 0x1F
    rb = (word >> 11) & 0x1F
    imm16 = word & 0xFFFF

    if op in (OP_J, OP_JAL, OP_BNF, OP_BF):
        n26 = _sext(word & 0x03FFFFFF, 26)
        names = {OP_J: "l.j", OP_JAL: "l.jal", OP_BNF: "l.bnf", OP_BF: "l.bf"}
        cls = InstrClass.JUMP if op in (OP_J, OP_JAL) else InstrClass.BRANCH
        return Instruction(op, names[op], cls, imm=n26)
    if op == OP_NOP:
        # canonical nop words carry a fixed one in bit 24 (top byte 0x15)
        if not word & 0x01000000:
            raise IllegalOpcode(word, "nop without its fixed bit")
        _check_zero(word, 0x02FF0000, "reserved")
        return Instruction(op, "l.nop", InstrClass.NOP, imm=imm16)
    if op == OP_PREFIX:
        _check_zero(word, 0x02000000, "reserved")
        return Instruction(op, "l.prefix", InstrClass.PREFIX,
                           prefix_idx=(word >> 24) & 1,
                           prefix_payload=word & 0x00FFFFFF)
    if op == OP_SYS:
        _check_zero(word, 0x03FF0000, "reserved")
        return Instruction(op, "l.sys", InstrClass.SYSTRAP, imm=imm16)
    if op == OP_RFE:
        _check_zero(word, 0x03FFFFFF, "reserved")
        return Instruction(op, "l.rfe", InstrClass.SYSTRAP)
    if op in (OP_JR, OP_JALR):
        _check_zero(word, 0x03FF07FF, "reserved")
        name = "l.jr" if op == OP_JR else "l.jalr"
        return Instruction(op, name, InstrClass.JUMP, rb=rb)
    if op == OP_LWZ:
        return Instruction(op, "l.lwz", InstrClass.LOAD, rd=rd, ra=ra,
                           imm=_sext(imm16, 16))
    if op in (OP_ADDI, OP_MULI, OP_XORI):
        names = {OP_ADDI: "l.addi", OP_MULI: "l.muli", OP_XORI: "l.xori"}
        return Instruction(op, names[op], InstrClass.IMMEDIATE, rd=rd, ra=ra,
                           imm=_sext(imm16, 16))
    if op in (OP_ANDI, OP_ORI):
        name = "l.andi" if op == OP_ANDI else "l.ori"
        return Instruction(op, name, InstrClass.IMMEDIATE, rd=rd, ra=ra,
                           imm=imm16)
    if op == OP_SHIFTI:
        sub = (imm16 >> 14) & 3
        if sub == 3:
            raise IllegalOpcode(word, "shift-immediate sub-op 3")
        return Instruction(op, SHIFTI_NAMES[sub], InstrClass.IMMEDIATE,
                           rd=rd, ra=ra, imm=imm16 & 0x3FFF, funct=sub)
    if op == OP_MFSPR:
        return Instruction(op, "l.mfspr", InstrClass.SPR, rd=rd, ra=ra,
                           imm=imm16)
    if op == OP_MTSPR:
        k = (rd << 11) | (word & 0x7FF)
        return Instruction(op, "l.mtspr", InstrClass.SPR, ra=ra, rb=rb, imm=k)
    if op == OP_SW:
        simm = _sext((rd << 11) | (word & 0x7FF), 16)
        return Instruction(op, "l.sw", InstrClass.STORE, ra=ra, rb=rb,
                           imm=simm)
    if op == OP_ALU:
        funct = word & 0xF
        if funct not in ALU_FUNCT_NAMES:
            raise IllegalOpcode(word, "ALU funct %d" % funct)
        _check_zero(word, 0x000007F0, "reserved")
        return Instruction(op, ALU_FUNCT_NAMES[funct], InstrClass.REGISTER,
                           rd=rd, ra=ra, rb=rb, funct=funct)
    if op == OP_SF:
        if rd not in SF_NAMES:
            raise IllegalOpcode(word, "set-flag sub-op %d" % rd)
        _check_zero(word, 0x000007FF, "reserved")
        return Instruction(op, SF_NAMES[rd], InstrClass.REGISTER,
                           ra=ra, rb=rb, funct=rd)
    if op == OP_C64:
        funct = word & 0xF
        if funct == C64_LD:
            _check_zero(word, 0x00008000, "reserved")
            return Instruction(op, "l.ld", InstrClass.CLASS64, rd=rd, ra=ra,
                               imm=_sext((word >> 4) & 0x7FF, 11), funct=funct)
        if funct == C64_SD:
            _check_zero(word, 0x00000400, "reserved")
            simm = _sext((rd << 6) | ((word >> 4) & 0x3F), 11)
            return Instruction(op, "l.sd", InstrClass.CLASS64, ra=ra, rb=rb,
                               imm=simm, funct=funct)
        if funct == C64_ADD:
            _check_zero(word, 0x000007F0, "reserved")
            return Instruction(op, "l.add64", InstrClass.CLASS64,
                               rd=rd, ra=ra, rb=rb, funct=funct)
        raise IllegalOpcode(word, "64-bit funct %d" % funct)

    raise IllegalOpcode(word, "opcode 0x%02x" % op)


def _field(value, lo, width, what):
    if not 0 <= value < (1 << width):
        raise OperandOutOfRange("%s %d does not fit %d bits" % (what, value, width))
    return value << lo


def _sfield(value, lo, width, what):
    lim = 1 << (width - 1)
    if not -lim <= value < lim:
        raise OperandOutOfRange("%s %d does not fit signed %d bits" % (what, value, width))
    return (value & ((1 << width) - 1)) << lo


def encode(instr):
    """Encode an Instruction back to its 32-bit word."""
    op = instr.opcode
    w = op << 26
    if op in (OP_J, OP_JAL, OP_BNF, OP_BF):
        return w | _sfield(instr.imm, 0, 26, "word offset")
    if op == OP_NOP:
        return w | 0x01000000 | _field(instr.imm, 0, 16, "k")
    if op == OP_SYS:
        return w | _field(instr.imm, 0, 16, "k")
    if op == OP_PREFIX:
        return (w | _field(instr.prefix_idx, 24, 1, "prefix index")
                | _field(instr.prefix_payload, 0, 24, "prefix payload"))
    if op == OP_RFE:
        return w
    if op in (OP_JR, OP_JALR):
        return w | _field(instr.rb, 11, 5, "rB")
    if op == OP_LWZ or op in (OP_ADDI, OP_MULI, OP_XORI):
        return (w | _field(instr.rd, 21, 5, "rD") | _field(instr.ra, 16, 5, "rA")
                | _sfield(instr.imm, 0, 16, "immediate"))
    if op in (OP_ANDI, OP_ORI):
        return (w | _field(instr.rd, 21, 5, "rD") | _field(instr.ra, 16, 5, "rA")
                | _field(instr.imm, 0, 16, "immediate"))
    if op == OP_SHIFTI:
        return (w | _field(instr.rd, 21, 5, "rD") | _field(instr.ra, 16, 5, "rA")
                | _field(instr.funct, 14, 2, "shift sub-op")
                | _field(instr.imm, 0, 14, "shift data"))
    if op == OP_MFSPR:
        return (w | _field(instr.rd, 21, 5, "rD") | _field(instr.ra, 16, 5, "rA")
                | _field(instr.imm, 0, 16, "spr index"))
    if op == OP_MTSPR:
        k = instr.imm
        if not 0 <= k < (1 << 16):
            raise OperandOutOfRange("spr index %d does not fit 16 bits" % k)
        return (w | ((k >> 11) << 21) | _field(instr.ra, 16, 5, "rA")
                | _field(instr.rb, 11, 5, "rB") | (k & 0x7FF))
    if op == OP_SW:
        lim = 1 << 15
        if not -lim <= instr.imm < lim:
            raise OperandOutOfRange("store offset %d does not fit signed 16 bits" % instr.imm)
        enc = instr.imm & 0xFFFF
        return (w | ((enc >> 11) << 21) | _field(instr.ra, 16, 5, "rA")
                | _field(instr.rb, 11, 5, "rB") | (enc & 0x7FF))
    if op == OP_ALU:
        return (w | _field(instr.rd, 21, 5, "rD") | _field(instr.ra, 16, 5, "rA")
                | _field(instr.rb, 11, 5, "rB") | _field(instr.funct, 0, 4, "funct"))
    if op == OP_SF:
        return (w | _field(instr.funct, 21, 5, "sub-op")
                | _field(instr.ra, 16, 5, "rA") | _field(instr.rb, 11, 5, "rB"))
    if op == OP_C64:
        if instr.funct == C64_LD:
            return (w | _field(instr.rd, 21, 5, "rD")
                    | _field(instr.ra, 16, 5, "rA")
                    | _sfield(instr.imm, 4, 11, "offset") | C64_LD)
        if instr.funct == C64_SD:
            lim = 1 << 10
            if not -lim <= instr.imm < lim:
                raise OperandOutOfRange("offset %d does not fit signed 11 bits" % instr.imm)
            enc = instr.imm & 0x7FF
            return (w | ((enc >> 6) << 21) | _field(instr.ra, 16, 5, "rA")
                    | _field(instr.rb, 11, 5, "rB") | ((enc & 0x3F) << 4) | C64_SD)
        if instr.funct == C64_ADD:
            return (w | _field(instr.rd, 21, 5, "rD")
                    | _field(instr.ra, 16, 5, "rA")
                    | _field(instr.rb, 11, 5, "rB") | C64_ADD)
    raise OperandOutOfRange("cannot encode opcode 0x%02x" % op)


def predecode(text):
    """Decode a text image once: {pc: (word, Instruction)}, with None in
    place of the Instruction for a word that does not decode."""
    table = {}
    for pc, word in text.items():
        try:
            table[pc] = (word, decode(word))
        except IllegalOpcode:
            table[pc] = (word, None)
    return table


def user_illegal(instr):
    """True for an instruction user mode may not execute."""
    return instr.cls is InstrClass.CLASS64 or instr.mnemonic == "l.rfe"


class PrefixLatch:
    """Decode-side latch holding the two prefix payloads of a 64-bit
    encrypted immediate until the immediate-class instruction arrives."""

    def __init__(self):
        self.p0 = None
        self.p1 = None

    def clear(self):
        self.p0 = None
        self.p1 = None

    def feed(self, idx, payload):
        if idx == 0:
            self.p0 = payload
            self.p1 = None
        elif self.p0 is not None and self.p1 is None:
            self.p1 = payload
        else:
            self.clear()

    @property
    def full(self):
        return self.p0 is not None and self.p1 is not None


def consume_prefixes(latch, imm16):
    """Reassemble the 64-bit encrypted immediate and clear the latch."""
    if not latch.full:
        raise MissingPrefix("immediate-class instruction without prefix pair")
    value = (latch.p0 << 40) | (latch.p1 << 16) | (imm16 & 0xFFFF)
    latch.clear()
    return value


def format_instruction(instr):
    """Human-readable rendering, assembler syntax."""
    m = instr.mnemonic
    if m in ("l.j", "l.jal", "l.bnf", "l.bf"):
        return "%s %d" % (m, instr.imm)
    if m == "l.nop":
        return "l.nop %d" % instr.imm if instr.imm else "l.nop"
    if m == "l.prefix":
        return "l.prefix %d,0x%06x" % (instr.prefix_idx, instr.prefix_payload)
    if m == "l.sys":
        return "l.sys %d" % instr.imm
    if m == "l.rfe":
        return "l.rfe"
    if m in ("l.jr", "l.jalr"):
        return "%s r%d" % (m, instr.rb)
    if m in ("l.lwz", "l.ld"):
        return "%s r%d,%d(r%d)" % (m, instr.rd, instr.imm, instr.ra)
    if m in ("l.sw", "l.sd"):
        return "%s %d(r%d),r%d" % (m, instr.imm, instr.ra, instr.rb)
    if m == "l.mfspr":
        return "l.mfspr r%d,r%d,%d" % (instr.rd, instr.ra, instr.imm)
    if m == "l.mtspr":
        return "l.mtspr r%d,r%d,%d" % (instr.ra, instr.rb, instr.imm)
    if instr.cls is InstrClass.IMMEDIATE:
        return "%s r%d,r%d,%d" % (m, instr.rd, instr.ra, instr.imm)
    if instr.opcode == OP_SF:
        return "%s r%d,r%d" % (m, instr.ra, instr.rb)
    return "%s r%d,r%d,r%d" % (m, instr.rd, instr.ra, instr.rb)
