"""Instruction set: one table row per mnemonic, which decode, the one
encoder (encode_fields) and the assembler all read, and the decode-side
rules both executors share.

Every instruction is one 32-bit word with the opcode in bits [31:26]; four
opcodes also hold a sub-operation in a selector field. A word decodes only
when its opcode and selector name a row and every bit outside them and the
row's operand fields equals the row's fixed bits. Any other word raises
IllegalOpcode, so decoding is total over the 32-bit space and every decoded
word re-encodes to itself. decode reaches a word's row in one step, through
a table indexed by opcode and then sub-op, and reads each operand field
with one shift and mask from flat entries the row works out once; only the
split immediates of l.mtspr, l.sw and l.sd join their pieces in a loop.

The pipeline and the reference interpreter decode text words with the same
decode_at, and read the same immediate-to-ALU mapping, the same prefix
latch, the same pc-relative and linking sets and the same user-mode
legality rule from here, so the two can differ only in how they execute.
"""

from enum import Enum

from . import alu
from .codec import MASK32


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
    # Identity hash, in C: the engine counts every retired instruction in a
    # dict keyed by class, and Enum's own __hash__ is a Python call. No set
    # of classes is iterated, so no order depends on it.
    __hash__ = object.__hash__

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

# Selector field (lo, mask) of each opcode that holds a sub-operation.
SELECTORS = {OP_SHIFTI: (14, 0x3), OP_ALU: (0, 0xF), OP_SF: (21, 0x1F),
             OP_C64: (0, 0xF)}

# Sub-operations: funct codes for OP_C64, shift kinds for OP_SHIFTI (3 is
# unassigned); OP_ALU and OP_SF hold alu.OP_* ids and alu.SF_* comparisons,
# which both machines pass straight to the ALU.
SHIFT_SLL, SHIFT_SRL, SHIFT_SRA = 0, 1, 2
C64_LD, C64_SD, C64_ADD = 0, 1, 2

# ALU operation of each immediate-class mnemonic, as an alu.OP_* id.
IMM_ALU_OP = {
    "l.addi": alu.OP_ADD, "l.andi": alu.OP_AND, "l.ori": alu.OP_OR,
    "l.xori": alu.OP_XOR, "l.muli": alu.OP_MUL, "l.slli": alu.OP_SLL,
    "l.srli": alu.OP_SRL, "l.srai": alu.OP_SRA,
}


class Slotted:
    """Base of kpusim's value classes, which list their fields in
    __slots__: two are equal when they are of one class and every field
    is equal, the repr names each field, and, being mutable, they have no
    hash."""

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self.__slots__, self._fields())))


class Instruction(Slotted):
    """Decoded instruction. Unused fields are None.

    imm holds the semantic value: sign-extended for signed fields, raw for
    unsigned ones, the word offset for branches/jumps, the data field for
    shift-immediates. funct is the sub-operation of an opcode that has a
    selector.

    Nothing writes to an Instruction after decode: both machines keep the
    one decode builds for a pc in their records and read it every time the
    pc is fetched again. It is not frozen, because freezing would cost an
    object.__setattr__ call per field on every decode.
    """

    __slots__ = ("opcode", "mnemonic", "cls", "rd", "ra", "rb", "imm",
                 "funct", "prefix_idx", "prefix_payload")

    def __init__(self, opcode, mnemonic, cls, rd=None, ra=None, rb=None,
                 imm=None, funct=None, prefix_idx=None, prefix_payload=None):
        self.opcode = opcode
        self.mnemonic = mnemonic
        self.cls = cls
        self.rd = rd
        self.ra = ra
        self.rb = rb
        self.imm = imm
        self.funct = funct
        self.prefix_idx = prefix_idx
        self.prefix_payload = prefix_payload


# position of each Instruction field among the constructor's arguments
_SLOT = {name: i for i, name in enumerate(Instruction.__slots__)}


class Row:
    """One mnemonic of the instruction table.

    The `fields` argument lists (name, signed, (lo, width), ...): an
    Instruction field and its word bits, most significant piece first.
    The shifts, masks and value limits decode and encode need are worked
    out here once: encode_fields reads `fields`, decode `flat`, a (slot,
    lo, mask, sign) entry per one-piece field, and `split`, a (slot,
    pieces, sign) entry per split immediate (l.mtspr, l.sw, l.sd).
    `tokens` are the operands of `syntax`, in source order.
    """

    __slots__ = ("mnemonic", "opcode", "cls", "syntax", "tokens", "funct",
                 "fields", "flat", "split", "base", "fixed_mask", "fixed",
                 "masks", "template")

    def __init__(self, mnemonic, opcode, cls, syntax, fields=(), funct=None,
                 fixed=0):
        self.mnemonic = mnemonic
        self.opcode = opcode
        self.cls = cls
        self.syntax = syntax
        self.tokens = tuple(syntax.split(",")) if syntax else ()
        self.funct = funct
        used = 0x3F << 26
        self.base = (opcode << 26) | fixed
        if funct is not None:
            lo, mask = SELECTORS[opcode]
            used |= mask << lo
            self.base |= funct << lo
        self.masks = {}
        compiled, flat, split = [], [], []
        for name, signed, *pieces in fields:
            width = sum(w for _, w in pieces)
            steps, mask, at = [], 0, width
            for lo, w in pieces:
                at -= w
                steps.append((lo, (1 << w) - 1, at))
                mask |= ((1 << w) - 1) << lo
            self.masks[name] = mask
            used |= mask
            sign = 1 << (width - 1) if signed else 0
            low, high = (-sign, sign) if signed else (0, 1 << width)
            # a piece is (lo, mask, its shift within the value)
            compiled.append((name, _SLOT[name], tuple(steps), sign, low, high,
                             "%s%d bits" % ("signed " if signed else "", width)))
            if len(steps) == 1:
                flat.append((_SLOT[name], steps[0][0], steps[0][1], sign))
            else:
                split.append((_SLOT[name], tuple(steps), sign))
        self.fields = tuple(compiled)
        self.flat, self.split = tuple(flat), tuple(split)
        self.template = [None] * len(_SLOT)
        self.template[:3] = opcode, mnemonic, cls
        self.template[_SLOT["funct"]] = funct
        self.fixed_mask = ~used & MASK32
        self.fixed = fixed


_RD = ("rd", False, (21, 5))
_RA = ("ra", False, (16, 5))
_RB = ("rb", False, (11, 5))
_RRR = (_RD, _RA, _RB)
_RR = (_RA, _RB)
_OFFSET = (("imm", True, (0, 26)),)                  # word offset from pc
_RI_SIGNED = (_RD, _RA, ("imm", True, (0, 16)))
_RI_UNSIGNED = (_RD, _RA, ("imm", False, (0, 16)))
_RI_SHIFT = (_RD, _RA, ("imm", False, (0, 14)))
_K16 = (("imm", False, (0, 16)),)

_C = InstrClass
TABLE = (
    Row("l.j", OP_J, _C.JUMP, "@imm", _OFFSET),
    Row("l.jal", OP_JAL, _C.JUMP, "@imm", _OFFSET),
    Row("l.bnf", OP_BNF, _C.BRANCH, "@imm", _OFFSET),
    Row("l.bf", OP_BF, _C.BRANCH, "@imm", _OFFSET),
    # canonical nop words carry a fixed one in bit 24 (top byte 0x15)
    Row("l.nop", OP_NOP, _C.NOP, "imm?", _K16, fixed=1 << 24),
    Row("l.prefix", OP_PREFIX, _C.PREFIX, "prefix_idx,prefix_payload",
        (("prefix_idx", False, (24, 1)), ("prefix_payload", False, (0, 24)))),
    Row("l.sys", OP_SYS, _C.SYSTRAP, "imm?", _K16),
    Row("l.rfe", OP_RFE, _C.SYSTRAP, ""),
    Row("l.jr", OP_JR, _C.JUMP, "rb", (_RB,)),
    Row("l.jalr", OP_JALR, _C.JUMP, "rb", (_RB,)),
    Row("l.lwz", OP_LWZ, _C.LOAD, "rd,imm(ra)", _RI_SIGNED),
    Row("l.addi", OP_ADDI, _C.IMMEDIATE, "rd,ra,imm", _RI_SIGNED),
    Row("l.andi", OP_ANDI, _C.IMMEDIATE, "rd,ra,imm", _RI_UNSIGNED),
    Row("l.ori", OP_ORI, _C.IMMEDIATE, "rd,ra,imm", _RI_UNSIGNED),
    Row("l.xori", OP_XORI, _C.IMMEDIATE, "rd,ra,imm", _RI_SIGNED),
    Row("l.muli", OP_MULI, _C.IMMEDIATE, "rd,ra,imm", _RI_SIGNED),
    Row("l.mfspr", OP_MFSPR, _C.SPR, "rd,ra,imm", _RI_UNSIGNED),
    Row("l.slli", OP_SHIFTI, _C.IMMEDIATE, "rd,ra,imm", _RI_SHIFT, SHIFT_SLL),
    Row("l.srli", OP_SHIFTI, _C.IMMEDIATE, "rd,ra,imm", _RI_SHIFT, SHIFT_SRL),
    Row("l.srai", OP_SHIFTI, _C.IMMEDIATE, "rd,ra,imm", _RI_SHIFT, SHIFT_SRA),
    Row("l.mtspr", OP_MTSPR, _C.SPR, "ra,rb,imm",
        _RR + (("imm", False, (21, 5), (0, 11)),)),
    Row("l.sw", OP_SW, _C.STORE, "imm(ra),rb",
        _RR + (("imm", True, (21, 5), (0, 11)),)),
    Row("l.add", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_ADD),
    Row("l.sub", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_SUB),
    Row("l.and", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_AND),
    Row("l.or", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_OR),
    Row("l.xor", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_XOR),
    Row("l.mul", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_MUL),
    Row("l.divu", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_DIVU),
    Row("l.sll", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_SLL),
    Row("l.srl", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_SRL),
    Row("l.sra", OP_ALU, _C.REGISTER, "rd,ra,rb", _RRR, alu.OP_SRA),
    Row("l.sfeq", OP_SF, _C.REGISTER, "ra,rb", _RR, alu.SF_EQ),
    Row("l.sfne", OP_SF, _C.REGISTER, "ra,rb", _RR, alu.SF_NE),
    Row("l.sfgts", OP_SF, _C.REGISTER, "ra,rb", _RR, alu.SF_GTS),
    Row("l.sfges", OP_SF, _C.REGISTER, "ra,rb", _RR, alu.SF_GES),
    Row("l.sflts", OP_SF, _C.REGISTER, "ra,rb", _RR, alu.SF_LTS),
    Row("l.sfles", OP_SF, _C.REGISTER, "ra,rb", _RR, alu.SF_LES),
    Row("l.ld", OP_C64, _C.CLASS64, "rd,imm(ra)",
        (_RD, _RA, ("imm", True, (4, 11))), C64_LD),
    Row("l.sd", OP_C64, _C.CLASS64, "imm(ra),rb",
        _RR + (("imm", True, (21, 5), (4, 6)),), C64_SD),
    Row("l.add64", OP_C64, _C.CLASS64, "rd,ra,rb", _RRR, C64_ADD),
)

MNEMONICS = {row.mnemonic: row for row in TABLE}
# mnemonics whose target is pc-relative (a word offset), and the jumps
# that link, writing their return address to r9
PC_RELATIVE = frozenset(row.mnemonic for row in TABLE if row.syntax == "@imm")
LINKING = frozenset(row.mnemonic for row in TABLE
                    if row.cls is _C.JUMP and row.mnemonic.startswith("l.jal"))
# opcode -> (selector lo, selector mask, its rows by sub-op, None where no
# row is); an opcode without a selector has the one sub-op 0
_DECODE = [(lo, mask, [None] * (mask + 1))
           for lo, mask in (SELECTORS.get(op, (0, 0)) for op in range(64))]
for _row in TABLE:
    _DECODE[_row.opcode][2][_row.funct or 0] = _row


def decode(word):
    """Decode one 32-bit word or raise IllegalOpcode."""
    word &= MASK32
    op = word >> 26
    lo, mask, rows = _DECODE[op]
    row = rows[(word >> lo) & mask]
    if row is None:
        raise IllegalOpcode(word, "opcode 0x%02x, sub-op %d"
                            % (op, (word >> lo) & mask))
    if word & row.fixed_mask != row.fixed:
        raise IllegalOpcode(word, "reserved bits")
    args = row.template.copy()
    for slot, lo, mask, sign in row.flat:
        args[slot] = (((word >> lo) & mask) ^ sign) - sign
    for slot, steps, sign in row.split:
        value = 0
        for lo, mask, at in steps:
            value |= ((word >> lo) & mask) << at
        args[slot] = (value ^ sign) - sign
    return Instruction(*args)


def encode_fields(row, fields):
    """The word of a table row with the operand values in `fields`, a dict
    by field name, or OperandOutOfRange for a value its field cannot
    hold."""
    word = row.base
    for name, _, steps, _, low, high, bits in row.fields:
        value = fields[name]
        if not low <= value < high:
            raise OperandOutOfRange("%s %d does not fit %s"
                                    % (name, value, bits))
        for lo, mask, at in steps:
            word |= ((value >> at) & mask) << lo
    return word


def decode_at(text, pc):
    """The word at `pc` of a text image and its Instruction: (None, None)
    where nothing is mapped, (word, None) for a word that does not
    decode."""
    word = text.get(pc)
    if word is None:
        return None, None
    try:
        return word, decode(word)
    except IllegalOpcode:
        return word, None


def user_illegal(instr):
    """True for an instruction, or a table row, user mode may not
    execute."""
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

