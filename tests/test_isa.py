"""Instruction word decode/encode checks."""

import random
import re

import pytest

from kpusim import isa
from kpusim.assembler import assemble
from kpusim.codec import Codec


def encode(instr):
    """A decoded Instruction's word, back through the one encoder."""
    row = isa.MNEMONICS[instr.mnemonic]
    return isa.encode_fields(row, {name: getattr(instr, name)
                                   for name, *_ in row.fields})


def test_known_words():
    nop = isa.decode(0x15000002)
    assert nop.mnemonic == "l.nop"
    assert nop.imm == 2
    assert nop.cls is isa.InstrClass.NOP
    assert encode(nop) == 0x15000002

    addi = isa.decode(0x9CA50001)
    assert addi.mnemonic == "l.addi"
    assert (addi.rd, addi.ra, addi.imm) == (5, 5, 1)
    assert addi.cls is isa.InstrClass.IMMEDIATE


def test_backward_jump_word():
    instr = isa.decode(0x03FFFFFF)
    assert instr.mnemonic == "l.j"
    assert instr.imm == -1
    assert encode(instr) == 0x03FFFFFF


def test_immediate_sign_conventions():
    # addi/muli/xori sign-extend, andi/ori keep the raw 16 bits
    assert isa.decode((isa.OP_ADDI << 26) | (3 << 21) | 0xFFFF).imm == -1
    assert isa.decode((isa.OP_MULI << 26) | (3 << 21) | 0x8000).imm == -32768
    assert isa.decode((isa.OP_XORI << 26) | (3 << 21) | 0xFFFF).imm == -1
    assert isa.decode((isa.OP_ANDI << 26) | (3 << 21) | 0xFFFF).imm == 0xFFFF
    assert isa.decode((isa.OP_ORI << 26) | (3 << 21) | 0x8000).imm == 0x8000


def test_shift_immediate_sub_ops():
    word = (isa.OP_SHIFTI << 26) | (4 << 21) | (2 << 16) | (1 << 14) | 9
    instr = isa.decode(word)
    assert instr.mnemonic == "l.srli"
    assert (instr.rd, instr.ra, instr.imm, instr.funct) == (4, 2, 9, 1)
    bad = (isa.OP_SHIFTI << 26) | (3 << 14)
    with pytest.raises(isa.IllegalOpcode):
        isa.decode(bad)


def test_set_flag_sub_ops():
    names = {row.funct: row.mnemonic for row in isa.TABLE
             if row.opcode == isa.OP_SF}
    for sub, name in names.items():
        word = (isa.OP_SF << 26) | (sub << 21) | (1 << 16) | (2 << 11)
        instr = isa.decode(word)
        assert instr.mnemonic == name
        assert (instr.ra, instr.rb) == (1, 2)
    with pytest.raises(isa.IllegalOpcode):
        isa.decode((isa.OP_SF << 26) | (6 << 21))


def test_register_alu_functs():
    names = {row.funct: row.mnemonic for row in isa.TABLE
             if row.opcode == isa.OP_ALU}
    for funct, name in names.items():
        word = (isa.OP_ALU << 26) | (7 << 21) | (1 << 16) | (2 << 11) | funct
        instr = isa.decode(word)
        assert instr.mnemonic == name
        assert (instr.rd, instr.ra, instr.rb) == (7, 1, 2)
    with pytest.raises(isa.IllegalOpcode):
        isa.decode((isa.OP_ALU << 26) | 10)


def test_reserved_fields_must_be_zero():
    cases = [
        (isa.OP_JR << 26) | (1 << 16),      # only rb carries the target
        (isa.OP_RFE << 26) | 1,
        (isa.OP_ALU << 26) | 0x10,          # gap between rb and funct
        (isa.OP_SF << 26) | 1,
        (isa.OP_NOP << 26) | 2,             # nop missing its fixed bit 24
        0x15000002 | (1 << 25),
    ]
    for word in cases:
        with pytest.raises(isa.IllegalOpcode):
            isa.decode(word)


def test_decode_is_total_and_canonical():
    """Any 32-bit word either decodes or raises IllegalOpcode.

    Words that do decode must re-encode to the same bits, so every
    reserved field is checked and no information is dropped.
    """
    rng = random.Random(0x15A)
    decoded = 0
    for _ in range(100000):
        word = rng.getrandbits(32)
        try:
            instr = isa.decode(word)
        except isa.IllegalOpcode:
            continue
        decoded += 1
        assert encode(instr) == word
    assert decoded > 10000


# (opcode, sub-op) -> row, for the reference decoder
_REFERENCE_ROWS = {(row.opcode, row.funct or 0): row for row in isa.TABLE}


def _reference_decode(word):
    """decode as the table rows spell it out: the (opcode, sub-op) row,
    its fixed bits, then each field joined piece by piece from
    `Row.fields` and sign-extended."""
    op = word >> 26
    lo, mask = isa.SELECTORS.get(op, (0, 0))
    row = _REFERENCE_ROWS.get((op, (word >> lo) & mask))
    if row is None:
        raise isa.IllegalOpcode(word, "opcode 0x%02x, sub-op %d"
                                % (op, (word >> lo) & mask))
    if word & row.fixed_mask != row.fixed:
        raise isa.IllegalOpcode(word, "reserved bits")
    fields = {}
    for name, _, steps, sign, _, _, _ in row.fields:
        value = 0
        for lo, mask, at in steps:
            value |= ((word >> lo) & mask) << at
        fields[name] = (value ^ sign) - sign
    return isa.Instruction(row.opcode, row.mnemonic, row.cls, funct=row.funct,
                           **fields)


def _outcome(decoder, word):
    """The Instruction a decoder makes of `word`, or its IllegalOpcode
    text."""
    try:
        return decoder(word)
    except isa.IllegalOpcode as exc:
        return str(exc)


def test_decode_matches_the_reference_decoder():
    """The flat per-row decode agrees with the nested per-piece loop on
    every row's all-zero and all-one operand fields, which reach each
    field's sign bit, and on 200,000 seeded words, rejected ones with the
    same text: half of them any 32-bit word, most of which are illegal,
    half a random row's word with random operand bits."""
    for row in isa.TABLE:
        for word in (row.base, row.base | sum(row.masks.values())):
            want = _reference_decode(word)
            assert isa.decode(word) == want, row.mnemonic
    rng = random.Random(0x15D)
    operands = [(row.base, sum(row.masks.values())) for row in isa.TABLE]
    words = []
    for _ in range(100000):
        base, mask = rng.choice(operands)
        words += [rng.getrandbits(32), base | (rng.getrandbits(32) & mask)]
    want = [_outcome(_reference_decode, word) for word in words]
    wrong = [(hex(word), got, ref) for word, ref in zip(words, want)
             if (got := _outcome(isa.decode, word)) != ref]
    assert not wrong, wrong[:3]
    assert 40000 < sum(isinstance(ref, str) for ref in want) < 100000


def test_encode_rejects_out_of_range_operands():
    instr = isa.decode(0x9CA50001)
    head = (instr.opcode, instr.mnemonic, instr.cls)
    with pytest.raises(isa.OperandOutOfRange):
        encode(isa.Instruction(*head, rd=32, ra=instr.ra, imm=instr.imm))
    with pytest.raises(isa.OperandOutOfRange):
        encode(isa.Instruction(*head, rd=instr.rd, ra=instr.ra, imm=40000))


def test_instructions_compare_field_by_field():
    """Two decodes of one word are equal; changing any one field makes
    them differ; an Instruction is mutable, so it has no hash."""
    for row in isa.TABLE:
        word = row.base | sum(row.masks.values())
        first, second = isa.decode(word), isa.decode(word)
        assert first is not second and first == second, row.mnemonic
        for name in isa.Instruction.__slots__:
            changed = isa.decode(word)
            setattr(changed, name, "changed")
            assert changed != first, (row.mnemonic, name)
    assert isa.decode(0x15000002) != "l.nop"
    with pytest.raises(TypeError):
        hash(isa.decode(0x15000002))


@pytest.mark.parametrize("word, text", [
    (0xE0642800, "Instruction(opcode=56, mnemonic='l.add', "
     "cls=<InstrClass.REGISTER: 'register'>, rd=3, ra=4, rb=5, imm=None, "
     "funct=0, prefix_idx=None, prefix_payload=None)"),
    (0x19ABCDEF, "Instruction(opcode=6, mnemonic='l.prefix', "
     "cls=<InstrClass.PREFIX: 'prefix'>, rd=None, ra=None, rb=None, "
     "imm=None, funct=None, prefix_idx=1, prefix_payload=11259375)"),
    (0x13FFFFFD, "Instruction(opcode=4, mnemonic='l.bf', "
     "cls=<InstrClass.BRANCH: 'branch'>, rd=None, ra=None, rb=None, "
     "imm=-3, funct=None, prefix_idx=None, prefix_payload=None)"),
])
def test_instruction_repr_names_every_field(word, text):
    assert repr(isa.decode(word)) == text


def test_classify_covers_every_mnemonic():
    rng = random.Random(0x15B)
    classes = set()
    for _ in range(20000):
        word = rng.getrandbits(32)
        try:
            instr = isa.decode(word)
        except isa.IllegalOpcode:
            continue
        assert isinstance(instr.cls, isa.InstrClass)
        classes.add(instr.cls)
    assert isa.InstrClass.LOAD in classes
    assert isa.InstrClass.STORE in classes
    assert isa.InstrClass.BRANCH in classes


def _sample_words():
    """Words of every table row with random operand bits, then a seeded
    sample of decodable words."""
    rng = random.Random(0x15C)
    words = []
    for row in isa.TABLE:
        operands = sum(row.masks.values())
        words += [row.base | (rng.getrandbits(32) & operands)
                  for _ in range(20)]
    while len(words) < 20 * len(isa.TABLE) + 2000:
        word = rng.getrandbits(32)
        try:
            isa.decode(word)
        except isa.IllegalOpcode:
            continue
        words.append(word)
    return words


_OPERAND = re.compile(r"\b(r[dab]|imm|prefix_idx|prefix_payload)\b")


def format_instruction(instr):
    """Human-readable rendering in assembler syntax. A pc-relative target
    prints as its word offset; an optional operand that is 0 is left out."""
    syntax = isa.MNEMONICS[instr.mnemonic].syntax
    if syntax.endswith("?") and not instr.imm:
        return instr.mnemonic

    def show(match):
        name = match.group(1)
        form = "r%d" if name[0] == "r" else \
            "0x%06x" if name == "prefix_payload" else "%d"
        return form % getattr(instr, name)

    ops = _OPERAND.sub(show, syntax).strip("@?")
    return "%s %s" % (instr.mnemonic, ops) if ops else instr.mnemonic


def test_format_round_trips_through_text():
    cdc = Codec(0x000102030405060708090A0B0C0D0E0F)
    for word in _sample_words():
        instr = isa.decode(word)
        text = format_instruction(instr)
        if instr.mnemonic in ("l.j", "l.jal", "l.bf", "l.bnf"):
            # pc-relative targets print as the word offset
            assert text == "%s %d" % (instr.mnemonic, instr.imm)
            continue
        image = assemble(".org 0x100\n%s\n" % text, cdc)
        assert image.text == {0x100: word}, text
