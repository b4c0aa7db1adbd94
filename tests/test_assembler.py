"""Assembler checks: encrypted expansion, image files, lint."""

import hashlib
import random

import pytest

from kit import CDC
from kpusim import isa
from kpusim.assembler import (Assembler, CryptoSafetyError, FormatError,
                              ParseError, UndefinedLabel, assemble,
                              parse_image, write_image)
from kpusim.codec import make_padding
from kpusim.pipeline import Engine


USER_ADDI = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r1, r0, 42
    l.nop  1
"""


def reassemble_cipher(image, base):
    """Glue the three words of one encrypted group back into a block."""
    p0 = isa.decode(image.text[base])
    p1 = isa.decode(image.text[base + 4])
    tail = image.text[base + 8]
    assert p0.mnemonic == "l.prefix" and p0.prefix_idx == 0
    assert p1.mnemonic == "l.prefix" and p1.prefix_idx == 1
    return (p0.prefix_payload << 40) | (p1.prefix_payload << 16) | (tail & 0xFFFF)


def test_encrypted_immediate_expands_to_three_words():
    image, diags = Assembler(CDC, seed=0).assemble(USER_ADDI)
    assert not diags
    assert sorted(image.text) == [0x4000, 0x4004, 0x4008, 0x400C]
    assert isa.decode(image.text[0x4008]).mnemonic == "l.addi"
    assert isa.decode(image.text[0x400C]).mnemonic == "l.nop"


def test_encrypted_group_decrypts_to_the_literal():
    image, _ = Assembler(CDC, seed=0).assemble(USER_ADDI)
    cipher = reassemble_cipher(image, 0x4000)
    pad = make_padding(0, 0)             # first constant of the stream
    assert CDC.decrypt(cipher) == (pad << 32) | 42


def test_ordinals_advance_per_encrypted_constant():
    source = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r1, r0, 7
    l.addi r2, r0, 7
    l.nop  1
"""
    image, _ = Assembler(CDC, seed=3).assemble(source)
    one = CDC.decrypt(reassemble_cipher(image, 0x4000))
    two = CDC.decrypt(reassemble_cipher(image, 0x400C))
    assert one == (make_padding(3, 0) << 32) | 7
    assert two == (make_padding(3, 1) << 32) | 7
    assert one != two                    # same literal, different padding


def test_wide_literals_fit_encrypted_immediates():
    source = USER_ADDI.replace("42", "70000")
    image, _ = Assembler(CDC, seed=0).assemble(source)
    cipher = reassemble_cipher(image, 0x4000)
    assert CDC.decrypt(cipher) & 0xFFFFFFFF == 70000


def test_shift_pad_search_lands_the_sub_op():
    source = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.srai r2, r1, 3
    l.nop  1
"""
    image, _ = Assembler(CDC, seed=0).assemble(source)
    tail = isa.decode(image.text[0x4008])
    assert tail.mnemonic == "l.srai" and tail.funct == isa.SHIFT_SRA
    cipher = reassemble_cipher(image, 0x4000)
    assert (cipher >> 14) & 3 == isa.SHIFT_SRA
    # the pad must be the first stream candidate whose ciphertext fits
    attempt = 0
    while True:
        pad = make_padding(0, 0, attempt)
        if (CDC.encrypt((pad << 32) | 3) >> 14) & 3 == isa.SHIFT_SRA:
            break
        attempt += 1
    assert CDC.decrypt(cipher) == (pad << 32) | 3


def test_supervisor_immediates_stay_single_words():
    source = """.mode super
.entry start
.org 0x100
start:
    l.addi r1, r0, 42
    l.nop  1
"""
    image, _ = Assembler(CDC, seed=0).assemble(source)
    assert sorted(image.text) == [0x100, 0x104]
    with pytest.raises(ParseError):
        assemble(source.replace("42", "40000"), CDC)


def test_branch_offsets_and_label_arithmetic():
    source = """.mode super
.entry start
.org 0x100
start:
    l.bf   over
    l.nop  0
    l.nop  0
over:
    l.addi r1, r0, over+8
    l.j    start
    l.nop  1
"""
    image, _ = Assembler(CDC, seed=0).assemble(source)
    assert isa.decode(image.text[0x100]).imm == 3      # 12 bytes ahead
    assert isa.decode(image.text[0x10C]).imm == 0x114  # label plus offset
    assert isa.decode(image.text[0x110]).imm == -4     # back to start


def test_directives():
    source = """.mode super
.entry start
.org 0x200
start:
    l.nop  1
.space 8
after:
    .word  0x15000000
.dword 0x400, 0x1122334455667788
"""
    image, _ = Assembler(CDC, seed=0).assemble(source)
    assert image.entry == 0x200
    assert 0x204 not in image.text and 0x208 not in image.text
    assert image.text[0x20C] == 0x15000000
    assert image.data[0x400] == 0x1122334455667788
    # a .dword may name a label defined further down, as .word may
    forward = """.mode super
.entry start
.org 0x100
.dword cell, 0x1234
start:
    l.ld   r3, cell(r0)
    l.nop  2
    l.nop  1
.org 0x300
cell:
"""
    image, _ = Assembler(CDC, seed=0).assemble(forward)
    assert image.data == {0x300: 0x1234}
    engine = Engine(image, CDC)
    engine.run()
    assert engine.outputs == [0x1234]


def test_parse_errors_carry_line_numbers():
    cases = [
        ("l.addi r1, r0\n", "operands"),
        ("l.addi r1, r32, 0\n", "register"),
        ("l.frob r1, r2, r3\n", "mnemonic"),
        ("x:\nx:\n l.nop 1\n", "label"),
        # an entry the image format cannot hold
        (".entry -4\nl.nop 1\n", "entry"),
        (".entry 0x100000000\nl.nop 1\n", "entry"),
    ]
    for body, _ in cases:
        with pytest.raises(ParseError):
            assemble(".org 0x100\n" + body, CDC)
    with pytest.raises(UndefinedLabel):
        assemble(".org 0x100\nl.j nowhere\n", CDC)
    try:
        assemble(".org 0x100\nl.addi r1, r0\n", CDC)
    except ParseError as exc:
        assert exc.lineno == 2


def test_error_texts_are_pinned():
    cases = [
        ("l.addi r1, r0", "l.addi takes 3 operands"),
        ("l.addi r1, r32, 0", "expected register, got 'r32'"),
        ("l.addi r1, r01, 0", "expected register, got 'r01'"),
        ("l.addi r1, x, 0", "expected register, got 'x'"),
        ("l.lwz r1, 4(r32)", "expected register, got 'r32'"),
        ("l.lwz r1, r4", "expected offset(reg), got 'r4'"),
        ("l.lwz r1, zz(r2)", "undefined label 'zz'"),
        ("l.j 0x102", "branch target not word aligned"),
        ("l.addi r1, r0, 70000", "imm 70000 does not fit signed 16 bits"),
        ("l.ori r1, r0, -1", "imm -1 does not fit 16 bits"),
        ("l.mtspr r1, r2, 65536", "imm 65536 does not fit 16 bits"),
        ("l.ld r1, 4096(r2)", "imm 4096 does not fit signed 11 bits"),
        ("l.prefix 2, 5", "prefix_idx 2 does not fit 1 bits"),
        ("l.frob r1, r2, r3", "unknown mnemonic 'l.frob'"),
        ("l.addi r1, r0,", "empty expression"),
        ("l.addi r1, r0, 3 +", "cannot parse expression '3 +'"),
        # every plain register is read before any operand that may be a label
        ("l.addi r1, nowhere, r9", "expected register, got 'nowhere'"),
        ("l.sw zz(r1), r40", "expected register, got 'r40'"),
        (".org 0x102", ".org address not word aligned"),
        (".encrypt maybe", ".encrypt takes on or off"),
        (".mode kernel", ".mode takes user or super"),
        (".space 6", ".space takes a multiple of 4"),
        (".dword 0x200", ".dword takes address, value"),
        (".frob", "unknown directive .frob"),
    ]
    for body, text in cases:
        with pytest.raises(ParseError) as info:
            assemble(".org 0x100\n" + body + "\n", CDC)
        assert str(info.value) == "line 2: " + text, body
    with pytest.raises(ParseError) as info:
        assemble(".encrypt on\nl.addi r1, r0, 4294967296\n", CDC)
    assert str(info.value) == "line 2: immediate 4294967296 does not fit 32 bits"
    for record, text in (("MODE kernel", "mode must be user or super"),
                         ("ENTRY zz", "bad number in 'ENTRY zz'")):
        with pytest.raises(FormatError) as info:
            parse_image("KPUIMG 1\n%s\n" % record)
        assert str(info.value) == "line 2: " + text
    # register names take either case
    image = assemble(".org 0x100\nl.add R31, r0, R9\n", CDC)
    assert image.text[0x100] == isa.encode_fields(
        isa.MNEMONICS["l.add"], {"rd": 31, "ra": 0, "rb": 9})
    # a sealed immediate is checked against 32 bits, not its 16-bit field
    image = assemble(""".mode user
.org 0x4000
.encrypt on
    l.addi r1, r0, 70000
    l.slli r1, r2, 99999
    l.nop  1
""", CDC)
    assert len(image.text) == 7


def test_a_label_offset_takes_no_leading_zero():
    # as a plain 010 is no number; int() alone raised a bare ValueError
    source = ".org 0x100\nfoo:\nl.addi r1, r0, foo + %s\n"
    with pytest.raises(ParseError) as info:
        assemble(source % "010", CDC)
    assert str(info.value) == "line 3: cannot parse expression 'foo + 010'"
    image = assemble(source % "10", CDC)
    assert isa.decode(image.text[0x100]).imm == 0x10A


def test_numbers_are_ascii_digits_without_underscores():
    # int() alone also takes '_' and any Unicode decimal digit; a sign stays
    source = ".org 0x100\nfoo:\nl.addi r3, r0, %s\n"
    for text in ("١٠", "1_0", "0x1_0", "foo+١", "foo + 1_0"):
        with pytest.raises(ParseError) as info:
            assemble(source % text, CDC)
        assert str(info.value) == "line 3: cannot parse expression %r" % text
    for text, imm in (("10", 10), ("-10", -10), ("+10", 10), ("foo+1", 0x101)):
        assert isa.decode(assemble(source % text, CDC).text[0x100]).imm == imm


def test_word_values_must_fit_32_bits():
    # a .word takes -2**31..0xFFFFFFFF, as an immediate takes its field's
    # range; one past either end is a ParseError, not a masked word
    for text, word in (("0xFFFFFFFF", 0xFFFFFFFF),
                       ("-0x80000000", 0x80000000)):
        image = assemble(".org 0x100\n.word %s\n" % text, CDC)
        assert image.text == {0x100: word}
    for text in ("0x100000000", "-0x80000001"):
        with pytest.raises(ParseError) as info:
            assemble(".org 0x100\n.word %s\n" % text, CDC)
        assert info.value.lineno == 2 and "32 bits" in str(info.value)


def test_text_overlap_rejected():
    source = """.org 0x100
    l.nop 1
.org 0x100
    l.nop 1
"""
    with pytest.raises(ParseError):
        assemble(source, CDC)


def test_image_write_parse_round_trip():
    image, _ = Assembler(CDC, seed=5).assemble(USER_ADDI)
    text = write_image(image)
    back = parse_image(text)
    assert back.entry == image.entry
    assert back.mode == image.mode
    assert back.text == image.text
    assert back.data == image.data
    assert write_image(back) == text


def test_image_parser_rejects_bad_records():
    with pytest.raises(FormatError):
        parse_image("BOGUS\n")
    with pytest.raises(FormatError):
        parse_image("")
    bad = "KPUIMG 1\nTEXT 0x00000102 15000001\n"      # unaligned
    with pytest.raises(FormatError):
        parse_image(bad)
    # numbers are unsigned and fit their field: int() alone takes a sign
    for record in ("DATA -0x8 0000000000000005", "TEXT -0x4 15000001",
                   "DATA 0x00000008 -5", "TEXT 0x00000100 -1",
                   "ENTRY -0x100", "ENTRY 0x100000000",
                   "DATA 0x100000000 0000000000000005",
                   "DATA 0x00000008 10000000000000000"):
        with pytest.raises(FormatError):
            parse_image("KPUIMG 1\n%s\n" % record)
    try:
        parse_image("KPUIMG 1\nWHAT 1 2\n")
    except FormatError as exc:
        assert exc.lineno == 2
    # a second record for one address, which a round trip would drop
    for kind, first, second in (("TEXT", "15000001", "15000002"),
                                ("DATA", "5", "6")):
        with pytest.raises(FormatError) as info:
            parse_image("KPUIMG 1\n%s 0x00000100 %s\n%s 0x00000100 %s\n"
                        % (kind, first, kind, second))
        assert str(info.value) == "line 3: second %s record at 0x00000100" \
            % kind.lower()
    # a second ENTRY or MODE, which was once kept over the first
    found = ("KPUIMG 1\nENTRY 0x100\nMODE user\nENTRY 0x200\nMODE super\n"
             "TEXT 0x100 15000001\n")
    for text, kind in ((found, "ENTRY"),
                       (found.replace("ENTRY 0x200\n", ""), "MODE")):
        with pytest.raises(FormatError) as info:
            parse_image(text)
        assert str(info.value) == "line 4: second %s record" % kind
    # comments and blank lines are fine
    ok = parse_image("# note\nKPUIMG 1\n\nTEXT 0x00000100 15000001 # exit\n")
    assert ok.text == {0x100: 0x15000001}


def test_deterministic_output():
    texts = {write_image(Assembler(CDC, seed=9).assemble(USER_ADDI)[0])
             for _ in range(3)}
    assert len(texts) == 1
    other = write_image(Assembler(CDC, seed=10).assemble(USER_ADDI)[0])
    assert other not in texts            # a new seed moves the padding


def test_lint_flags_address_arithmetic():
    source = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r9, r9, 4
    l.nop  1
"""
    _, diags = Assembler(CDC, seed=0).assemble(source)
    assert any("arithmetic on a program address in r9" in d for d in diags)
    with pytest.raises(CryptoSafetyError):
        Assembler(CDC, seed=0).assemble(source, strict=True)


def test_lint_flags_jump_through_data():
    source = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.lwz  r5, 0(r0)
    l.jr   r5
    l.nop  1
"""
    _, diags = Assembler(CDC, seed=0).assemble(source)
    assert any("register jump through a data value in r5" in d for d in diags)


def test_lint_accepts_recomputed_addresses():
    source = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r14, r0, 0x1200
    l.sw   0(r14), r14
    l.lwz  r5, 0(r14)
    l.add  r6, r5, r5
    l.jal  helper
    l.nop  1
helper:
    l.jr   r9
"""
    _, diags = Assembler(CDC, seed=0).assemble(source)
    assert diags == []
    # an immediate naming a label spelled like a register is an address
    source = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r3, r4, r9
r9:
    l.nop  1
"""
    _, diags = Assembler(CDC, seed=0).assemble(source)
    assert diags == []


def test_random_sources_assemble_deterministically():
    from kpusim.progen import generate_source
    rng = random.Random(123)
    for _ in range(5):
        seed = rng.randrange(1 << 16)
        src = generate_source(seed)
        a = write_image(assemble(src, CDC, seed=seed))
        b = write_image(assemble(src, CDC, seed=seed))
        assert a == b


def _lint_source(rng):
    """Straight-line runs of links, register jumps, loads and arithmetic
    under labN: labels, mostly encrypted, so the lint sees both taints."""
    labels = ["lab%d" % i for i in range(rng.randrange(1, 5))]

    def reg():
        return "r%d" % rng.choice((0, 3, 5, 9, 9, 14))

    lines = [".mode user", ".entry lab0", ".org 0x4000", ".encrypt on"]
    for label in labels:
        lines.append("%s:" % label)
        for _ in range(rng.randrange(1, 7)):
            roll = rng.randrange(9)
            if roll == 0:
                lines.append("l.jal %s" % rng.choice(labels))
            elif roll == 1:
                lines.append("l.jalr %s" % reg())
            elif roll == 2:
                lines.append("l.jr %s" % reg())
            elif roll == 3:
                lines.append("l.lwz %s, %d(%s)" % (reg(), 4 * rng.randrange(8),
                                                   reg()))
            elif roll in (4, 5):
                lines.append("l.%s %s, %s, %s" % (
                    rng.choice(("add", "sub", "mul", "add64")), reg(), reg(),
                    reg()))
            elif roll == 6:
                lines.append("l.addi %s, %s, %s" % (
                    reg(), reg(), rng.choice(labels + ["12"])))
            elif roll == 7:
                lines.append("l.sw 0(%s), %s" % (reg(), reg()))
            else:
                lines.append(".encrypt %s" % rng.choice(("on", "off")))
    lines.append("l.nop 1")
    return "\n".join(lines) + "\n"


def test_output_of_a_corpus_is_pinned():
    """Images and diagnostics of 100 generated programs and 200 lint
    sources, as one digest: any change to encoding, pad ordinals, label
    resolution or the lint's taint rules moves it."""
    from kpusim.progen import generate_source
    digest = hashlib.sha256()
    sources = [(generate_source(seed, size), seed)
               for seed in range(50) for size in ("small", "medium")]
    rng = random.Random(2024)
    sources += [(_lint_source(rng), seed) for seed in range(200)]
    for source, seed in sources:
        image, diags = Assembler(CDC, seed=seed).assemble(source)
        digest.update(write_image(image).encode())
        digest.update("\n".join(diags + [""]).encode())
    assert digest.hexdigest() == \
        "95b1ac8ea88b3cc3f06eb18a8e174106a06bf5d1d254199ebfa09641c3667a47"


# Every mnemonic once, with a pc-relative target, optional and explicit
# operands, negative offsets and both immediate signednesses.
EVERY_MNEMONIC = """
{label}:
    l.j {label}
    l.jal {label}
    l.bnf {label}
    l.bf {label}
    l.nop
    l.nop 3
    l.prefix 0,0x123456
    l.prefix 1,0xabcdef
    l.sys
    l.sys 7
    l.rfe
    l.jr r9
    l.jalr r3
    l.lwz r4,-8(r2)
    l.addi r5,r4,-3
    l.andi r5,r4,0xfff0
    l.ori r6,r5,0x8001
    l.xori r7,r6,-1
    l.muli r8,r7,300
    l.slli r9,r8,3
    l.srli r10,r9,31
    l.srai r11,r10,2
    l.mfspr r12,r1,17
    l.mtspr r1,r12,0x8001
    l.sw -4(r2),r12
    l.add r1,r2,r3
    l.sub r2,r3,r4
    l.and r3,r4,r5
    l.or r4,r5,r6
    l.xor r5,r6,r7
    l.mul r6,r7,r8
    l.divu r7,r8,r9
    l.sll r8,r9,r10
    l.srl r9,r10,r11
    l.sra r10,r11,r12
    l.sfeq r1,r2
    l.sfne r2,r3
    l.sfgts r3,r4
    l.sfges r4,r5
    l.sflts r5,r6
    l.sfles r6,r7
    l.ld r13,-16(r2)
    l.sd 24(r2),r13
    l.add64 r14,r13,r12
"""


def test_every_mnemonic_image_is_pinned():
    # the image `kpu asm --seed 0` writes for every mnemonic, plain and
    # sealed; the corpus gate digests the shipped programs' images
    source = (".org 0x100\n" + EVERY_MNEMONIC.format(label="plain")
              + ".org 0x1000\n.encrypt on\n"
              + EVERY_MNEMONIC.format(label="sealed"))
    image, _ = Assembler(CDC, seed=0).assemble(source)
    assert hashlib.sha256(write_image(image).encode()).hexdigest() == \
        "6ac582dcc0e83cf1cff2de94c0556348b962dae50f50fae9805928e22bad9fdf"
