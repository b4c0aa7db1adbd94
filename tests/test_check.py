"""The checker: what compare() reports, and the one record reader behind
the image and dump formats."""

from pathlib import Path

import pytest

from kit import CDC, build, run_both
from kpusim.assembler import FormatError, parse_image
from kpusim.check import (SimView, compare, engine_view, parse_sim_dump,
                          render_dump)
from kpusim.oracle import Interpreter

ROOT = Path(__file__).resolve().parent.parent


def encrypted_sum():
    """A finished user-mode machine on programs/encrypted_sum.s, and the
    reference's result for it, checked to agree."""
    return run_both((ROOT / "programs" / "encrypted_sum.s").read_text())


def block(pad, word):
    return (pad << 32) | word


def test_compare_reports_an_address_only_the_machine_holds():
    engine, res = encrypted_sum()
    engine.mem.user_store(block(0x1234, 0x9000), block(0x5678, 42))
    assert compare(engine_view(engine), res, CDC) == [
        "memory 0x00009000: machine 0x0000002a, missing from reference"]


def test_compare_passes_a_machine_only_address_left_blank():
    # a cell the machine mapped but never wrote reads as the reference's
    # never-written cell does
    engine, res = encrypted_sum()
    view = engine_view(engine)
    view.tlb[CDC.encrypt(block(0x1234, 0x9000))] = 1 << 20
    assert compare(view, res, CDC) == []


def test_compare_reports_an_exit_mode_mismatch():
    engine, res = encrypted_sum()
    view = engine_view(engine)
    assert view.mode == "user"
    view.mode = "super"
    assert compare(view, res, CDC)[0] == "mode: machine super, reference user"


def test_compare_opens_a_supervisor_dumps_registers():
    # a zero-filled program address reads as its pc, ciphertext as its
    # plaintext's word and 0 as program address 0, the ciphertexts in one
    # batch
    res = Interpreter(build(".mode super\n.entry boot\n.org 0x100\nboot:\n"
                            "    l.addi r1, r0, 0x104\n"
                            "    l.addi r2, r0, 42\n"
                            "    l.addi r3, r0, 7\n"
                            "    l.addi r4, r0, -1\n"
                            "    l.nop 1\n"), CDC).run()
    real = [0, 0x104, CDC.encrypt(block(0x77, 42)),
            CDC.encrypt(block(0x78, 7)),
            CDC.encrypt(block(0x79, 0xFFFFFFFF))] + [0] * 27
    view = SimView("super", real, [0] * 32)
    assert compare(view, res, CDC) == []
    real[3] = CDC.encrypt(block(0x78, 8))
    assert compare(view, res, CDC) == [
        "r3: machine 0x00000008, reference 0x00000007"]


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n   \n"])
@pytest.mark.parametrize("parse, what", [(parse_image, "image"),
                                         (parse_sim_dump, "dump")])
def test_a_file_with_no_records_is_empty(parse, what, text):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == "line 1: empty %s" % what


@pytest.mark.parametrize("parse, magic", [(parse_image, "KPUIMG 1"),
                                          (parse_sim_dump, "KPUDUMP 1")])
def test_the_first_record_must_be_the_header(parse, magic):
    with pytest.raises(FormatError) as info:
        parse("# comment\n\nMODE user\n%s\n" % magic)
    assert str(info.value) == "line 3: expected %s header" % magic
    # a dump also needs its mode and every register after the header
    rest = "" if parse is parse_image else render_dump(
        SimView("super", [0] * 32, [0] * 32)).split("\n", 1)[1]
    parse("\n  %s  # header\n%s" % (magic.replace(" ", "\t"), rest))


# Programs that reach mode and register rules nothing else runs: an l.rfe
# back to supervisor mode, a supervisor read of SR, and a user return
# address stored, loaded back and mapped out at a trap. Each is frozen as
# (source, printed value, engine cycles, reference steps).
AGREEING = {
    "rfe back to supervisor mode": (""".mode super
    l.addi r3, r0, 5
    l.sys  0
    l.nop  2
    l.nop  1
.org 0xc00
    l.addi r3, r3, 1
    l.rfe
""", 6, 19, 6),
    "supervisor SR read": (""".mode super
    l.sfeq  r0, r0
    l.mfspr r3, r0, 17
    l.nop   2
    l.nop   1
""", 513, 10, 4),
    "program address mapped out": (""".mode user
.entry start
.org 0x2000
.encrypt on
start:
    l.addi r14, r0, 0x1200
    l.jal  f
    l.nop  1
f:
    l.sw   0(r14), r9
    l.lwz  r5, 0(r14)
    l.sys  0
.encrypt off
.org 0xc00
    l.add  r3, r5, r0
    l.nop  2
    l.nop  1
.org 0x700
    l.nop  1
""", 8208, 39, 8),
}


@pytest.mark.parametrize("source, value, cycles, steps",
                         AGREEING.values(), ids=AGREEING)
def test_both_machines_agree_on_a_mode_rule(source, value, cycles, steps):
    engine, reference = run_both(source)
    assert engine.outputs == reference.outputs == [value]
    assert (engine.stats.cycles, reference.steps) == (cycles, steps)


def test_image_and_dump_numbers_are_unsigned_ascii_digits():
    # int() alone also takes a sign, '_' and any Unicode decimal digit
    for record in ("ENTRY +0x100", "ENTRY 0x1_00", "ENTRY 0x١00",
                   "TEXT 0x100 15_000001", "DATA 0x8 +5"):
        with pytest.raises(FormatError) as info:
            parse_image("KPUIMG 1\n%s\n" % record)
        assert str(info.value) == "line 2: bad number in %r" % record
    full = render_dump(SimView("super", [0] * 32, [0] * 32))
    zero = "0" * 16
    for record, number in (("REG 00 +%s %s" % (zero[1:], zero), "+" + zero[1:]),
                           ("REG 0_0 %s %s" % (zero, zero), "0_0"),
                           ("OUT ١", "١")):
        with pytest.raises(FormatError) as info:
            parse_sim_dump(full + record + "\n")
        assert str(info.value) == "line 35: bad number %r" % number
    # a '-' was refused before, by the range checks
    with pytest.raises(FormatError) as info:
        parse_image("KPUIMG 1\nDATA -0x8 0000000000000005\n")
    assert str(info.value) == "line 2: bad data record"


# A dump's tail after its complete machine state (header, MODE and 32 REG
# records, lines 1-34), the line of the second record for one thing, and
# what the error names: render_dump writes each of them once.
SECOND_RECORDS = {
    "cell": ("PHYS 131072 0000000000000005\nPHYS 131072 0000000000000006\n"
             "REG 05 0000000000000007 0000000000000007\n",
             36, "second PHYS record for cell 131072"),
    "register": ("REG 05 0000000000000007 0000000000000007\n",
                 35, "second REG 05 record"),
    "cipher": ("TLBMAP 00000000000000ab 131072\n"
               "TLBMAP 00000000000000ab 131073\n",
               36, "second TLBMAP record for 00000000000000ab"),
    "mode": ("OUT 7\nMODE user\n", 36, "second MODE record"),
}


@pytest.mark.parametrize("tail, line, message", SECOND_RECORDS.values(),
                         ids=SECOND_RECORDS)
def test_a_second_dump_record_for_one_thing_is_a_format_error(tail, line,
                                                              message):
    full = render_dump(SimView("super", [0] * 32, [0] * 32))
    with pytest.raises(FormatError) as info:
        parse_sim_dump(full + tail)
    assert str(info.value) == "line %d: %s" % (line, message)
    # one record for each, and any number of outputs, is a dump
    view = parse_sim_dump(full + "PHYS 131072 0000000000000005\n"
                          "TLBMAP 00000000000000ab 131072\nOUT 7\nOUT 7\n")
    assert (view.cells, view.tlb, view.outputs) == (
        {131072: 5}, {0xab: 131072}, [7, 7])
