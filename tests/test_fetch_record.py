"""The engine keeps what it learns about a pc at its first fetch, and the
reference interpreter what it learns at a pc's first execution, once per
mode: the same text word can be a different instruction to each mode.

Each program runs one shared stretch of text in supervisor mode first,
then again in user mode through an `l.rfe` whose EPCR points back at it.
An `.encrypt on` immediate is a plain immediate on the short plan in
supervisor mode and a plan-B immediate its prefix pair seals in user
mode; an `l.sd` is legal in supervisor mode and an illegal carrier in
user mode.
Outputs, cycles and the interpreter's steps are frozen at their measured
values, and the two machines are checked against each other.

What a record keeps for its pc alone, a pc-relative target and a link's
return address, is checked by running one block of words placed twice:
each copy must print its own link and branch to its own targets. And
each machine calls isa.decode_at at most once for each (pc, mode), the
shipped programs and the programs here alike, with a jump onto the
immediate of a prefix pair the interpreter folded among them; the
interpreter reads a folded pair's prefixes from their bits and decodes
only the immediate.
"""

from collections import Counter
from pathlib import Path

import pytest

from kit import CDC, build, run_both
from kpusim import isa
from kpusim.assembler import Image, write_image
from kpusim.core import Mode
from kpusim.frontend import main
from kpusim.oracle import Interpreter
from kpusim.pipeline import Engine

ROOT = Path(__file__).resolve().parent.parent

PROGRAM = """.mode super
.entry start
.org 0x100
start:
    l.ori   r1, r0, shared
    l.mtspr r0, r1, 32      # EPCR: l.rfe returns to shared, in user mode
    l.ori   r3, r0, 40
shared:
%s
    l.nop   2
    l.rfe                   # in user mode: illegal, traps to 0x700
.org 0x700
    l.nop   1
"""

IMMEDIATE = """.encrypt on
    l.addi  r3, r3, 5
.encrypt off"""

STORE64 = """    l.sd    64(r0), r3
    l.addi  r3, r3, 1"""

CASES = [
    # (name, shared text, outputs, engine cycles, oracle steps, EPCR at
    # the exit)
    # supervisor adds the sign-extended low 16 bits of the ciphertext to
    # 40; user mode adds the decrypted 5 to that
    ("encrypted immediate", IMMEDIATE, [4294959076, 4294959081], 39, 10,
     0x11C),
    # supervisor stores and prints 41; user mode traps at the l.sd itself
    ("64-bit store", STORE64, [41], 34, 9, 0x10C),
]


@pytest.mark.parametrize("name, shared, outputs, cycles, steps, epcr", CASES,
                         ids=[c[0] for c in CASES])
def test_one_word_fetched_in_both_modes(name, shared, outputs, cycles, steps,
                                        epcr):
    engine, itp = run_both(PROGRAM % shared, max_cycles=1000, max_steps=100)
    assert engine.outputs == itp.outputs == outputs
    assert engine.stats.cycles == cycles
    assert itp.steps == steps
    assert engine.state.mode is Mode.SUPERVISOR
    assert engine.state.epcr == itp.epcr == epcr


# One block, placed at two pcs word for word: l.jal calls the block's
# subroutine, which sets the flag and branches back to the return point
# with l.bf; that prints the link and leaves with l.j. A target or link
# taken from the other copy sends the run round the wrong block.
BLOCK = [("l.jal", {"imm": 4}),             # +0x00: call +0x10
         ("l.or", {"rd": 3, "ra": 9, "rb": 0}),
         ("l.nop", {"imm": 2}),             # +0x08: print the link
         ("l.j", {"imm": 3}),               # +0x0c: to +0x18, past the block
         ("l.sfeq", {"ra": 0, "rb": 0}),    # +0x10: subroutine
         ("l.bf", {"imm": -4})]             # +0x14: back to +0x04
COPIES = (0x4000, 0x4018)


def _twice_placed(mode):
    words = [isa.encode_fields(isa.MNEMONICS[m], f) for m, f in BLOCK] * 2
    words.append(isa.encode_fields(isa.MNEMONICS["l.nop"], {"imm": 1}))
    return Image(entry=COPIES[0], mode=mode,
                 text={COPIES[0] + 4 * i: w for i, w in enumerate(words)})


@pytest.mark.parametrize("mode, cycles", [("user", 47), ("super", 36)])
def test_each_copy_of_a_word_keeps_its_own_target_and_link(mode, cycles,
                                                           tmp_path, capsys):
    image = _twice_placed(mode)
    engine, itp = run_both(image, max_cycles=1000, max_steps=100)

    # each copy prints its own link, and only its own targets bring the
    # run through both copies to the exit in 13 steps
    links = [base + 4 for base in COPIES]
    assert engine.outputs == itp.outputs == links
    assert engine.stats.cycles == cycles
    assert itp.steps == 13

    path = tmp_path / "twice.img"
    path.write_text(write_image(image))
    dump = tmp_path / "twice.dump"
    assert main(["run", str(path), "--dump", str(dump)]) == 0
    assert main(["compare", str(path), str(dump)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "MISMATCHES 0"


SOURCES = {name: (ROOT / name).read_text()
           for name in ("bench/is_add_test.s", "programs/encrypted_sum.s",
                        "programs/syscall_ticks.s")}
SOURCES.update((name, PROGRAM % shared) for name, shared, *_ in CASES)
# In user mode the triple runs folded and prints, then a jump lands on
# its immediate: illegal without its prefixes, so it traps, and the
# handler sends the run back to the triple until the third trap.
SOURCES["jump onto a folded immediate"] = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi  r3, r3, 5
    l.nop   2
    l.j     start + 8
.encrypt off
.org 0x700
    l.addi  r6, r6, 1
    l.ori   r7, r0, 3
    l.sfeq  r6, r7
    l.bf    done
    l.ori   r1, r0, start
    l.mtspr r0, r1, 32      # EPCR: l.rfe returns to start, in user mode
    l.rfe
done:
    l.nop   1
"""
# per case, a word of PROGRAM's shared stretch that both machines decode
# in both modes: its first, but for an encrypted immediate, whose first
# word is an index-0 prefix the interpreter reads by its bits in user
# mode, the immediate two words on
SHARED = {"encrypted immediate": 0x114, "64-bit store": 0x10C}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_each_machine_decodes_once_per_pc_and_mode(name, monkeypatch):
    image = build(SOURCES[name])
    decode_at = isa.decode_at
    for machine, mode_of in (
            (Engine(image, CDC), lambda engine: engine.state.mode),
            (Interpreter(image, CDC), lambda itp: itp.mode)):
        decoded = Counter()

        def counted(text, pc):
            decoded[pc, mode_of(machine)] += 1
            return decode_at(text, pc)

        monkeypatch.setattr(isa, "decode_at", counted)
        machine.run()
        assert machine.outputs
        assert set(decoded.values()) == {1}, decoded
        if name in SHARED:
            assert {(SHARED[name], Mode.SUPERVISOR),
                    (SHARED[name], Mode.USER)} <= set(decoded)
