"""The engine keeps what it learns about a pc at its first fetch, and the
reference interpreter what it learns at a pc's first execution, once per
mode: the same text word can be a different instruction to each mode.

Each program runs one shared stretch of text in supervisor mode first,
then again in user mode through an `l.rfe` whose EPCR points back at it.
An `.encrypt on` immediate is a plain immediate on the short plan in
supervisor mode and a latch-consuming plan-B immediate in user mode; an
`l.sd` is legal in supervisor mode and an illegal carrier in user mode.
Outputs, cycles and the interpreter's steps are frozen at their measured
values, and the two machines are checked against each other.

What a record keeps for its pc alone, a pc-relative target and a link's
return address, is checked on one block of words placed twice. And each
machine decodes a text word once for each (pc, mode) it reaches, the
shipped programs and the programs here alike.
"""

from collections import Counter
from pathlib import Path

import pytest

from kpusim import isa
from kpusim.assembler import Image, assemble, write_image
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.frontend import main
from kpusim.oracle import Interpreter, compare, engine_view
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF
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
    cdc = Codec(KEY)
    image = assemble(PROGRAM % shared, cdc)
    engine = Engine(image, cdc)
    engine.run(max_cycles=1000)
    itp = Interpreter(image, cdc)
    result = itp.run(max_steps=100)

    assert engine.outputs == outputs
    assert result.outputs == outputs
    assert engine.cycle == cycles
    assert result.steps == steps
    assert engine.state.mode is Mode.SUPERVISOR
    assert engine.state.epcr == itp.epcr == epcr
    assert compare(engine_view(engine), result, cdc) == []


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
    words = [isa.encode(isa.instruction(m, **f)) for m, f in BLOCK] * 2
    words.append(isa.encode(isa.instruction("l.nop", imm=1)))
    return Image(entry=COPIES[0], mode=mode,
                 text={COPIES[0] + 4 * i: w for i, w in enumerate(words)})


@pytest.mark.parametrize("mode, cycles", [("user", 47), ("super", 36)])
def test_each_copy_of_a_word_keeps_its_own_target_and_link(mode, cycles,
                                                           tmp_path, capsys):
    cdc = Codec(KEY)
    image = _twice_placed(mode)
    engine = Engine(image, cdc)
    engine.run(max_cycles=1000)
    itp = Interpreter(image, cdc)
    result = itp.run(max_steps=100)

    links = [base + 4 for base in COPIES]
    assert engine.outputs == result.outputs == links
    assert engine.cycle == cycles
    assert result.steps == 13
    records = engine._records_by_mode[Mode(mode)]
    oracle_records = itp._records_by_mode[Mode(mode)]
    for base in COPIES:
        assert records[base].target == base + 0x10
        assert records[base + 0x0C].target == base + 0x18
        assert records[base + 0x14].target == base + 0x04
        assert oracle_records[base][2] == base + 0x10
        assert oracle_records[base + 0x0C][2] == base + 0x18
        assert oracle_records[base + 0x14][2] == (True, base + 0x04)
    assert records[COPIES[0]].link != records[COPIES[1]].link

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


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_each_machine_decodes_once_per_pc_and_mode(name, monkeypatch):
    cdc = Codec(KEY)
    image = assemble(SOURCES[name], cdc)
    decoded = Counter()
    decode = isa.decode

    def counted(word):
        decoded[word] += 1
        return decode(word)

    monkeypatch.setattr(isa, "decode", counted)
    for machine in (Engine(image, cdc), Interpreter(image, cdc)):
        decoded.clear()
        machine.run()
        reached = [(pc, mode) for mode, records
                   in machine._records_by_mode.items() for pc in records]
        assert reached
        assert decoded == Counter(image.text[pc] for pc, _ in reached
                                  if pc in image.text)
