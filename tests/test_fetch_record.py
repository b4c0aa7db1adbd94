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
"""

import pytest

from kpusim.assembler import assemble
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.oracle import Interpreter, compare, engine_view
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF

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
