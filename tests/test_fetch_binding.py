"""Edge cases of operand forwarding, frozen at their measured outputs and
cycle counts and checked against the reference interpreter.

A consumer forwards from the youngest older in-flight writer of each
source. These programs pin the cases where "in flight" is easy to get
wrong: a writer on a flushed wrong path, writers on the far side of a trap
and return, a serialized special-register move that must wait for every
older slot, and a producer that retired before its consumer read it. The
last test checks that a long run does not keep its retired slots
reachable.
"""

import gc
import weakref

import pytest

from kpusim.assembler import assemble
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.oracle import Interpreter, compare, engine_view
from kpusim.pipeline import Engine, Slot

KEY = 0x00112233445566778899AABBCCDDEEFF

USER = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
"""

SUPER = """.mode super
.entry start
.org 0x100
start:
"""

WRONG_PATH = """    l.addi r5, r0, 1
    l.sfeq r0, r0
    l.bf   skip             # cold: predicted not taken, resolves taken
    l.addi r5, r0, 99       # wrong-path producer of r5, flushed
skip:
    l.add  r3, r5, r5       # refetched consumer must see r5 = 1
    l.nop  2
    l.nop  1
"""

ROUND_TRIP = """.mode user
.entry start
.org 0xc00
    l.sd   1000(r0), r5
    l.addi r5, r0, 1234     # supervisor producer of r5
    l.add  r6, r5, r5
    l.ld   r5, 1000(r0)
    l.rfe
.org 0x4000
.encrypt on
start:
    l.addi r5, r0, 21       # user producer of r5, retired before the trap
    l.sys  0
    l.add  r3, r5, r5       # first consumer after the return
    l.nop  2
    l.nop  1
"""

SERIALIZED = """    l.addi  r2, r0, 0x44
    l.lwz   r4, 8(r0)
    l.add   r6, r4, r4
    l.mtspr r0, r2, 40      # serialized: waits until every older slot drains
    l.mfspr r3, r0, 40
    l.nop   2
    l.nop   1
"""

RETIRED_FLAG = """    l.sfeq  r0, r0          # F = 1
    l.mtspr r0, r0, 17      # SR = 0: clears F after the compare retired
    l.bf    wrong           # reads F from the state, not from the compare
    l.addi  r3, r0, 1
    l.nop   2
    l.nop   1
wrong:
    l.addi  r3, r0, 2
    l.nop   2
    l.nop   1
"""

CASES = [
    # (name, source, outputs, cycles)
    ("wrong-path producer, user", USER + WRONG_PATH, [2], 32),
    ("wrong-path producer, super", SUPER + WRONG_PATH, [2], 14),
    ("sys/rfe round trip", ROUND_TRIP, [42], 47),
    ("serialized mtspr", SUPER + SERIALIZED, [0x44], 15),
    ("retired flag producer", SUPER + RETIRED_FLAG, [1], 12),
]


def _run(source):
    cdc = Codec(KEY)
    image = assemble(source, cdc)
    engine = Engine(image, cdc)
    engine.run(max_cycles=10_000)
    return engine, image, cdc


@pytest.mark.parametrize("name, source, outputs, cycles", CASES,
                         ids=[c[0] for c in CASES])
def test_forwarding_edge_case(name, source, outputs, cycles):
    engine, image, cdc = _run(source)
    result = Interpreter(image, cdc).run(max_steps=1000)
    assert engine.outputs == result.outputs == outputs
    assert compare(engine_view(engine), result, cdc) == []
    assert engine.cycle == cycles
    assert engine.stats.closes()


def test_retired_slots_are_not_kept_alive():
    cdc = Codec(KEY)
    image = assemble(USER + """    l.addi r1, r0, 300
top:
    l.addi r1, r1, -1       # each iteration reads the previous one's r1
    l.sfne r1, r0
    l.bf   top
    l.nop  1
""", cdc)
    engine = Engine(image, cdc)

    def first_producer():
        # the body of the first l.addi, head of the r1 dependence chain
        return next((cell for cell in engine.conveyor
                     if isinstance(cell, Slot)
                     and cell.record.instr.mnemonic == "l.addi"), None)

    while first_producer() is None:
        engine.step()
    ref = weakref.ref(first_producer())
    engine.run()
    gc.collect()
    assert engine.state.mode is Mode.USER and engine.halted
    assert ref() is None
