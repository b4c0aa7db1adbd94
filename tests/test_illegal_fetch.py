"""Every way a fetch can end in the illegal-instruction trap, run on both
the pipeline and the reference interpreter.

Each image starts at 0x4000 with one ordinary instruction, follows it with
the offending word, and parks an exit no-op on the illegal vector. Both
machines must take the trap at the same pc and agree on the end state; the
pipeline's cycle count is frozen per case.
"""

import pytest

from kpusim.assembler import assemble
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.oracle import Interpreter, compare, engine_view
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF

CASES = [
    # (name, mode, offending lines, engine cycles)
    ("undecodable word", "super", ".word 0xFC000000", 12),
    ("undecodable word", "user", ".word 0xFC000000", 25),
    ("unmapped pc", "super", "l.j 64", 16),
    ("unmapped pc", "user", "l.j 64", 29),
    ("64-bit op", "user", "l.add64 r3, r1, r2", 25),
    ("rfe", "user", "l.rfe", 25),
    ("bare immediate body", "user", ".word 0x9C42FFFF", 25),
    ("body after a lone second prefix", "user",
     "l.prefix 1, 5\n    .word 0x9C42FFFF", 26),
]


def _source(mode, offending):
    return """.mode %s
.entry start
.org 0x4000
%sstart:
    l.addi r5, r0, 9
    %s
.org 0x700
    l.nop 1
""" % (mode, ".encrypt on\n" if mode == "user" else "", offending)


@pytest.mark.parametrize("name, mode, offending, cycles", CASES,
                         ids=["%s-%s" % (c[0], c[1]) for c in CASES])
def test_illegal_fetch_agrees_with_the_oracle(name, mode, offending, cycles):
    cdc = Codec(KEY)
    image = assemble(_source(mode, offending), cdc)
    engine = Engine(image, cdc)
    engine.run(max_cycles=1000)
    itp = Interpreter(image, cdc)
    result = itp.run(max_steps=100)

    assert engine.state.mode is Mode.SUPERVISOR
    assert itp.mode is Mode.SUPERVISOR
    assert engine.state.epcr == itp.epcr
    assert compare(engine_view(engine), result, cdc) == []
    assert engine.cycle == cycles
