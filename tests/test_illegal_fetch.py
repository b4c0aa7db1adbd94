"""Every way a fetch can end in the illegal-instruction trap, run on both
the pipeline and the reference interpreter.

Each image starts at 0x4000 with one ordinary instruction, follows it with
the offending word, and parks an exit no-op on the illegal vector. Both
machines must take the trap at the same pc and agree on the end state; the
pipeline's cycle count is frozen per case. An illegal word at the vector
itself is a fault in supervisor mode, where the trap could only repeat.
"""

import pytest

from kpusim.assembler import assemble, parse_image
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.frontend import main
from kpusim.oracle import Interpreter, OracleFault, compare, engine_view
from kpusim.pipeline import Engine, SimulationFault

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


# nothing decodes at 0x101 or at the vector: the supervisor trap lands on
# an illegal word again, which would trap to itself forever
SPIN_IMAGE = ("KPUIMG 1\nENTRY 0x00000101\nMODE super\n"
              "TEXT 0x00000100 15000001\n")


def test_illegal_vector_in_supervisor_mode_faults_at_once():
    cdc = Codec(KEY)
    image = parse_image(SPIN_IMAGE)
    engine = Engine(image, cdc)
    with pytest.raises(SimulationFault, match="illegal-instruction vector"):
        engine.run(max_cycles=1000)
    assert engine.cycle <= 50
    itp = Interpreter(image, cdc)
    with pytest.raises(OracleFault, match="illegal-instruction vector"):
        itp.run(max_steps=1000)
    assert itp.steps <= 50


def test_spinning_image_exits_1_from_every_command(tmp_path, capsys):
    img = tmp_path / "spin.img"
    img.write_text(SPIN_IMAGE)
    dump = tmp_path / "spin.dump"
    dump.write_text("KPUDUMP 1\n")
    for argv in (["run", str(img)], ["oracle", str(img)],
                 ["compare", str(img), str(dump)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fault: " in err
        assert "illegal-instruction vector 0x00000700" in err


def test_user_mode_carrier_at_the_vector_still_traps():
    # the trap enters supervisor mode, where the same l.sd is legal
    cdc = Codec(KEY)
    image = assemble(""".mode user
.entry start
.org 0x700
start:
    l.sd    0(r0), r0
    l.nop   1
""", cdc)
    engine = Engine(image, cdc)
    engine.run(max_cycles=1000)
    itp = Interpreter(image, cdc)
    result = itp.run(max_steps=100)
    assert engine.state.mode is Mode.SUPERVISOR
    assert engine.state.epcr == itp.epcr == 0x700
    assert compare(engine_view(engine), result, cdc) == []
    assert engine.cycle == 23
    assert result.steps == 3
