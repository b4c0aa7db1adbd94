"""Every way a fetch can end in the illegal-instruction trap, run on both
the pipeline and the reference interpreter.

Each image starts at 0x4000 with one ordinary instruction, follows it with
the offending word, and parks an exit no-op on the illegal vector. Both
machines must take the trap at the same pc and agree on the end state; the
pipeline's cycle count is frozen per case. An illegal word at the vector
itself is a fault in supervisor mode, where the trap could only repeat.
"""

import pytest

from kit import CDC, run_both
from kpusim.assembler import parse_image
from kpusim.check import SimView, render_dump
from kpusim.core import Mode, VectorSpin
from kpusim.frontend import main
from kpusim.oracle import Interpreter
from kpusim.pipeline import Engine

CASES = [
    # (name, mode, offending lines, engine cycles)
    ("undecodable word", "super", ".word 0xFC000000", 12),
    ("undecodable word", "user", ".word 0xFC000000", 25),
    ("reserved bits set", "super", ".word 0x14000000", 12),
    ("reserved bits set", "user", ".word 0x14000000", 25),
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
    engine, itp = run_both(_source(mode, offending), max_cycles=1000,
                           max_steps=100)
    assert engine.state.mode is itp.mode is Mode.SUPERVISOR
    assert engine.state.epcr == itp.epcr
    assert engine.stats.cycles == cycles


# nothing decodes at 0x101 or at the vector: the supervisor trap lands on
# an illegal word again, which would trap to itself forever
SPIN_IMAGE = ("KPUIMG 1\nENTRY 0x00000101\nMODE super\n"
              "TEXT 0x00000100 15000001\n")


def test_illegal_vector_in_supervisor_mode_faults_at_once():
    image = parse_image(SPIN_IMAGE)
    engine = Engine(image, CDC)
    with pytest.raises(VectorSpin, match="illegal-instruction vector"):
        engine.run(max_cycles=1000)
    assert engine.stats.cycles <= 50
    itp = Interpreter(image, CDC)
    with pytest.raises(VectorSpin, match="illegal-instruction vector"):
        itp.run(max_steps=1000)
    assert itp.steps <= 50


def test_spinning_image_exits_1_from_every_command(tmp_path, capsys):
    img = tmp_path / "spin.img"
    img.write_text(SPIN_IMAGE)
    dump = tmp_path / "spin.dump"
    # a complete dump, so that compare gets as far as the reference's fault
    dump.write_text(render_dump(SimView("super", [0] * 32, [0] * 32)))
    for argv in (["run", str(img)], ["oracle", str(img)],
                 ["compare", str(img), str(dump)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fault: " in err
        assert "illegal-instruction vector 0x00000700" in err


def test_user_mode_carrier_at_the_vector_still_traps():
    # the trap enters supervisor mode, where the same l.sd is legal
    engine, itp = run_both(""".mode user
.entry start
.org 0x700
start:
    l.sd    0(r0), r0
    l.nop   1
""", max_cycles=1000, max_steps=100)
    assert engine.state.mode is Mode.SUPERVISOR
    assert engine.state.epcr == itp.epcr == 0x700
    assert engine.stats.cycles == 23
    assert itp.steps == 3
