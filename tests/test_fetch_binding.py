"""Edge cases of operand forwarding, frozen at their measured outputs and
cycle counts and checked against the reference interpreter.

A consumer forwards from the youngest older in-flight writer of each
source. These programs pin the cases where "in flight" is easy to get
wrong: a writer on a flushed wrong path, writers on the far side of a trap
and return, a serialized special-register move that must wait for every
older slot, and a producer that retired before its consumer read it. The
last test checks, for each kind of link a slot binds (ra, the flag, rb),
that a long run's memory does not grow with its length: a run that kept
its retired slots reachable would.
"""

import pytest

from kit import CDC, build, run_both
from kpusim.pipeline import Engine
from test_cipher_memo import _run_peak

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


@pytest.mark.parametrize("name, source, outputs, cycles", CASES,
                         ids=[c[0] for c in CASES])
def test_forwarding_edge_case(name, source, outputs, cycles):
    engine, result = run_both(source, max_cycles=10_000, max_steps=1000)
    assert engine.outputs == result.outputs == outputs
    assert engine.stats.cycles == cycles


# A slot kept alive per pass costs some 40 KB over the 150 extra passes;
# a run that keeps none peaks within a few hundred bytes at either length
GROWTH_MARGIN = 4096


def _loop_peak(loop, passes):
    """The tracemalloc peak of Engine.run over `loop` at `passes`, in user
    mode."""
    return _run_peak(Engine(build(USER + loop % passes), CDC))


# (name, loop): each loop links its slots into a chain through one kind
# of operand, so a run that kept retired slots reachable would grow with
# its passes
LINKS = [
    # each l.addi reads the previous one's r1 through its ra link
    ("ra", """    l.addi r1, r0, %d
top:
    l.addi r1, r1, -1
    l.sfne r1, r0
    l.bf   top
    l.nop  1
"""),
    # the flag link of each l.bf reaches its l.sfne, whose ra link reaches
    # the l.addi chain
    ("flag", """    l.addi r1, r0, %d
top:
    l.sfne r1, r0
    l.addi r1, r1, -1
    l.bf   top
    l.nop  1
"""),
    # the store's data operand (rb) reaches the l.or, whose rb link each
    # pass's l.or follows on to the one before
    ("store data", """    l.addi r1, r0, %d
    l.or   r2, r0, r1
top:
    l.addi r1, r1, -1
    l.sfne r1, r0
    l.sw   0(r0), r2
    l.or   r2, r0, r2
    l.bf   top
    l.nop  1
"""),
]


@pytest.mark.parametrize("name, loop", LINKS, ids=[c[0] for c in LINKS])
def test_retirement_cuts_every_kind_of_link(name, loop):
    short, long = _loop_peak(loop, 50), _loop_peak(loop, 200)
    assert long - short <= GROWTH_MARGIN, (short, long)
