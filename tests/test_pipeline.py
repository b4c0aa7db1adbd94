"""Cycle-level behaviour of the dual-depth pipeline.

The pairwise timing rules, what a consumer pays at each distance from
each producer in each mode, are one table in tests/test_hazard_matrix.py.
The timing facts here are the ones a pair does not show, frozen as exact
stall/refill/cycle counts on minimal programs: a consumer of two producers
in flight, a chain of held consumers, the fill depth, branch prediction
over a loop, the prefix latch and the trap plumbing; then the run budget
and the cost guards of the per-cycle and per-step paths.
"""

import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from kpusim.assembler import assemble
from kpusim.codec import Codec
from kpusim.core import BudgetExhausted, Mode
from kpusim.isa import InstrClass
from kpusim.oracle import Interpreter
from kpusim.pipeline import (BranchPredictionBuffer, Engine, MissingPrefix,
                             PrefixLatch, consume_prefixes)

KEY = 0x00112233445566778899AABBCCDDEEFF

# Boot shim: set up both vectors, drop to user code at 0x4000.
HEAD = """.mode super
.entry boot
.org 0x100
boot:
    l.addi  r31, r0, ustart
    l.mtspr r0, r31, 32
    l.rfe
.org 0x700
    l.nop   1
.org 0xC00
    l.rfe
.org 0x4000
.encrypt on
ustart:
"""


def run(body, head=HEAD, **kw):
    cdc = Codec(KEY)
    image = assemble(head + body, cdc)
    engine = Engine(image, cdc, **kw)
    engine.run()
    return engine


def counts(engine, mode=Mode.USER):
    ms = engine.stats.mode(mode)
    return ms.stalls, ms.refills, ms.cycles


# ----------------------------------------------------------- prefix latch --

def test_prefix_latch_protocol():
    latch = PrefixLatch()
    latch.feed(0, 0xAAAAAA)
    latch.feed(1, 0xBBBBBB)
    assert latch.full
    block = consume_prefixes(latch, 0xCCCC)
    assert block == (0xAAAAAA << 40) | (0xBBBBBB << 16) | 0xCCCC
    assert not latch.full


def test_prefix_latch_rejects_wrong_order():
    latch = PrefixLatch()
    latch.feed(1, 0xBBBBBB)          # second half with no first half
    assert not latch.full
    with pytest.raises(MissingPrefix):
        consume_prefixes(latch, 0xCCCC)
    latch.feed(0, 0x111111)
    latch.feed(0, 0x222222)          # restart overwrites, clears the pair
    latch.feed(1, 0x333333)
    assert consume_prefixes(latch, 1) == (0x222222 << 40) | (0x333333 << 16) | 1


# -------------------------------------------------------------- predictor --

def test_bpb_basics():
    bpb = BranchPredictionBuffer(entries=4)
    hit, taken, target = bpb.lookup(0x4000)
    assert (hit, taken, target) == (False, False, 0x4004)
    bpb.update(0x4000, True, 0x4100)
    assert bpb.lookup(0x4000) == (True, True, 0x4100)
    # direct-mapped: 0x4010 shares slot 0 with 0x4000 and evicts it
    bpb.update(0x4010, False, 0x4014)
    assert bpb.lookup(0x4000)[0] is False


# ------------------------------------------------------------ user timing --

def test_consumer_waits_for_the_later_of_two_producers():
    # r5's sealed immediate forwards at its X; the load misses, so r2 comes
    # three cycles later, after the cell decrypt. Both are in flight, their
    # ready cycles known, when the add at R works out its wake cycle.
    eng = run("""    l.addi r5, r0, 9
    l.lwz  r2, 256(r0)
    l.add  r3, r5, r2
    l.nop  2
    l.nop  1
""")
    assert counts(eng) == (12, 15, 34)
    assert eng.stats.cycles == 43
    assert eng.outputs == [(eng.state.codec.decrypt(0) + 9) & 0xFFFFFFFF]


def test_held_consumers_wait_out_each_producer():
    # Each add waits at R for a producer still on its way to its X or M:
    # the sealed immediate (10 stalls), the load hit (2) and the load miss
    # (12), each counted once. The boot shim's serialized l.mtspr waits in
    # supervisor mode until the two older slots have left.
    eng = run("""    l.addi r1, r0, 5
    l.add  r2, r1, r1
    l.sw   0(r0), r1
    l.lwz  r3, 0(r0)
    l.add  r4, r3, r2
    l.lwz  r5, 256(r0)
    l.add  r6, r5, r4
    l.nop  1
""")
    assert counts(eng) == (24, 15, 49)          # 10 + 2 (hit) + 12 (miss)
    assert counts(eng, Mode.SUPERVISOR) == (1, 5, 9)


def test_lone_nop_measures_fill_depth():
    eng = run("    l.nop  1\n")
    assert counts(eng) == (0, 15, 16)
    sup = run("", head=""".mode super
.entry boot
.org 0x100
boot:
    l.nop  1
""")
    assert counts(sup, Mode.SUPERVISOR) == (0, 5, 6)


# --------------------------------------------------------------- branches --

def test_cold_taken_branch_mispredicts():
    eng = run("""    l.sfeq r0, r0
    l.bf   over
    l.addi r5, r0, 1
    l.addi r6, r0, 2
over:
    l.nop  1
""")
    stalls, refills, cycles = counts(eng)
    assert (stalls, refills, cycles) == (0, 18, 21)   # 15 fill + 3 flush
    assert (eng.bpb.hits, eng.bpb.misses) == (0, 1)
    assert eng.bpb.misses_right == 0
    # the wrong-path immediates never complete
    assert eng.stats.mode(Mode.USER).completions[InstrClass.IMMEDIATE] == 0


def test_cold_not_taken_branch_predicts_right():
    eng = run("""    l.sfne r0, r0
    l.bf   over
    l.addi r5, r0, 1
    l.addi r6, r0, 2
over:
    l.nop  1
""")
    stalls, refills, cycles = counts(eng)
    assert (refills, cycles) == (15, 24)
    assert (eng.bpb.misses, eng.bpb.misses_right) == (1, 1)


def test_loop_branch_prediction_breakdown():
    eng = run("""    l.addi r1, r0, 4
top:
    l.addi r1, r1, -1
    l.sfne r1, r0
    l.bf   top
    l.nop  1
""")
    bpb = eng.bpb
    # four executions: cold wrong, two recorded hits right, exit hit wrong
    assert (bpb.misses, bpb.misses_right) == (1, 0)
    assert (bpb.hits, bpb.hits_right) == (3, 2)
    assert counts(eng) == (40, 21, 85)


# ------------------------------------------------------------------- traps --

def test_missing_prefix_traps_to_illegal_vector():
    eng = run("""    l.addi r1, r0, 3
    .word  0x9C42FFFF
    l.nop  1
""")
    assert eng.halted
    assert eng.state.mode is Mode.SUPERVISOR
    assert eng.state.epcr == 0x400C        # the bare immediate word
    assert eng.stats.mode(Mode.USER).completions[InstrClass.SYSTRAP] == 1


def test_syscall_round_trip_preserves_context():
    eng = run("""    l.addi r20, r0, 1234
    l.sfeq r0, r0
    l.sys  0
    l.bf   good
    l.addi r20, r0, 0
good:
    l.add  r3, r20, r0
    l.nop  2
    l.nop  1
""")
    # r20 and the flag both survive the trap and the return
    assert eng.outputs == [1234]
    assert eng.halted


def test_mfspr_serializes_behind_flag_writers():
    head = """.mode super
.entry boot
.org 0x100
boot:
    l.addi  r1, r0, -1
    l.addi  r2, r0, 1
    l.add   r3, r1, r2
    l.add   r4, r2, r2
    l.mfspr r5, r0, 17
    l.add   r3, r5, r0
    l.nop   2
    l.nop   1
"""
    assert run("", head=head).outputs == [1]          # SM only: CY cleared
    swapped = head.replace("""    l.add   r3, r1, r2
    l.add   r4, r2, r2
""", """    l.add   r4, r2, r2
    l.add   r3, r1, r2
""")
    assert run("", head=swapped).outputs == [1025]    # SM | CY


def test_branch_reads_nearest_older_set_flag():
    body = """    l.addi r3, r0, 1
    l.sfeq r0, r0
    l.sfne r0, r0
    l.bf   other
    l.nop  2
    l.nop  1
other:
    l.addi r3, r0, 2
    l.nop  2
    l.nop  1
"""
    assert run(body).outputs == [1]
    flipped = body.replace("""    l.sfeq r0, r0
    l.sfne r0, r0
""", """    l.sfne r0, r0
    l.sfeq r0, r0
""")
    assert run(flipped).outputs == [2]


def test_call_and_return_through_link_register():
    eng = run("""    l.addi r4, r0, 20
    l.jal  double
    l.add  r3, r5, r0
    l.nop  2
    l.nop  1
double:
    l.add  r5, r4, r4
    l.jr   r9
""")
    assert eng.outputs == [40]


# ------------------------------------------------------------- accounting --

def test_stats_closure_on_mixed_programs():
    bodies = [
        "    l.nop  1\n",
        """    l.addi r1, r0, 9
    l.sw   0(r0), r1
    l.lwz  r2, 0(r0)
    l.sys  0
    l.add  r3, r2, r1
    l.nop  2
    l.nop  1
""",
        """    l.addi r1, r0, 3
top:
    l.addi r1, r1, -1
    l.sfne r1, r0
    l.bf   top
    l.nop  1
""",
    ]
    for body in bodies:
        eng = run(body)
        assert eng.stats.closes()
        for mode in (Mode.USER, Mode.SUPERVISOR):
            ms = eng.stats.mode(mode)
            assert ms.instructions + ms.stalls + ms.refills == ms.cycles


def test_trace_line_shape():
    lines = []
    run("", head=""".mode super
.entry boot
.org 0x100
boot:
    l.addi r1, r0, 3
    l.add  r2, r1, r1
    l.nop  1
""", trace=lines.append)
    assert lines[1] == "cycle 1 | F:0x00000100:l.addi"
    assert lines[2] == "cycle 2 | D:0x00000100:l.addi F:0x00000104:l.add"
    shape = re.compile(r"^cycle \d+ \| ?((C\d+|[FDRXMW]):0x[0-9a-f]{8}:l\.\w+ ?)*$")
    for line in lines:
        assert shape.match(line), line


# ------------------------------------------------------------------- run --

ROOT = Path(__file__).resolve().parent.parent
IS_ADD_CYCLES = 2357            # bench/is_add_test.s under KEY


def _engine(path):
    cdc = Codec(KEY)
    return Engine(assemble((ROOT / path).read_text(), cdc), cdc)


@pytest.mark.parametrize("path", ["bench/is_add_test.s"] + sorted(
    "programs/" + p.name for p in (ROOT / "programs").glob("*.s")))
def test_run_steps_once_per_cycle(path, monkeypatch):
    steps = Counter()
    step = Engine.step

    def counted(self):
        steps["step"] += 1
        return step(self)

    monkeypatch.setattr(Engine, "step", counted)
    engine = _engine(path)
    engine.run()
    assert engine.halted
    assert steps["step"] == engine.stats.cycles > 0


def test_run_on_a_halted_engine_does_not_step():
    engine = _engine("bench/is_add_test.s")
    engine.run()
    assert engine.stats.cycles == IS_ADD_CYCLES
    assert engine.run() is engine.state
    assert engine.stats.cycles == IS_ADD_CYCLES


def test_run_budget_is_a_count_of_cycles():
    engine = _engine("bench/is_add_test.s")
    engine.run(max_cycles=IS_ADD_CYCLES)
    assert engine.halted and engine.stats.cycles == IS_ADD_CYCLES
    engine = _engine("bench/is_add_test.s")
    short = IS_ADD_CYCLES - 1
    with pytest.raises(BudgetExhausted,
                       match="^no exit within a budget of %d$" % short):
        engine.run(max_cycles=short)
    assert not engine.halted and engine.stats.cycles == short
    # a budget counts from cycle 0, not from where a second run starts
    with pytest.raises(BudgetExhausted):
        engine.run(max_cycles=short)
    assert engine.stats.cycles == short
    engine.run(max_cycles=IS_ADD_CYCLES)
    assert engine.halted and engine.stats.cycles == IS_ADD_CYCLES


# ----------------------------------------------------------- cost guards --

def python_calls(fn):
    """fn(), and the Python-level calls it made (fn's own not counted), by
    code object, as sys.setprofile reports them."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    calls[fn.__code__] -= 1
    return calls


def test_engine_python_calls_per_cycle():
    # A cost guard on the per-cycle path, the same count on every CPython
    # from 3.10 to 3.13: 6.76 calls a cycle when step() called _fetch,
    # each execute handler _read per operand and every held cell _wake;
    # 4.79 with those in step().
    engine = _engine("bench/is_add_test.s")
    calls = python_calls(engine.run)
    assert calls[Engine.step.__code__] == engine.stats.cycles == IS_ADD_CYCLES
    assert sum(calls.values()) / IS_ADD_CYCLES <= 5.2


def test_oracle_python_calls_per_step():
    # The same guard on Interpreter.step: 4.25 calls a step when it cleared
    # the prefix latch through PrefixLatch.clear and compare_flag called
    # to_signed; 3.34 without.
    cdc = Codec(KEY)
    itp = Interpreter(assemble((ROOT / "bench/is_add_test.s").read_text(),
                               cdc), cdc)
    calls = python_calls(itp.run)
    assert itp.halted
    assert sum(calls.values()) / calls[Interpreter.step.__code__] <= 3.5
