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

from kit import CDC, build
from kpusim.core import BudgetExhausted, Mode
from kpusim.isa import InstrClass
from kpusim.oracle import Interpreter
from kpusim.pipeline import (BranchPredictionBuffer, Engine, MissingPrefix,
                             PrefixLatch, consume_prefixes)

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
    engine = Engine(build(head + body), CDC, **kw)
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
IS_ADD_CYCLES = 2357            # bench/is_add_test.s under kit.KEY


def _engine(path):
    return Engine(build((ROOT / path).read_text()), CDC)


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
    # 4.79 with those in step(); 4.71 once the prefix pair folded in the
    # oracle; 4.04 since step() fills a fetched slot's fields itself, with
    # no Slot.__init__ call; 3.99 since a set-flag's kernel is bound at
    # fetch, and l.sfne's is operator.ne, no Python-level call.
    engine = _engine("bench/is_add_test.s")
    calls = python_calls(engine.run)
    assert calls[Engine.step.__code__] == engine.stats.cycles == IS_ADD_CYCLES
    assert sum(calls.values()) / IS_ADD_CYCLES <= 4.4


def test_oracle_python_calls_per_step():
    # The same guard on Interpreter.step, one call per step now that a
    # prefix pair and its immediate are one record: 4.25 calls a step when
    # step() cleared the latch through PrefixLatch.clear and compare_flag
    # called to_signed, 4.02 (3.34 per step() call) while each prefix was
    # a step() call of its own, 3.06 with the fold, 2.95 (3.04 before)
    # with each record's kernel bound, l.sfne's being operator.ne.
    itp = Interpreter(build((ROOT / "bench/is_add_test.s").read_text()), CDC)
    calls = python_calls(itp.run)
    assert itp.halted
    assert calls[Interpreter.step.__code__] == itp.steps == 1294
    assert sum(calls.values()) / itp.steps <= 3.2


def bytecodes(fn):
    """The bytecodes fn() runs, counted as sys.settrace opcode events."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        elif event == "call":
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        return trace

    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
    return count


# Bytecodes per engine cycle and per oracle step on bench/is_add_test.s,
# the same count on every run of one CPython version. Measured:
#
#                                 3.10.13  3.11.7  3.12.1  3.13.0
#   engine, per cycle, bubbles
#     of a class of their own       358.5   356.0   350.1   347.5
#   engine, per cycle, every
#     cell a Slot                   362.1   359.9   354.6   353.4
#   oracle, per step, one step()
#     call per word                 152.2   156.0   148.5   140.6
#   oracle, per step, a prefix
#     pair folded into its immediate 132.2  135.7   129.9   122.6
#   engine, per cycle, kernels
#     bound at fetch                356.4   354.3   349.0   347.6
#   oracle, per step, kernels
#     bound and successor pcs
#     in the records                117.6   120.8   115.0   105.3
#
# The engine's ceiling stays at 370; the oracle's is 125. Making every cell a Slot added about
# four bytecodes a cycle and still made a cycle faster: a site that sees
# one class keeps CPython 3.11's specialized attribute reads. A count is
# a proxy for cost, not the cost.
@pytest.mark.parametrize("machine, ceiling", [(Engine, 370),
                                              (Interpreter, 125)],
                         ids=["engine", "oracle"])
def test_bytecodes_per_cycle_and_step(machine, ceiling):
    image = build((ROOT / "bench/is_add_test.s").read_text())
    # CPython 3.12 reports no opcode event in a process's first traced
    # call, and 3.13 none in a code object's first traced frame (run()'s
    # own loop, here): a short traced run first makes the count exact
    with pytest.raises(BudgetExhausted):
        bytecodes(lambda: machine(image, CDC).run(20))
    run = machine(image, CDC)
    count = bytecodes(run.run)
    assert count / (run.stats.cycles if machine is Engine
                    else run.steps) <= ceiling
