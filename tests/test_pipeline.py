"""Cycle-level behaviour of the dual-depth pipeline.

The interesting timing facts are frozen here as exact stall/refill/cycle
counts measured on minimal programs: the load-use gaps in both modes, the
zero-cost adjacent chains, the decrypt latency a register consumer pays
for an immediate producer, branch mispredict refills, and the trap plumbing.
"""

import re
from collections import Counter

import pytest

from kpusim.assembler import Image, assemble
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.isa import InstrClass
from kpusim.pipeline import (_FETCH, LONG_A, LONG_B, SHORT,
                             BranchPredictionBuffer, Engine, MissingPrefix,
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


# ------------------------------------------------------------------ plans --

def test_plan_shapes():
    assert len(SHORT) == 5
    assert len(LONG_A) == len(LONG_B) == 16
    assert SHORT == ("F", "D", "R", "X", "W")
    assert LONG_A.index("X") == 3 and LONG_A.index("M") == 4
    assert LONG_B.index("R") == 12 and LONG_B.index("X") == 13
    assert LONG_A[5:15] == tuple("C%d" % i for i in range(1, 11))
    assert LONG_B[2:12] == tuple("C%d" % i for i in range(1, 11))


def test_plan_by_class_and_mode():
    # (mnemonic, nop code, mode) -> entry; entry[2] is the plan
    assert _FETCH["l.addi", 0, Mode.SUPERVISOR][2] is SHORT
    assert _FETCH["l.addi", 0, Mode.USER][2] is LONG_B
    assert _FETCH["l.add", 0, Mode.USER][2] is LONG_A
    assert _FETCH["l.lwz", 0, Mode.USER][2] is LONG_A
    for mode, depth in ((Mode.USER, 16), (Mode.SUPERVISOR, 5)):
        image = Image(entry=0x4000, mode=mode.value, text={0x4000: 0})
        assert len(Engine(image, Codec(KEY)).conveyor) == depth


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

def test_user_load_use_hit_costs_two_stalls():
    dep = run("""    l.addi r1, r0, 5
    l.sw   0(r0), r1
    l.lwz  r2, 0(r0)
    l.add  r3, r2, r2
    l.nop  1
""")
    ind = run("""    l.addi r1, r0, 5
    l.sw   0(r0), r1
    l.lwz  r2, 0(r0)
    l.add  r3, r1, r1
    l.nop  1
""")
    assert counts(dep) == (12, 15, 34)
    assert counts(ind) == (10, 15, 32)   # two cycles are the load-use gap


def test_user_load_use_miss_costs_twelve_stalls():
    # the loaded address was never stored, so the cache cannot help and
    # the consumer waits out the full cell decrypt on top of the gap
    eng = run("""    l.addi r1, r0, 5
    l.sw   0(r0), r1
    l.lwz  r2, 256(r0)
    l.add  r3, r2, r2
    l.nop  1
""")
    assert counts(eng) == (22, 15, 44)


def test_adjacent_register_chain_runs_clean():
    eng = run("""    l.addi r1, r0, 5
    l.add  r2, r1, r1
    l.add  r3, r2, r2
    l.add  r4, r3, r3
    l.nop  1
""")
    # ten stalls buy the first add its decrypted immediate; the A-to-A
    # forwards after that are free
    assert counts(eng) == (10, 15, 32)


def test_adjacent_immediate_chain_runs_clean():
    eng = run("""    l.addi r1, r0, 1
    l.addi r2, r1, 2
    l.addi r3, r2, 3
    l.addi r4, r3, 4
    l.nop  1
""")
    assert counts(eng) == (0, 15, 28)    # B-to-B lines up with the codec


def test_immediate_feeding_register_pays_decrypt_latency():
    eng = run("""    l.addi r1, r0, 5
    l.addi r10, r0, 7
    l.add  r11, r10, r10
    l.add  r4, r1, r1
    l.nop  1
""")
    assert counts(eng) == (10, 15, 34)


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


def test_held_consumer_asks_for_its_wake_from_its_bound_on(monkeypatch):
    # A consumer at R whose producer has still to reach its X or M cannot
    # leave before the producer gets there, one position a cycle at most,
    # so step() asks _wake again only from that cycle on. The bound is
    # exact for a sealed immediate, which nothing holds on its way to X at
    # 13: its register consumer asks twice over ten stalls. A load's data
    # comes a cycle after M, eleven more on a miss, so there the bound is
    # short, and only the answer _wake gives once M has run is the wake.
    calls = Counter()
    wake = Engine._wake

    def counted(self, idx, cell, n):
        calls[cell.record.pc] += 1
        return wake(self, idx, cell, n)

    monkeypatch.setattr(Engine, "_wake", counted)
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
    # the three adds: after the immediate, the load hit, the load miss
    assert [calls[pc] for pc in (0x400C, 0x4018, 0x4020)] == [2, 2, 2]


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


# --------------------------------------------------------- supervisor timing --

def test_supervisor_load_use_costs_one_stall():
    dep = run("", head=""".mode super
.entry boot
.org 0x100
boot:
    l.addi r1, r0, 5
    l.sw   8(r0), r1
    l.lwz  r2, 8(r0)
    l.add  r3, r2, r2
    l.nop  1
""")
    ind = run("", head=""".mode super
.entry boot
.org 0x100
boot:
    l.addi r1, r0, 5
    l.sw   8(r0), r1
    l.lwz  r2, 8(r0)
    l.add  r3, r1, r1
    l.nop  1
""")
    assert counts(dep, Mode.SUPERVISOR) == (1, 5, 11)
    assert counts(ind, Mode.SUPERVISOR) == (0, 5, 10)


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
