"""Replay is exact: an engine that replays the recorded cycles of states it
has seen ends exactly as one that decides every cycle.

An engine decides every cycle while KNOCK_HITS is out of its reach, as
under a trace; otherwise it replays a loop's rounds once their back edge
was predicted taken KNOCK_HITS times and a state there recurs. Each case
runs both engines, at the shipped threshold and at 1, where replay
engages within a loop's first rounds and so reaches the paths a short
loop takes: a state left with no recorded cycle, and an outcome or a
prediction other than the one a state recorded. The state compared is
what any command reads: the stats in total, per mode and per class, the
outputs, both register banks, the flags, the pc and mode, the physical
view of memory, the cache counters, and the branch prediction buffer's
entries and counters.
"""

import math
from pathlib import Path

import pytest

import corpus
from kit import CDC, build, sweep_source
from kpusim import isa, pipeline
from kpusim.codec import ProgramFault
from kpusim.core import Mode
from kpusim.isa import InstrClass
from kpusim.pipeline import KNOCK_HITS, Engine
from kpusim.progen import generate_source

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = ["bench/is_add_test.s"] + sorted(
    "programs/" + p.name for p in (ROOT / "programs").glob("*.s"))
SWEEPS = corpus.SWEEPS
IS_ADD = (ROOT / "bench" / "is_add_test.s").read_text()

# a supervisor loop that stores one cell further each round, until its
# address leaves the supervisor region (1 MiB) in round 25
WALK = """.mode super
.entry start
.org 0x100
start:
    l.ori  r14, r0, 0xfff4
    l.slli r14, r14, 4
    l.addi r2, r0, 100
walk:
    l.sd   0(r14), r2
    l.addi r14, r14, 8
    l.addi r2, r2, -1
    l.sfne r2, r0
    l.bf   walk
    l.nop  1
"""

# A user loop of 12 rounds whose back edge's target holds two words and
# then a sealed l.addi, its index-0 prefix 8 bytes past the target: the
# loop's exit is predicted taken, and the flush takes that prefix, fetched
# on the wrong path. The fall-through holds a lone index-1 prefix and a
# bare l.addi word, which nothing seals: it traps to the
# illegal-instruction vector, which prints r3 and exits.
FLUSHED_PREFIX = """.mode user
.entry start
.org 0x700
    l.nop   2
    l.nop   1
.org 0x4000
.encrypt on
start:
    l.addi  r2, r0, 12
loop:
    l.add   r4, r4, r3
    l.or    r5, r4, r4
    l.addi  r3, r3, 7
    l.addi  r2, r2, -1
    l.sfne  r2, r0
    l.bf    loop
    .word   0x%08x
    .word   0x%08x
""" % (isa.P1_TAG | 0x123456, isa.encode_fields(isa.MNEMONICS["l.addi"],
                                               {"rd": 3, "ra": 3, "imm": 5}))


def end_state(engine):
    st, cache, bpb = engine.state, engine.mem.cache, engine.bpb
    return (engine.stats.cycles, engine.halted, list(engine.outputs),
            {mode: (dict(ms.completions), ms.stalls, ms.refills)
             for mode, ms in engine.stats.per_mode.items()},
            list(st.regs), list(st.shadow), st.flag_f, st.flag_cy,
            st.flag_ov, st.mode, st.pc, engine.mem.physical_view(),
            (cache.read_hits, cache.read_misses, cache.write_hits,
             cache.write_misses),
            dict(bpb.entries),
            (bpb.hits_right, bpb.hits_wrong, bpb.misses_right,
             bpb.misses_wrong))


def outcome(engine, budget):
    """How engine.run(budget) ends: None, or the fault's class and text."""
    try:
        engine.run(budget)
    except ProgramFault as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.fixture(params=[KNOCK_HITS, 1], ids=["shipped", "knock 1"])
def knock(request, monkeypatch):
    monkeypatch.setattr(pipeline, "KNOCK_HITS", request.param)
    return request.param


def both(image, budget=pipeline.DEFAULT_MAX_CYCLES, **options):
    """(stepped, replayed) engines of `image` after run(budget), each
    with its outcome; the replayed one counts the cycles it replayed."""
    stepped = Engine(image, CDC, **options)
    replayed = Engine(image, CDC, **options)
    return ((stepped, decided(stepped, budget)),
            (replayed, counted(replayed, budget)))


def decided(engine, budget):
    """outcome(engine, budget) with KNOCK_HITS out of reach, so the
    engine decides every cycle, untraced: its memo stays empty."""
    knock, pipeline.KNOCK_HITS = pipeline.KNOCK_HITS, math.inf
    try:
        ends = outcome(engine, budget)
    finally:
        pipeline.KNOCK_HITS = knock
    assert engine.memo == {}
    return ends


def counted(engine, budget):
    """outcome(engine, budget), counting in engine.replayed the cycles
    that started from a state with a recorded cycle."""
    engine.replayed = 0
    step = engine.step

    def counting():
        engine.replayed += engine.replaying
        step()

    engine.step = counting
    try:
        return outcome(engine, budget)
    finally:
        del engine.step


def assert_alike(image, budget=pipeline.DEFAULT_MAX_CYCLES, **options):
    (stepped, ends), (replayed, endr) = both(image, budget, **options)
    assert endr == ends
    assert end_state(replayed) == end_state(stepped)
    return replayed


@pytest.mark.parametrize("path", PROGRAMS)
def test_shipped_programs_end_alike(path, knock):
    engine = assert_alike(build((ROOT / path).read_text()))
    assert engine.halted
    if path == "bench/is_add_test.s":
        # both loops of 64 rounds replay
        assert engine.replayed > engine.stats.cycles * 0.7


@pytest.mark.parametrize("cells, passes, total", SWEEPS,
                         ids=["%d x %d%s" % (c, p, " total" if t else "")
                              for c, p, t in SWEEPS])
def test_corpus_sweeps_end_alike(cells, passes, total, knock):
    engine = assert_alike(build(sweep_source(cells, passes, total)))
    assert engine.halted
    assert engine.replayed > engine.stats.cycles * 0.8


PROGEN_SEEDS = range(20)


@pytest.mark.parametrize("seed", PROGEN_SEEDS)
def test_progen_images_end_alike(seed, knock):
    engine = assert_alike(build(generate_source(seed, "medium", True)),
                          corpus.SOURCE_BUDGET)
    assert engine.halted


def test_progen_images_replay_from_a_knock_of_one(monkeypatch):
    # their loops run 2 to 6 rounds: too few for the shipped threshold
    replayed = {}
    for knock in (KNOCK_HITS, 1):
        monkeypatch.setattr(pipeline, "KNOCK_HITS", knock)
        replayed[knock] = 0
        for seed in PROGEN_SEEDS:
            engine = Engine(build(generate_source(seed, "medium", True)), CDC)
            counted(engine, corpus.SOURCE_BUDGET)
            replayed[knock] += engine.replayed
    assert replayed[KNOCK_HITS] == 0 < replayed[1]


# the small-scope set's turning loops of 1 to 3 rounds or of a few past
# the knock, and its sweeps of three passes (the set holds every count)
LOOPS = corpus.turning_loops()
TURNING = [entry for entry in LOOPS
           if not entry[0][-1].isdigit()
           or int(entry[0].split()[-1]) in (1, 2, 3, KNOCK_HITS + 1,
                                           KNOCK_HITS + 2, KNOCK_HITS + 5)
           if " x 2" not in entry[0] and not entry[0].startswith("skip")]


@pytest.mark.parametrize("entry", TURNING, ids=[e[0] for e in TURNING])
def test_loops_whose_outcomes_turn_end_alike(entry, knock):
    # a prediction, a load's hit or a round's end other than the one a
    # replayed state recorded, and a prediction other than a replayed
    # fetch's
    name, _, text, budget = entry
    engine = assert_alike(build(text), budget)
    assert engine.halted


# the loops whose inner branch turns back every 2, 4 or 8 rounds, per mode
SKIPS = {mode: [entry for entry in LOOPS
                if entry[0].startswith("skip %s " % mode)]
         for mode in ("super", "user")}


@pytest.mark.parametrize("mode", sorted(SKIPS))
def test_a_branch_turning_back_every_few_rounds_ends_alike(mode, knock):
    # a wrong prediction in a cycle being learned: learning must see the
    # flush in what the branch's handler returned. One item runs all 114
    # loops of a mode.
    differ = []
    for name, _, text, budget in SKIPS[mode]:
        (stepped, ends), (replayed, endr) = both(build(text), budget)
        if not stepped.halted or (endr, end_state(replayed)) \
                != (ends, end_state(stepped)):
            differ.append(name)
    assert differ == []


# the cycles a round of bench/is_add_test.s takes, replayed, per mode
ROUND = {Mode.SUPERVISOR: 10, Mode.USER: 18}


def _window(start, cycles):
    """Budgets that stop a run in each of `cycles` cycles from the cycle
    `start`, at which a loop of bench/is_add_test.s starts to replay."""
    return range(start + 1, start + 1 + cycles)


def _replay_starts():
    """The cycles at which the supervisor and the user loop of
    bench/is_add_test.s start to replay."""
    engine = Engine(build(IS_ADD), CDC)
    starts = {}
    step = engine.step

    def watching():
        if engine.replaying:
            starts.setdefault(engine.state.mode, engine.stats.cycles)
        step()

    engine.step = watching
    engine.run()
    return starts[Mode.SUPERVISOR], starts[Mode.USER]


def test_budgets_end_alike_inside_replayed_rounds():
    image = build(IS_ADD)
    supervisor, user = _replay_starts()
    assert 0 < supervisor < user
    budgets = list(_window(supervisor, 3 * ROUND[Mode.SUPERVISOR])) \
        + list(_window(user, 3 * ROUND[Mode.USER]))
    for budget in budgets:
        (stepped, ends), (replayed, endr) = both(image, budget)
        assert ends == endr == ("BudgetExhausted",
                                "no exit within a budget of %d" % budget)
        assert replayed.replayed > 0
        assert end_state(replayed) == end_state(stepped)
        # and, from some, a second run carries on from there alike
        if budget % 7 == 0:
            assert outcome(replayed, 10000) == decided(stepped, 10000) \
                is None
            assert end_state(replayed) == end_state(stepped)


@pytest.mark.parametrize("forget", ["cache", "predictions"])
def test_a_world_changed_under_replayed_rounds_ends_alike(forget):
    # emptied between two runs, the data cache or the prediction buffer
    # makes a replayed state's load miss or branch go another way
    image = build(IS_ADD)
    supervisor, user = _replay_starts()
    # a user round stores a cell and loads it back: one budget in each
    # round falls between the two
    for budget in [supervisor + 7] + list(_window(user + 20,
                                                  ROUND[Mode.USER])):
        engines = [engine for engine, _ in both(image, budget)]
        for engine in engines:
            if forget == "cache":
                engine.mem.cache.lines.clear()
            else:
                engine.bpb.entries.clear()
        stepped, replayed = engines
        assert replayed.replaying
        assert outcome(replayed, 10000) == decided(stepped, 10000) is None
        assert end_state(replayed) == end_state(stepped)


def test_a_fault_in_a_replayed_round_ends_alike(knock):
    # test_cipher_memo's sweep: the fifth distinct address finds no user
    # word left, in cycle 156 (round 5: replayed only from a knock of 1)
    engine = assert_alike(build(sweep_source(5, 1)), user_words=4)
    assert engine.stats.cycles == 156
    assert engine.replayed > 0 or knock == KNOCK_HITS
    # and the supervisor walk out of its region, in round 25
    engine = assert_alike(build(WALK))
    assert engine.replayed > 0
    (_, ends), _ = both(build(WALK))
    assert ends[0] == "OutOfRegion"


def test_a_traced_engine_never_replays():
    engine = Engine(build(IS_ADD), CDC, trace=lambda line: None)
    engine.run()
    assert engine.halted and engine.memo == {}


def test_the_memo_grows_with_states_not_rounds():
    sizes = []
    for rounds in (64, 256):
        engine = Engine(build(IS_ADD.replace("l.addi  r2, r0, 64",
                                             "l.addi  r2, r0, %d" % rounds)),
                        CDC)
        engine.run()
        sizes.append(len(engine.memo))
    assert sizes[0] == sizes[1]


def test_a_prefix_flushed_at_a_replayed_exit_seals_nothing(knock):
    engine = assert_alike(build(FLUSHED_PREFIX))
    assert engine.halted and engine.replayed > 0
    # the bare l.addi came as an illegal carrier, and trapped
    assert engine.stats.mode(Mode.USER).completions[InstrClass.SYSTRAP] == 1
    assert engine.state.mode is Mode.SUPERVISOR
