"""The pipeline's timing contract as one table, checked exhaustively over
small distances.

LATENCY[mode][producer][consumer] is how many stall cycles a consumer pays
when it directly follows its producer. Each case places the producer, then
d independent `l.or`s, then the consumer, and checks three things: the run
compares clean against the reference interpreter, its accounting closes
per mode, and it stalls max(0, L - d) cycles more than the same program
whose consumer reads an independent register instead, refilling as often.
The distances are every d from 0 to one past the longest latency, 13,
for every entry: each entry is met at its edge, at its first free
distance and at every distance between and past them (the small-scope
hypothesis: every rule that breaks, breaks at a small distance). A
program two cases share, such as the ra and rb consumers' baseline, runs
once. So each user `l.addi` producer and immediate consumer, a prefix
pair and the immediate it seals, runs against the reference
interpreter's one-step fold at every distance. Every pairing of rows,
not one row per class, is left to a sweep outside tier-1.

Three control cases cover what no operand waits for: a correctly
predicted branch costs nothing, a mispredicted one refills the three
positions ahead of X in either mode, and an `l.sys`/`l.rfe` round trip
drains and refills each mode's conveyor once per transition.

README's "How the machine works" quotes the table; tests/test_readme.py
checks that it quotes it exactly.
"""

from functools import cache

import pytest

from kit import run_both
from kpusim.core import Mode

# the consumer axis, in README's column order; "immediate" is an
# immediate-class consumer, on plan B in user mode
CONSUMERS = ("ra", "rb", "store data", "address base", "immediate", "flag")


def _row(plan_a, immediate=None):
    """A register producer's row: `plan_a` for every register consumer
    but the immediate one, which waits `immediate` (the same by default)."""
    row = dict.fromkeys(CONSUMERS[:4], plan_a)
    row["immediate"] = plan_a if immediate is None else immediate
    return row


# mode -> producer -> consumer -> stall cycles at distance 0; a producer
# that writes a register feeds every consumer but the flag, a set-flag
# only the flag. User mode: a sealed immediate executes at 13 on plan B,
# ten positions behind plan A's X; a load's data comes a cycle after M,
# ten more on a cache miss; a plan-B consumer reads at 12, late enough
# for all of them. Supervisor mode: a load's data comes a cycle after X.
LATENCY = {
    "user": {
        "l.add": _row(0),
        "l.addi": _row(10, immediate=0),
        "load hit": _row(2, immediate=0),
        "load miss": _row(12, immediate=0),
        "l.sfeq": {"flag": 0},
        "l.mfspr": _row(0),
        "l.jal": _row(0),
    },
    "super": {
        "l.add": _row(0),
        "l.addi": _row(0),
        "l.lwz": _row(1),
        "l.sfeq": {"flag": 0},
        "l.mfspr": _row(0),
        "l.jal": _row(0),
        "l.ld": _row(1),
        "l.add64": _row(0),
    },
}

HEAD = {
    "user": """.mode user
.entry start
.org 0x4000
.encrypt on
start:
""",
    # .dword 0x200 is l.ld's cell; the l.or puts l.jal's return address
    # on an 8-aligned supervisor cell, for the address-base consumer
    "super": """.mode super
.entry start
.dword 0x200, 64
.org 0x100
start:
    l.or   r8, r0, r0
""",
}

# r1 + r2, the l.addi literal, l.ld's cell and the cell at 8 hold 64, and
# so does r6, the independent register the baseline consumer reads; the
# cell at 8 makes the load hit
PROLOGUE = """    l.addi r1, r0, 24
    l.addi r2, r0, 40
    l.addi r6, r0, 64
    l.sw   8(r0), r6
"""

# producer -> (its text, the register it writes, or F for the flag)
PRODUCERS = {
    "l.add": ("l.add  r5, r1, r2", "r5"),
    "l.addi": ("l.addi r5, r0, 64", "r5"),
    "load hit": ("l.lwz  r5, 8(r0)", "r5"),
    "load miss": ("l.lwz  r5, 256(r0)", "r5"),     # a never-written cell
    "l.lwz": ("l.lwz  r5, 8(r0)", "r5"),
    "l.sfeq": ("l.sfeq r6, r0", "F"),                # clears the flag
    "l.mfspr": ("l.mfspr r5, r0, 40", "r5"),         # an SPR that reads 0
    "l.jal": ("l.jal  next\nnext:", "r9"),
    "l.ld": ("l.ld   r5, 0x200(r0)", "r5"),
    "l.add64": ("l.add64 r5, r1, r2", "r5"),
}

# consumer -> its text reading {0}; the flag's branch falls through, and
# its baseline, as the flag has no independent twin, is a plan-A l.or
CONSUMER_TEXT = {
    "ra": "l.add  r7, {0}, r6",
    "rb": "l.add  r7, r6, {0}",
    "store data": "l.sw   16(r0), {0}",
    "address base": "l.lwz  r7, 0({0})",
    "immediate": "l.addi r7, {0}, 1",
}
FLAG_CONSUMER = "l.bf   over\nover:"
FLAG_BASELINE = "l.or   r7, r6, r6"

FILLER = "    l.or   r8, r0, r0\n"

# every distance up to one past the table's longest latency
DISTANCES = range(max(latency for producers in LATENCY.values()
                      for row in producers.values()
                      for latency in row.values()) + 2)


def _source(mode, producer, consumer, d, dependent):
    text, dest = PRODUCERS[producer]
    if consumer == "flag":
        reader = FLAG_CONSUMER if dependent else FLAG_BASELINE
    else:
        reader = CONSUMER_TEXT[consumer].format(dest if dependent else "r6")
    return (HEAD[mode] + PROLOGUE + "    %s\n" % text + FILLER * d
            + "    %s\n    l.nop  1\n" % reader)


def _run(source):
    """The engine after a checked run: it compares clean and its
    accounting closes, in total and per mode."""
    return run_both(source, max_cycles=1000, max_steps=100)[0]


@cache
def _stalls_refills(source, mode):
    """(stalls, refills) of a checked run of `source` in `mode`; each
    source runs once."""
    stats = _run(source).stats.mode(mode)
    return stats.stalls, stats.refills


def _cases():
    for mode, producers in LATENCY.items():
        for producer, row in producers.items():
            for consumer in row:
                for d in DISTANCES:
                    yield pytest.param(mode, producer, consumer, d,
                                       id="%s-%s-%s-%d" % (mode, producer,
                                                           consumer, d))


@pytest.mark.parametrize("mode, producer, consumer, d", list(_cases()))
def test_stalls_are_the_latency_less_the_distance(mode, producer, consumer,
                                                  d):
    dep, base = (_stalls_refills(_source(mode, producer, consumer, d,
                                         dependent), Mode(mode))
                 for dependent in (True, False))
    latency = LATENCY[mode][producer][consumer]
    assert dep[0] - base[0] == max(0, latency - d)
    assert dep[1] == base[1]


# the conveyor's depth in each mode: a mode entered at a trap or a return
# starts empty, and its first instruction retires depth - 1 cycles later
DEPTH = {"user": 16, "super": 5}
# the positions ahead of X that a wrong prediction flushes, in either mode
MISPREDICT_REFILLS = 3


@pytest.mark.parametrize("mode", ["user", "super"])
@pytest.mark.parametrize("setter, taken", [("l.sfne r6, r6", False),
                                           ("l.sfeq r6, r6", True)],
                         ids=["predicted right", "mispredicted"])
def test_a_wrong_prediction_refills_the_positions_ahead_of_x(mode, setter,
                                                             taken):
    # a cold branch is predicted not taken; taken, it goes to its own next
    # pc, so only the prediction differs from its baseline, an l.or
    def source(reader):
        return (HEAD[mode] + PROLOGUE + "    %s\n    %s\n    l.nop  1\n"
                % (setter, reader))

    branch = _run(source(FLAG_CONSUMER))
    base = _run(source(FLAG_BASELINE))
    m = Mode(mode)
    assert branch.stats.mode(m).stalls == base.stats.mode(m).stalls
    assert (branch.stats.mode(m).refills - base.stats.mode(m).refills
            == MISPREDICT_REFILLS * taken)
    assert (branch.bpb.misses_right, branch.bpb.misses_wrong) == \
        (not taken, taken)


ROUND_TRIP = """.mode user
.entry start
.org 0xc00
    l.rfe
.org 0x4000
.encrypt on
start:
""" + PROLOGUE + """    %s
    l.add  r7, r6, r6
    l.nop  1
"""


def test_a_round_trip_refills_each_conveyor_it_enters():
    # against an l.or in the l.sys's place: the user conveyor refills
    # after the l.rfe, and the supervisor's, entered at the l.sys, holds
    # only the l.rfe and the refill ahead of it
    trip = _run(ROUND_TRIP % "l.sys  0")
    base = _run(ROUND_TRIP % "l.or   r8, r0, r0")
    user, base_user = trip.stats.mode(Mode.USER), base.stats.mode(Mode.USER)
    assert user.stalls == base_user.stalls
    assert user.refills - base_user.refills == DEPTH["user"] - 1
    assert user.instructions == base_user.instructions
    sup = trip.stats.mode(Mode.SUPERVISOR)
    assert (sup.instructions, sup.stalls, sup.refills) == \
        (1, 0, DEPTH["super"] - 1)
    assert base.stats.mode(Mode.SUPERVISOR).cycles == 0
