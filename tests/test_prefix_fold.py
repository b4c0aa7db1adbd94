"""The reference interpreter runs a prefix pair and the immediate it seals
as one step in user mode, checked word for word against the engine, which
fetches all three.

Each case is a raw image at 0x4000 with an exit no-op at the
illegal-instruction vector 0x700: every three-word sequence over an
index-0 prefix, an index-1 prefix, a sealed `l.addi` and an `l.or`, then
`l.nop 2` and `l.nop 1`; an `l.j` or a taken `l.bf` that lands on the
second or the third word of a prefix pair and its immediate, before and
after those three words first ran; an `l.bf` onto the second word
after the three ran twice, the second time inside a run; and two prefix
pairs ahead of one immediate, run straight through and entered at the
second pair first. Every case runs in user mode, where the pair folds,
and in supervisor mode, where the immediate is a plain 16-bit one and
nothing consumes the prefixes.
Both machines must print the same outputs and end alike, compare clean
where both finish, and the interpreter must count one step for each word
the engine completes that is not a prefix.
"""

from itertools import product

import pytest

from kit import CDC
from kpusim import isa
from kpusim.assembler import Image
from kpusim.check import compare, engine_view
from kpusim.codec import ProgramFault
from kpusim.core import Mode
from kpusim.isa import InstrClass
from kpusim.oracle import Interpreter
from kpusim.pipeline import Engine

ENTRY = 0x4000


def _word(mnemonic, **fields):
    return isa.encode_fields(isa.MNEMONICS[mnemonic], fields)


# l.addi r3, r3, 7 sealed under an arbitrary pad, the way the assembler
# splits its ciphertext over the two prefix payloads and the immediate
_CIPHER = CDC.encrypt((0x5A5A1234 << 32) | 7)
WORDS = {
    "p0": _word("l.prefix", prefix_idx=0,
                prefix_payload=(_CIPHER >> isa.P0_SHIFT) & isa.PAYLOAD_MASK),
    "p1": _word("l.prefix", prefix_idx=1,
                prefix_payload=(_CIPHER >> isa.P1_SHIFT) & isa.PAYLOAD_MASK),
    "addi": _word("l.addi", rd=3, ra=3, imm=0) | (_CIPHER & isa.LOW_MASK),
    "or": _word("l.or", rd=4, ra=3, rb=3),
}
PRINT, EXIT = _word("l.nop", imm=2), _word("l.nop", imm=1)
TRIPLE = ["p0", "p1", "addi"]


def _image(mode, words):
    text = {ENTRY + 4 * i: w for i, w in enumerate(words)}
    text[0x700] = EXIT
    return Image(entry=ENTRY, mode=mode, text=text)


def _sequences():
    for names in product(WORDS, repeat=3):
        yield "-".join(names), [WORDS[n] for n in names] + [PRINT, EXIT]


def _jumps():
    """Jumps into the second or the third word of a prefix pair and its
    immediate: an l.j ahead of the three words lands there before they
    ever ran, an l.bf behind them after they ran once. The l.bf's flag is
    set while r4 still holds 0, so supervisor mode, where the landing does
    not trap, falls through on the second pass."""
    triple = [WORDS[n] for n in TRIPLE]
    for into in (1, 2):
        yield ("l.j-ahead-into-%d" % into,
               [_word("l.j", imm=1 + into)] + triple + [PRINT, EXIT])
        yield ("l.bf-after-into-%d" % into,
               triple + [PRINT, _word("l.sfeq", ra=4, rb=0), WORDS["or"],
                         _word("l.bf", imm=into - 6), EXIT])
    # the three words run twice, the second time as a run's first record,
    # looping while r5 still holds 0; then, while r4 does, an l.bf lands
    # on the index-1 prefix. In supervisor mode the landing runs the
    # prefix and the immediate a third time and falls through to the exit.
    yield ("l.bf-after-a-run-into-1",
           triple + [PRINT, _word("l.sfeq", ra=5, rb=0),
                     _word("l.or", rd=5, ra=3, rb=3), _word("l.bf", imm=-6),
                     _word("l.sfeq", ra=4, rb=0), WORDS["or"],
                     _word("l.bf", imm=-8), EXIT])


def _two_triples():
    """Two prefix pairs ahead of one immediate: the second pair seals it,
    and the first is two prefixes that fold nothing. An l.j lands on the
    second pair, which folds first; the l.bf behind the immediate then
    lands on the first pair, whose fold must not take the second pair's
    folded record for the immediate's."""
    words = [WORDS[n] for n in ["p0", "p1"] + TRIPLE]
    yield "p0-p1-p0-p1-addi", words + [PRINT, EXIT]
    yield ("l.j-onto-the-second-pair-then-l.bf-onto-the-first",
           [_word("l.j", imm=3)] + words
           + [PRINT, _word("l.sfeq", ra=4, rb=0), WORDS["or"],
              _word("l.bf", imm=-8), EXIT])


CASES = dict(_sequences())
CASES.update(_jumps())
CASES.update(_two_triples())


def _end(machine, budget):
    """How a run ended: None once it halts, else its fault's text."""
    try:
        machine.run(budget)
    except ProgramFault as fault:
        return str(fault)
    assert machine.halted
    return None


@pytest.mark.parametrize("mode", ["user", "super"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_the_interpreter_matches_the_engine_word_for_word(name, mode):
    image = _image(mode, CASES[name])
    engine = Engine(image, CDC)
    itp = Interpreter(image, CDC)
    ends = _end(engine, 1000), _end(itp, 100)
    assert ends[0] == ends[1]
    assert engine.outputs == itp.outputs
    if ends == (None, None):
        assert compare(engine_view(engine), itp, CDC) == []
    prefixes = sum(engine.stats.mode(m).completions[InstrClass.PREFIX]
                   for m in Mode)
    assert itp.steps == engine.stats.instructions - prefixes


def test_the_cases_fold_jump_into_a_fold_and_trap():
    # the sweep reaches each path: the one whole triple folds and prints
    # the literal, a jump into it traps to the vector before or after the
    # fold, a pair ahead of a folded pair folds nothing, and supervisor
    # mode adds the ciphertext's low 16 bits
    twice = "l.j-onto-the-second-pair-then-l.bf-onto-the-first"
    runs = {(name, mode): Interpreter(_image(mode, CASES[name]), CDC).run()
            for name in ("p0-p1-addi", "l.j-ahead-into-1",
                         "l.bf-after-into-2", "l.bf-after-a-run-into-1",
                         twice)
            for mode in ("user", "super")}
    user = runs["p0-p1-addi", "user"]
    assert (user.outputs, user.steps, user.mode) == ([7], 3, Mode.USER)
    assert runs["l.j-ahead-into-1", "user"].outputs == []
    assert runs["l.bf-after-into-2", "user"].outputs == [7]
    assert runs["l.bf-after-a-run-into-1", "user"].outputs == [7, 14]
    assert runs[twice, "user"].outputs == [7, 14]
    for name in ("l.j-ahead-into-1", "l.bf-after-into-2",
                 "l.bf-after-a-run-into-1"):
        assert (runs[name, "user"].mode, runs[name, "user"].epcr) == \
            (Mode.SUPERVISOR, ENTRY + 4 * CASES[name].index(WORDS["addi"]))
    low = isa.decode(WORDS["addi"]).imm & 0xFFFFFFFF
    assert runs["p0-p1-addi", "super"].outputs == [low]
    assert runs["l.bf-after-a-run-into-1", "super"].outputs == \
        [low * n & 0xFFFFFFFF for n in (1, 2, 3)]
