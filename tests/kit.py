"""What the tests share, and the corpus gate's program builders.

It imports no pytest, so `python tests/corpus.py` needs only the package:
- KEY and CDC, the one codec every test run shares (a Codec holds only
  its key schedule),
- build(source), a source's image under CDC,
- run_both(source), a checked run of the engine and the reference
  interpreter; a test that expects a fault or a mismatch builds the image
  and runs the machines itself,
- STAGE_PATHS, sweep_source and raw_image, the corpus's own programs.
"""

from kpusim import isa
from kpusim.assembler import Image, assemble
from kpusim.check import compare, engine_view
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.oracle import DEFAULT_MAX_STEPS, Interpreter
from kpusim.pipeline import DEFAULT_MAX_CYCLES, Engine

KEY = 0x00112233445566778899AABBCCDDEEFF
CDC = Codec(KEY)


def build(source, seed=0):
    """The image of `source` under CDC."""
    return assemble(source, CDC, seed=seed)


def run_both(source, seed=0, max_cycles=DEFAULT_MAX_CYCLES,
             max_steps=DEFAULT_MAX_STEPS, **engine_options):
    """(engine, interpreter) after both ran `source`, a source text or an
    Image, to their exit: they compare clean, and the engine's accounting
    closes in total and per mode."""
    image = source if isinstance(source, Image) else build(source, seed)
    engine = Engine(image, CDC, **engine_options)
    engine.run(max_cycles)
    itp = Interpreter(image, CDC).run(max_steps)
    assert engine.halted and itp.halted
    assert compare(engine_view(engine), itp, CDC) == []
    assert engine.stats.closes()
    for mode in Mode:
        ms = engine.stats.mode(mode)
        assert ms.instructions + ms.stalls + ms.refills == ms.cycles, mode
    return engine, itp


# The paths each pipeline stage takes by class and mode, none of which the
# shipped programs reach: a user-mode sweep of 72 cells, 8 more than the
# data cache holds, so every store misses and the first 8 loads miss (the
# 12-cycle load-use gap); link writes from l.jal and l.jalr in both modes;
# a user-mode l.ld, an illegal carrier, trapped and stepped over; a system
# call; serialized SPR moves in both modes; supervisor l.ld/l.sd; mispredict
# flushes at every loop exit; and l.nop 2 in both modes. The supervisor only
# prints registers it wrote itself, and no user load reads a blank cell.
STAGE_PATHS = """\
.mode super
.entry boot

.org 0x100
boot:
    l.ori   r12, r0, ufunc      # user subroutine, reached by l.jalr
    l.ori   r13, r0, sfunc
    l.addi  r3, r0, 11
    l.jal   sfunc               # supervisor link writes
    l.jalr  r13
    l.nop   2                   # 13
    l.sd    8(r0), r3
    l.ld    r14, 8(r0)
    l.add64 r3, r14, r14
    l.nop   2                   # 26
    l.mfspr r15, r0, 20         # serialized SPR moves
    l.mtspr r0, r15, 40
    l.mfspr r3, r0, 40
    l.nop   2                   # the CONFIG id
    l.ori   r31, r0, ustart
    l.mtspr r0, r31, 32         # EPCR: l.rfe drops to user mode there
    l.rfe
sfunc:
    l.addi  r3, r3, 1
    l.jr    r9

.org 0x700                      # illegal instruction: step over it
    l.mfspr r20, r0, 32
    l.addi  r20, r20, 4
    l.mtspr r0, r20, 32
    l.rfe

.org 0xc00                      # system call: count it, print the count
    l.sd    1000(r0), r3        # park the caller's r3 whole
    l.ld    r3, 992(r0)
    l.addi  r3, r3, 1
    l.sd    992(r0), r3
    l.nop   2
    l.ld    r3, 1000(r0)
    l.rfe

.org 0x2000
.encrypt on
ustart:
    l.addi  r5, r0, 8           # one stride, so both sweeps pad alike
    l.addi  r2, r0, 72          # 72 cells: 8 more than the data cache
    l.add   r1, r0, r0
ustore:
    l.sw    0(r1), r2           # write miss on every cell
    l.add   r1, r1, r5
    l.addi  r2, r2, -1
    l.sfne  r2, r0
    l.bf    ustore
    l.addi  r2, r0, 72
    l.add   r1, r0, r0
    l.add   r3, r0, r0
uload:
    l.lwz   r7, 0(r1)           # the first 8 cells were evicted: read miss
    l.add   r3, r3, r7          # load-use
    l.add   r1, r1, r5
    l.addi  r2, r2, -1
    l.sfne  r2, r0
    l.bf    uload
    l.nop   2                   # 72 + 71 + ... + 1 = 2628
    l.addi  r8, r0, 100
    l.jal   ufunc               # user link writes
    l.jalr  r12
    l.add   r3, r8, r0
    l.nop   2                   # 110
    l.mfspr r3, r0, 20          # CONFIG is readable in user mode
    l.mtspr r0, r3, 40          # and ignored
    l.nop   2
    l.sys   0                   # the handler prints 1
    l.ld    r3, 0(r0)           # illegal in user mode: trapped, skipped
    l.nop   2
    l.nop   1
ufunc:
    l.addi  r8, r8, 5
    l.jr    r9
"""


def sweep_source(cells, passes, total=False):
    """User-mode read-modify-write sweep: every pass recomputes the padded
    addresses of the one before, so `cells` padded addresses in all. With
    `total`, r3 sums every value stored and the sweep prints it."""
    clear, add, show = ((["    l.addi r3, r0, 0"], ["    l.add  r3, r3, r6"],
                         ["    l.nop  2"]) if total else ([], [], []))
    return "\n".join([
        ".mode user",
        ".entry start",
        ".org 0x700",
        "    l.nop  1",
        ".org 0x2000",
        ".encrypt on",
        "start:",
    ] + clear + [
        "    l.addi r7, r0, %d" % passes,
        "pass:",
        "    l.addi r14, r0, 256",
        "    l.addi r5, r0, %d" % cells,
        "sweep:",
        "    l.lwz  r6, 0(r14)",
        "    l.addi r6, r6, 1",
        "    l.sw   0(r14), r6",
    ] + add + [
        "    l.addi r14, r14, 4",
        "    l.addi r5, r5, -1",
        "    l.sfne r5, r0",
        "    l.bf   sweep",
        "    l.addi r7, r7, -1",
        "    l.sfne r7, r0",
        "    l.bf   pass",
    ] + show + [
        "    l.nop  1",
    ]) + "\n"


NOP_EXIT = isa.encode_fields(isa.MNEMONICS["l.nop"], {"imm": isa.EXIT_CODE})
NOP_PRINT = isa.encode_fields(isa.MNEMONICS["l.nop"],
                              {"imm": isa.PRINT_CODE})


def _operand(rng, row, name, low, high):
    if name in ("rd", "ra", "rb"):
        return rng.randrange(32)
    if row.syntax == "@imm":
        return rng.randrange(-4, 8)     # a target near the stream
    if row.mnemonic == "l.nop":
        return rng.choice((0, 1, 2, rng.randrange(low, high)))
    return rng.randrange(low, high)


def _word(rng, rows):
    if rng.random() < 0.3:
        return rng.getrandbits(32)
    row = rng.choice(isa.TABLE)
    rows.add(row.mnemonic)
    fields = {name: _operand(rng, row, name, low, high)
              for name, _, _, _, low, high, _ in row.fields}
    return isa.encode_fields(row, fields)


def raw_image(rng, mode, vector, rows):
    """An image file's text: a short run of words at 0x4000, encoded from
    random table rows (each row's mnemonic added to `rows`) or random 32
    bits, with a print no-op among them and an exit no-op behind them, and
    with `vector`, an exit no-op on the illegal-instruction vector."""
    text = {0x4000 + 4 * i: _word(rng, rows)
            for i in range(rng.randrange(4, 16))}
    text[0x4000 + 4 * rng.randrange(len(text))] = NOP_PRINT
    text[0x4000 + 4 * len(text)] = NOP_EXIT
    if vector:
        text[0x700] = NOP_EXIT
    lines = ["KPUIMG 1", "ENTRY 0x00004000", "MODE %s" % mode]
    lines += ["TEXT 0x%08x %08x" % (addr, text[addr]) for addr in sorted(text)]
    return "\n".join(lines) + "\n"
