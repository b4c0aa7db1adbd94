"""Seeded input generators for the benchmark workloads.

Each workload turns a seed into a list of Jobs: assembly source text, the
padding seed handed to ``kpu asm --seed``, and, where the answer is known
without running anything, the outputs the program must print. The program
under test only ever sees these generated files.

Why each workload exists, and which layers it loads, is written down in
README.md next to this file.
"""

import random
import re
from dataclasses import dataclass
from pathlib import Path

# is_add_long: the ROADMAP's long variant of bench/is_add_test.s.
IS_ADD_ROUNDS = 2000
_ROUND_COUNTER = re.compile(r"(l\.addi\s+r2,\s*r0,\s*)64\b")

# mem_sweep: 512 distinct padded addresses is eight times the 64-entry
# user data cache, so with LRU replacement every pass reloads cells the
# previous pass evicted.
SWEEP_CELLS = 512
SWEEP_PASSES = 4

# equiv_campaign: programs per seed. A hundred medium programs keep the
# campaign's total work within a few percent from one seed to the next.
CAMPAIGN_PROGRAMS = 100

WORKLOADS = ("is_add_long", "mem_sweep", "equiv_campaign")


@dataclass(frozen=True)
class Job:
    """One image a workload takes through asm, run, oracle and compare."""

    name: str
    source: str
    asm_seed: int
    expect_outputs: tuple = None


def is_add_long(seed, root):
    """bench/is_add_test.s with both 64-round counters raised to 2000.

    The file itself is read, never edited: the acceptance suite measures
    the short version. The seed is the assembler's padding seed.
    """
    text = (Path(root) / "bench" / "is_add_test.s").read_text()
    source, count = _ROUND_COUNTER.subn(r"\g<1>%d" % IS_ADD_ROUNDS, text)
    if count != 2:
        raise ValueError("expected two round counters in is_add_test.s, "
                         "found %d" % count)
    return [Job("is_add_long", source, seed,
                (IS_ADD_ROUNDS, IS_ADD_ROUNDS))]


def mem_sweep_source(seed, cells=SWEEP_CELLS, passes=SWEEP_PASSES):
    """User-mode read-modify-write sweep over `cells` words, `passes` times.

    Every pass restarts the pointer from the same static ``l.addi`` and
    advances it with the same ``l.addi``, so each pass recomputes exactly
    the padded addresses of the one before: the TLB maps `cells` cipher
    addresses, and the working set is far larger than the data cache. The
    first pass reads cells nothing has written yet.
    """
    rng = random.Random(seed)
    base = 0x1000 + 4 * rng.randrange(0, 0x4000)
    addend = rng.randrange(1, 1 << 31)
    start = rng.randrange(0, 1 << 31)
    return "\n".join([
        "# mem_sweep, seed %d: %d cells x %d passes" % (seed, cells, passes),
        ".mode user",
        ".entry start",
        ".org 0x700",
        "    l.nop  1",
        ".org 0x2000",
        ".encrypt on",
        "start:",
        "    l.addi r2, r0, %d" % addend,
        "    l.addi r8, r0, %d" % start,
        "    l.addi r7, r0, %d" % passes,
        "pass:",
        "    l.addi r14, r0, %d" % base,
        "    l.addi r5, r0, %d" % cells,
        "sweep:",
        "    l.lwz  r6, 0(r14)",
        "    l.add  r6, r6, r2",
        "    l.sw   0(r14), r6",
        "    l.add  r8, r8, r6",
        "    l.addi r14, r14, 4",
        "    l.addi r5, r5, -1",
        "    l.sfne r5, r0",
        "    l.bf   sweep",
        "    l.addi r7, r7, -1",
        "    l.sfne r7, r0",
        "    l.bf   pass",
        "    l.add  r3, r8, r0",
        "    l.nop  2",
        "    l.nop  1",
    ]) + "\n"


def mem_sweep(seed, root):
    return [Job("mem_sweep", mem_sweep_source(seed), seed)]


def equiv_campaign(seed, root, programs=CAMPAIGN_PROGRAMS):
    """progen medium programs with syscalls, numbered from seed*programs."""
    from kpusim.progen import generate_source
    first = seed * programs
    return [Job("equiv_%d" % n, generate_source(n, size="medium",
                                                 syscalls=True), n)
            for n in range(first, first + programs)]


GENERATORS = {"is_add_long": is_add_long, "mem_sweep": mem_sweep,
              "equiv_campaign": equiv_campaign}


def generate(workload, seed, root):
    """The workload's jobs for `seed`; the same seed gives the same jobs."""
    return GENERATORS[workload](seed, root)
