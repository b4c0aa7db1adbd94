"""The corpus gate: every kpu command's bytes over a fixed set of images.

The corpus is built deterministically from
- the shipped programs, ``tests/kit.py``'s stage-path source and a
  supervisor program that prints an add's carry and overflow flags,
- read-modify-write sweeps over more cells than the data cache holds, so
  later passes read stored user cells back through cache misses,
- ``progen`` small and medium programs, with and without syscalls,
- ``tests/kit.py``'s raw-word generator, in both modes, with and without
  an exit no-op on the illegal-instruction vector,
- malformed image files, one per rule of the image format, which every
  command that loads them rejects.

Each image goes in-process through ``kpu asm`` (a raw image is written as
an image file and skips it), then ``kpu run --trace --stats --dump`` under
a cycle budget, ``kpu oracle`` under a step budget and, when the run
finished, ``kpu compare``. Each command writes to one path for the whole
corpus, so every image's files land on the previous image's, and shorter
files on longer ones. One sha256 per image covers every command's exit
code, stdout and stderr, and the image, stats and dump files; where
``kpu oracle`` faults, which it reports by its text alone, also the
interpreter's step count and pc at the fault, read in-process.

A traced engine decides every cycle, and an untraced one replays the
cycles of states it has recorded. So each image also runs through ``kpu
run --stats --dump`` without ``--trace``, under the same budget; its exit
code, stdout (against the traced stdout less its ``cycle N |`` lines),
stderr and both files must equal the traced run's. They add nothing to
the digest when they do, and an "untraced run differs" part when not.

    python tests/corpus.py                  check against corpus_digests.txt
    python tests/corpus.py --write          freeze corpus_digests.txt anew
    python tests/corpus.py --against PATH   compare with the checkout at PATH
    python tests/corpus.py --against PATH --scope small

``--against`` builds the corpus here, runs it under this checkout's
``kpusim`` and, in a subprocess, under ``PATH/src``'s, and prints the first
images that differ with a diff of each part that differs. With ``--scope
small`` it runs the small-scope set instead (see build_small), which is
frozen nowhere: a change is checked against its parent. That set reads
the hazard matrix's and the prefix fold's templates from their test
modules, so it needs pytest.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "corpus_digests.txt"

PROGRAMS = ("programs/encrypted_sum.s", "programs/syscall_ticks.s",
            "bench/is_add_test.s")
PROGEN = [(size, syscalls) for size in ("small", "medium")
          for syscalls in (True, False)]
RAW = [(mode, vector) for mode in ("user", "super") for vector in (True, False)]
# SR after an add that carries out (-1 + 1), then after one that
# overflows (0x7fffffff + 1): 1025 and 2049, the supervisor bit with CY
# (bit 10), then with OV (bit 11)
ADD_FLAGS = """.mode super
    l.addi  r1, r0, -1
    l.addi  r2, r0, 1
    l.add   r4, r1, r2
    l.mfspr r3, r0, 17
    l.nop   2
    l.ori   r1, r0, 0x7fff
    l.slli  r1, r1, 16
    l.ori   r1, r1, 0xffff
    l.add   r4, r1, r2
    l.mfspr r3, r0, 17
    l.nop   2
    l.nop   1
"""
# An image that prints and exits, and one record per image rule that
# parse_image enforces: each malformed image is the good one with that
# record added, so a rule dropped lets its image run and print.
GOOD_IMAGE = """KPUIMG 1
ENTRY 0x00000100
MODE super
DATA 0x00000008 0000000000000005
TEXT 0x00000100 {print:08x}
TEXT 0x00000104 {exit:08x}
"""
MALFORMED = [("unaligned TEXT", "TEXT 0x00000102 {exit:08x}"),
             ("wide word", "TEXT 0x00000108 1{exit:08x}"),
             ("second TEXT", "TEXT 0x00000104 {print:08x}"),
             ("second DATA", "DATA 0x00000008 0000000000000006"),
             ("second ENTRY", "ENTRY 0x00000104"),
             ("second MODE", "MODE user"),
             ("unknown record", "WHAT 1 2"),
             ("underscore", "TEXT 0x0000_0108 {exit:08x}")]
# (cells, passes, print the total) of kit.sweep_source; the
# default cache holds 64 lines
SWEEPS = [(65, 2, False), (100, 3, False), (130, 3, False), (100, 2, True)]

# seeds per family: the full corpus, and the slice tier-1 runs
FULL = {"progen_seeds": 100, "raw_seeds": 500}
SLICE = {"progen_seeds": 12, "raw_seeds": 60}

# budgets: every source image finishes well inside its own; a raw image
# gets test_raw_words.py's
SOURCE_BUDGET = 20000
RAW_BUDGET = 3000


def build(progen_seeds, raw_seeds):
    """The corpus as (name, kind, text, budget) entries, kind "source" or
    "image"; the same arguments give the same entries."""
    from kpusim.progen import generate_source
    from kit import NOP_EXIT, NOP_PRINT, STAGE_PATHS, raw_image, sweep_source

    entries = [(program, "source", (ROOT / program).read_text(),
                SOURCE_BUDGET) for program in PROGRAMS]
    entries.append(("stage paths", "source", STAGE_PATHS, SOURCE_BUDGET))
    entries.append(("add flags", "source", ADD_FLAGS, SOURCE_BUDGET))
    entries.extend((
        "malformed " + name, "image",
        (GOOD_IMAGE + record + "\n").format(print=NOP_PRINT, exit=NOP_EXIT),
        RAW_BUDGET) for name, record in MALFORMED)
    entries.extend((
        "sweep %d x %d%s" % (cells, passes, " total" if total else ""),
        "source", sweep_source(cells, passes, total), SOURCE_BUDGET)
        for cells, passes, total in SWEEPS)
    # families interleave seed by seed, so long and short files alternate
    for seed in range(max(progen_seeds, raw_seeds)):
        if seed < progen_seeds:
            for size, syscalls in PROGEN:
                entries.append((
                    "progen %s %s %d" % (size, "sys" if syscalls else "nosys",
                                         seed),
                    "source", generate_source(seed, size, syscalls),
                    SOURCE_BUDGET))
        if seed < raw_seeds:
            # one stream per variant, so the four share no word sequence
            for mode, vector in RAW:
                rng = random.Random(seed * 7 + 3 * (mode == "user") + vector)
                entries.append((
                    "raw %s %s %d" % (mode, "vector" if vector else "novector",
                                      seed),
                    "image", raw_image(rng, mode, vector, set()), RAW_BUDGET))
    return entries


# the small-scope set: a loop body is replayed once its branch was taken
# KNOCK_HITS times, so a counted loop runs that many rounds and more
LOOP = """    l.addi r20, r0, %d
loop:
%s    l.addi r20, r20, -1
    l.sfne r20, r0
    l.bf   loop
    l.nop  2
    l.nop  1
"""
# an l.sys round trip in a loop body, in the mode the image starts in
SYS_HEAD = """.mode %s
.entry start
.org 0xc00
    l.addi r21, r21, 1
    l.rfe
.org 0x4000
%s
start:
    l.addi r3, r0, 0
"""
SYS_BODY = "    l.addi r3, r3, 1\n    l.sys  0\n"
# a loop whose inner branch turns from taken to not taken half way: its
# resolution and then its prediction change under states seen before
TURN = """%s
    l.addi r6, r0, %d
    l.addi r20, r0, %d
loop:
    l.sfgts r20, r6
    l.bf   skip
    l.add  r7, r7, r6
skip:
    l.addi r20, r20, -1
    l.sfne r20, r0
    l.bf   loop
    l.add  r3, r7, r0
    l.nop  2
    l.nop  1
"""
# a loop whose inner branch falls through in each round whose count has
# its low bits (the mask) zero: a wrong prediction every few rounds, from
# states seen before
SKIP = """%s
    l.addi r2, r0, %d
loop:
    l.andi r5, r2, %d
    l.sfne r5, r0
    l.bf   skip
    l.add  r7, r7, r2
skip:
    l.addi r2, r2, -1
    l.sfne r2, r0
    l.bf   loop
    l.add  r3, r7, r0
    l.nop  2
    l.nop  1
"""


def turning_loops():
    """The small-scope set's loops whose outcome changes as they run, as
    build()'s entries: a last round's wrong prediction at every round
    count, an l.sys round trip in a loop body, an inner branch that turns
    half way, one that turns back every 2, 4 or 8 rounds, and sweeps
    whose later passes hit where the first missed (a load allocates no
    line: only a pass's store makes the next pass hit) or miss as the
    first did."""
    from itertools import product

    import test_hazard_matrix as matrix
    from kit import sweep_source
    from kpusim.pipeline import KNOCK_HITS

    entries = []
    for mode, count in product(("user", "super"), range(1, KNOCK_HITS + 7)):
        head = matrix.HEAD[mode] + matrix.PROLOGUE
        entries += [
            ("rounds %s %d" % (mode, count), "source",
             head + LOOP % (count, "    l.add  r7, r7, r6\n"),
             SOURCE_BUDGET),
            ("sys loop %s %d" % (mode, count), "source",
             SYS_HEAD % (mode, ".encrypt on" if mode == "user" else "")
             + LOOP % (count, SYS_BODY), SOURCE_BUDGET),
            ("turn %s %d" % (mode, count), "source",
             TURN % (matrix.HEAD[mode], count, 2 * count), SOURCE_BUDGET)]
    entries += [("skip %s %d %d" % (mode, mask, rounds), "source",
                 SKIP % (matrix.HEAD[mode], rounds, mask), SOURCE_BUDGET)
                for mode, mask, rounds in product(("user", "super"), (1, 3, 7),
                                                  range(2, 40))]
    for cells, passes, total in product((8, 16, 32, 48, 64, 65, 72, 100),
                                        (2, 3), (False, True)):
        entries.append(("small sweep %d x %d%s" % (
            cells, passes, " total" if total else ""), "source",
            sweep_source(cells, passes, total), SOURCE_BUDGET))
    return entries


def build_small():
    """The small-scope set, as build()'s entries, in both modes:
    - every hazard-matrix producer template against every consumer
      template, at every distance from 0 to 13, dependent and not,
    - every two producers and a consumer of both (or of the flag), at
      distances up to the first producer's latency plus one,
    - every 4-, 5- and 6-word sequence over a prefix pair, a sealed
      immediate and an l.or, then a print and an exit no-op,
    - every dependent pair and every triple again inside a counted loop
      that replays it,
    - turning_loops()."""
    from itertools import product

    import test_hazard_matrix as matrix
    import test_prefix_fold as fold
    from kpusim.assembler import write_image
    from kpusim.pipeline import KNOCK_HITS

    modes = ("user", "super")
    producers = sorted(matrix.PRODUCERS)
    entries = []

    def source(name, text):
        entries.append((name, "source", text, SOURCE_BUDGET))

    def latency(mode, producer):
        return max(matrix.LATENCY[mode].get(producer, {0: 0}).values())

    # each producer with the consumers that can read what it writes
    pairs = [(mode, producer, consumer) for mode, producer, consumer
             in product(modes, producers, matrix.CONSUMERS)
             if consumer == "flag" or matrix.PRODUCERS[producer][1] != "F"]
    head = {mode: matrix.HEAD[mode] + matrix.PROLOGUE for mode in modes}
    tail = "    l.nop  1\n"
    looped = []             # (name, mode, body), each run again in a loop
    for (mode, producer, consumer), d, dependent in product(
            pairs, range(14), (True, False)):
        name = "pair %s %s %s %d" % (mode, producer, consumer, d)
        text = matrix._source(mode, producer, consumer, d, dependent)
        source(name if dependent else name + " base", text)
        if dependent:
            looped.append((name, mode, text[len(head[mode]):-len(tail)]))
    for mode, first, second in product(modes, producers, producers):
        text, a = matrix.PRODUCERS[first]
        then, b = matrix.PRODUCERS[second]
        then = then.replace("r5", "r10").replace("next", "then")
        b = b.replace("r5", "r10")
        readers = ["l.add  r7, %s, %s" % tuple(
            "r6" if dest == "F" else dest for dest in (a, b))]
        if "F" in (a, b):
            readers.append(matrix.FLAG_CONSUMER)
        reach = range(latency(mode, first) + 2)
        for d1, d2, reader in product(reach, reach, readers):
            name = "triple %s %s %s %d %d %s" % (mode, first, second, d1, d2,
                                                reader.split()[0])
            body = ("    %s\n" % text + matrix.FILLER * d1 + "    %s\n" % then
                    + matrix.FILLER * d2 + "    %s\n" % reader)
            source(name, head[mode] + body + tail)
            looped.append((name, mode, body))
    rounds = KNOCK_HITS + 4
    for name, mode, body in looped:
        source("looped " + name, head[mode] + LOOP % (rounds, body))
    for length in (4, 5, 6):
        for names, mode in product(product(fold.WORDS, repeat=length), modes):
            words = [fold.WORDS[name] for name in names]
            entries.append((
                "words %s %s" % (mode, "-".join(names)), "image",
                write_image(fold._image(mode, words + [fold.PRINT,
                                                       fold.EXIT])),
                RAW_BUDGET))
    return entries + turning_loops()


def _kpu(main, argv, workdir):
    """One in-process kpu command: (exit code, stdout, stderr), with the
    scratch directory's name masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return (str(rc), out.getvalue().replace(workdir, "<dir>"),
            err.getvalue().replace(workdir, "<dir>"))


@contextlib.contextmanager
def oracle_probe():
    """Collect where each faulting ``Interpreter.run`` stops, as "steps
    N pc 0xPC", in call order."""
    from kpusim.codec import ProgramFault
    from kpusim.oracle import Interpreter
    ends = []
    original = Interpreter.run

    def run(itp, *args, **kwargs):
        try:
            return original(itp, *args, **kwargs)
        except ProgramFault:
            ends.append("steps %d pc 0x%08x" % (itp.steps, itp.pc))
            raise

    Interpreter.run = run
    try:
        yield ends
    finally:
        Interpreter.run = original


def record(entry, main, workdir):
    """Every part one image's digest covers, as (label, text) pairs."""
    name, kind, text, budget = entry
    src, img = os.path.join(workdir, "corpus.s"), os.path.join(workdir,
                                                               "corpus.img")
    stats = os.path.join(workdir, "corpus.stats")
    dump = os.path.join(workdir, "corpus.dump")
    parts = []

    def command(label, argv):
        rc, out, err = _kpu(main, argv, workdir)
        parts.extend([(label + " exit", rc), (label + " stdout", out),
                      (label + " stderr", err)])
        return rc == "0"

    def read(label, path):
        with open(path) as handle:
            parts.append((label, handle.read()))

    if kind == "source":
        Path(src).write_text(text)
        if not command("asm", ["asm", src, "-o", img, "--seed", "0"]):
            return parts
        read("image", img)
    else:
        Path(img).write_text(text)
    finished = command("run", ["run", img, "--trace", "--stats", stats,
                               "--dump", dump, "--max-cycles", str(budget)])
    rc, out, err = (text for _, text in parts[-3:])
    traced = rc, TRACE_LINE.sub("", out), err, _files(stats, dump)
    if finished:
        read("stats", stats)
        read("dump", dump)
    untraced = _kpu(main, ["run", img, "--stats", stats, "--dump", dump,
                           "--max-cycles", str(budget)], workdir)
    untraced += (_files(stats, dump),)
    if untraced != traced:
        parts.append(("untraced run differs", repr(untraced)))
    with oracle_probe() as ends:
        command("oracle", ["oracle", img, "--max-steps", str(budget)])
    parts.extend(("oracle fault at", end) for end in ends)
    if finished:
        command("compare", ["compare", img, dump, "--max-steps", str(budget)])
    return parts


TRACE_LINE = re.compile(r"^cycle \d+ \|.*\n", re.MULTILINE)


def _files(*paths):
    """Each file's text, or None where there is none."""
    texts = []
    for path in paths:
        try:
            with open(path) as handle:
                texts.append(handle.read())
        except FileNotFoundError:
            texts.append(None)
    return tuple(texts)


def digest(parts):
    h = hashlib.sha256()
    for label, text in parts:
        data = text.encode()
        h.update(b"%s %d\n" % (label.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def run(entries):
    """(name, digest) for every entry, in order."""
    from kpusim.frontend import main
    with tempfile.TemporaryDirectory() as workdir:
        return [(entry[0], digest(record(entry, main, workdir)))
                for entry in entries]


def records(entries, names):
    """{name: parts} for the named entries. Every entry up to the last of
    them runs, in order, so each lands on the files it lands on in a full
    run."""
    from kpusim.frontend import main
    wanted, found = set(names), {}
    with tempfile.TemporaryDirectory() as workdir:
        for entry in entries:
            if len(found) == len(wanted):
                break
            parts = record(entry, main, workdir)
            if entry[0] in wanted:
                found[entry[0]] = parts
    return found


def load_digests(path=DIGESTS):
    """The frozen list, as {name: digest}."""
    frozen = {}
    with open(path) as handle:
        for line in handle:
            name, _, sha = line.rstrip("\n").rpartition(" ")
            frozen[name] = sha
    return frozen


def _worker(corpus_file, detail):
    """Run the corpus in a JSON file; print the digests, or the named
    images' records."""
    with open(corpus_file) as handle:
        entries = [tuple(entry) for entry in json.load(handle)]
    json.dump(run(entries) if detail is None else records(entries, detail),
              sys.stdout)


def _elsewhere(checkout, corpus_file, detail=None):
    """_worker's result under the kpusim of the checkout at `checkout`."""
    argv = [sys.executable, __file__, "--worker", checkout, corpus_file]
    if detail is not None:
        argv += ["--detail"] + detail
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


SHOW = 3            # differing images printed
DIFF_LINES = 40     # per part: a trace diff can run to thousands


def _diff(name, ours, theirs, checkout):
    print("== %s" % name)
    ours, theirs = dict(ours), dict(theirs)
    for label in dict.fromkeys(list(theirs) + list(ours)):
        lines = list(difflib.unified_diff(
            theirs.get(label, "").splitlines(True),
            ours.get(label, "").splitlines(True),
            "%s: %s" % (checkout, label), "this checkout: %s" % label, n=2))
        sys.stdout.writelines(lines[:DIFF_LINES])
        if len(lines) > DIFF_LINES:
            print("... %d more diff lines" % (len(lines) - DIFF_LINES))


def _count(digests):
    # images that behave alike (say, raw images that fault at once the
    # same way) share a digest: the distinct count is what the gate covers
    return "%d images (%d distinct digests)" % (
        len(digests), len({sha for _, sha in digests}))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="kpu corpus gate: one sha256 per image")
    parser.add_argument("--write", action="store_true",
                        help="freeze the full corpus's digests")
    parser.add_argument("--against", metavar="PATH",
                        help="compare with the checkout at PATH")
    parser.add_argument("--scope", choices=("full", "small"), default="full",
                        help="the frozen corpus, or the small-scope set "
                        "(with --against only)")
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--detail", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout, corpus_file = args.worker or (ROOT, None)
    # ahead of PYTHONPATH, so the checkout's own kpusim is the one imported
    sys.path.insert(1, str(Path(checkout).resolve() / "src"))
    if corpus_file:
        _worker(corpus_file, args.detail)
        return 0

    if args.scope == "small" and (args.write or not args.against):
        parser.error("--scope small is checked --against a checkout only")
    entries = build_small() if args.scope == "small" else build(**FULL)
    ours = run(entries)
    if args.write:
        with open(DIGESTS, "w") as handle:
            handle.writelines("%s %s\n" % pair for pair in ours)
        print("wrote %s to %s" % (_count(ours), DIGESTS))
        return 0
    if args.against:
        with tempfile.TemporaryDirectory() as scratch:
            corpus_file = os.path.join(scratch, "corpus.json")
            with open(corpus_file, "w") as handle:
                json.dump(entries, handle)
            theirs = dict(_elsewhere(args.against, corpus_file))
            differ = [name for name, sha in ours if theirs.get(name) != sha]
            shown = differ[:SHOW]
            if shown:
                details = _elsewhere(args.against, corpus_file, shown)
                mine = records(entries, shown)
                for name in shown:
                    _diff(name, mine[name], details[name], args.against)
        print("%s, %d differ from %s" % (_count(ours), len(differ),
                                         args.against))
        return 1 if differ else 0
    frozen = load_digests()
    differ = [name for name, sha in ours if frozen.get(name) != sha]
    missing = len(set(frozen) - {name for name, _ in ours})
    for name in differ[:SHOW]:
        print("differs: %s" % name)
    print("%s, %d differ from %s, %d frozen digests not built"
          % (_count(ours), len(differ), DIGESTS.name, missing))
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())
