"""The corpus gate: every kpu command's bytes over a fixed set of images.

The corpus is built deterministically from
- the shipped programs and the golden test's stage-path source,
- ``progen`` small and medium programs, with and without syscalls,
- ``tests/test_raw_words.py``'s generator, in both modes, with and without
  an exit no-op on the illegal-instruction vector.

Each image goes in-process through ``kpu asm`` (a raw image is written as
an image file and skips it), then ``kpu run --trace --stats --dump`` under
a cycle budget, ``kpu oracle`` under a step budget and, when the run
finished, ``kpu compare``. Each command writes to one path for the whole
corpus, so every image's files land on the previous image's, and shorter
files on longer ones. One sha256 per image covers every command's exit
code, stdout and stderr, and the image, stats and dump files.

    python tests/corpus.py                  check against corpus_digests.txt
    python tests/corpus.py --write          freeze corpus_digests.txt anew
    python tests/corpus.py --against PATH   compare with the checkout at PATH

``--against`` builds the corpus here, runs it under this checkout's
``kpusim`` and, in a subprocess, under ``PATH/src``'s, and prints the first
images that differ with a diff of each part that differs.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import random
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
    from test_golden_run import STAGE_PATHS
    from test_raw_words import _image

    entries = [(program, "source", (ROOT / program).read_text(),
                SOURCE_BUDGET) for program in PROGRAMS]
    entries.append(("stage paths", "source", STAGE_PATHS, SOURCE_BUDGET))
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
                    "image", _image(rng, mode, vector, set()), RAW_BUDGET))
    return entries


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
    if finished:
        read("stats", stats)
        read("dump", dump)
    command("oracle", ["oracle", img, "--max-steps", str(budget)])
    if finished:
        command("compare", ["compare", img, dump, "--max-steps", str(budget)])
    return parts


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
    parser.add_argument("--worker", nargs=2, help=argparse.SUPPRESS)
    parser.add_argument("--detail", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout, corpus_file = args.worker or (ROOT, None)
    # ahead of PYTHONPATH, so the checkout's own kpusim is the one imported
    sys.path.insert(1, str(Path(checkout).resolve() / "src"))
    if corpus_file:
        _worker(corpus_file, args.detail)
        return 0

    entries = build(**FULL)
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
