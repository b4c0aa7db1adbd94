"""The mutant table: faults planted in the simulator, and the tests that
must catch each one.

Each entry of MUTANTS plants one fault: a name, a file under src/, its
edits (the exact old text, found exactly once, and the new text), the
verdict expected of tier-1 ("killed", "survives" or "hangs"), the test
expected to kill it, and, for some, whether the corpus gate is expected to
see it. A survivor is an equivalent mutant, kept with the reason it
changes no behaviour any command shows.

    python tests/mutants.py             run every entry, print the table
    python tests/mutants.py NAME ...    run the entries named

For each entry the checkout (less .git and caches) is copied to a fresh
temporary directory and the edits applied there. The named killer runs
first, `pytest -x -q`, with PYTHONPATH at the copy's src/; only when it
passes (or for an expected survivor) does the rest of tier-1 run. An
entry that names the corpus gate then runs `tests/corpus.py` in the copy.
Every run is under a timeout: a run loop that stops counting steps spins,
and its verdict is "hangs".

It exits 1 if any verdict differs from its entry, or any old text is not
found exactly once: a refactor that moves patched code rewrites the
patch, or drops the entry and says why. It needs pytest, and nothing
else outside the standard library.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300       # seconds per run: tier-1 takes about 25 s
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".benchmarks", "out")

CODEC = "src/kpusim/codec.py"
PIPELINE = "src/kpusim/pipeline.py"
ORACLE = "src/kpusim/oracle.py"
ISA = "src/kpusim/isa.py"
REPLAY = "tests/test_replay.py::"
FOLD = "tests/test_prefix_fold.py::"
WORD_FOR_WORD = FOLD + "test_the_interpreter_matches_the_engine_word_for_word"
FOLD_STORE = ("if sealed[0] is Interpreter._sealed_immediate:\n"
              "                    records[at] = sealed\n")


def mutant(name, path, edits, verdict="killed", killer=None, corpus=None,
           why=None):
    """One entry: `edits` is a list of (old, new) texts; `corpus` is
    True where the gate must report a difference, False where it must
    report none, and None where it is not run."""
    return dict(name=name, path=path, edits=edits, verdict=verdict,
                killer=killer, corpus=corpus, why=why)


MUTANTS = [
    # the reference interpreter's fold and budget (450fba3, 3d710f3)
    mutant("run past the budget", ORACLE,
           [("if count and steps + count <= max_steps:", "if count:")],
           killer="tests/test_corpus.py", corpus=True),
    mutant("a run sets the pc after its ops", ORACLE,
           [("                    self.pc = successor\n"
             "                    for handler, ins, operand in ops:\n"
             "                        handler(self, ins, operand)\n",
             "                    for handler, ins, operand in ops:\n"
             "                        handler(self, ins, operand)\n"
             "                    self.pc = successor\n")],
           killer="tests/test_oracle.py::"
           "test_every_budget_ends_a_loop_where_stepping_ends_it",
           corpus=True),
    mutant("fold keeps no record for its immediate", ORACLE,
           [(FOLD_STORE, "if sealed[0] is Interpreter._sealed_immediate:\n")],
           killer="tests/test_fetch_record.py::"
           "test_each_machine_decodes_once_per_pc_and_mode",
           corpus=False),
    mutant("sealed_high skips the index-1 tag", ISA,
           [("    if p1 & _TAG_MASK != P1_TAG:\n        return None\n", "")],
           killer=WORD_FOR_WORD, corpus=True),
    mutant("fold stores its record at pc + 8 whatever it is", ORACLE,
           [(FOLD_STORE, "records[at] = sealed\n" + " " * 16
             + "if sealed[0] is Interpreter._sealed_immediate:\n")],
           killer=WORD_FOR_WORD, corpus=False),
    mutant("fold tests the class, not the handler", ORACLE,
           [("if sealed[0] is Interpreter._sealed_immediate:",
             "if sealed[1].cls is isa.InstrClass.IMMEDIATE:")],
           killer=FOLD + "test_the_cases_fold_jump_into_a_fold_and_trap",
           corpus=False),
    mutant("the sealed table opened without the immediate's low bits",
           ORACLE,
           [("blocks.append(high | text.get((pc + 8) & MASK32, 0)\n"
             "                              & isa.LOW_MASK)",
             "blocks.append(high)")],
           killer=WORD_FOR_WORD, corpus=True),
    # the codec's lanes: a right shift masked to the lane's own bits
    mutant("a lane's 7-bit rotate spills into its neighbour", CODEC,
           [("((x >> 25) & m7)", "(x >> 25)")],
           killer="tests/test_codec.py::"
           "test_batched_lanes_keep_their_spill_and_carry"),
    mutant("a lane's 13-bit rotate spills into its neighbour", CODEC,
           [("((right >> 19) & m13)", "(right >> 19)")],
           killer="tests/test_codec.py::"
           "test_batched_lanes_keep_their_spill_and_carry"),
    # the engine's replay (memoized timing)
    mutant("replay drops a load's hit from the outcome", PIPELINE,
           [("cached = memory(self, cell, n)\n"
             "                if cached is not None:",
             "cached = memory(self, cell, n)\n                if False:"),
            ("cached = cell.record.memory(self, cell, n)\n"
             "                    if cached is not None:",
             "cached = cell.record.memory(self, cell, n)\n"
             "                    if False:")],
           killer=REPLAY + "test_a_world_changed_under_replayed_rounds_"
           "ends_alike"),
    mutant("a decided cycle hands learning no outcome", PIPELINE,
           [("self._outcome = token\n", "self._outcome = None\n")],
           killer=REPLAY + "test_a_branch_turning_back_every_few_rounds_"
           "ends_alike"),
    mutant("learning reads a stall one position off", PIPELINE,
           [("if conveyor[idx + 1] is STALL_BUBBLE:",
             "if conveyor[idx] is STALL_BUBBLE:")],
           killer=REPLAY + "test_shipped_programs_end_alike"),
    mutant("another prediction restores nothing", PIPELINE,
           [("                            self._restore(after[0])\n", "")],
           killer=REPLAY + "test_loops_whose_outcomes_turn_end_alike"),
    mutant("replay follows a recorded cycle whatever its handlers returned",
           PIPELINE, [("if token != tested:", "if False:")],
           killer=REPLAY + "test_shipped_programs_end_alike", corpus=True),
    mutant("replay counts a stall as a refill", PIPELINE,
           [("            if retired is STALL_BUBBLE:\n"
             "                self._mode_stats.stalls += 1",
             "            if retired is STALL_BUBBLE:\n"
             "                self._mode_stats.refills += 1")],
           killer=REPLAY + "test_shipped_programs_end_alike", corpus=True),
    mutant("restore leaves settled stale", PIPELINE,
           [("cell.wake, cell.settled, cell.retired = 0, False, False",
             "cell.wake, cell.retired = 0, False")],
           killer=REPLAY + "test_loops_whose_outcomes_turn_end_alike"),
    mutant("replay reads a producer retired this cycle from its cell",
           PIPELINE,
           [("None if p in (-1, len(cells) - 1)", "None if p == -1")],
           verdict="survives",
           why="the producer's retirement wrote that same value to the "
           "bank"),
    mutant("resume leaves the young X pending", PIPELINE,
           [('(xo, "x_index"), (xy, "x_index"), (m, "m_index")',
             '(xo, "x_index"), (m, "m_index")')],
           verdict="survives",
           why="only an R-12 stall could hold the young X cell, and a "
           "plan-B immediate sits at least three words behind any producer, "
           "its prefix pair between, so it never stalls there; the marks "
           "keep the next state's key from splitting"),
    # the engine's sealed immediate: behind its prefix pair, the last two
    # cells fetched, with the block the words at pc - 8 and pc - 4 seal
    mutant("the sealed rule leaves conveyor[1] unchecked", PIPELINE,
           [("first, second = conveyor[1].record, conveyor[0].record",
             "first, second = conveyor[0].record, conveyor[0].record")],
           killer=WORD_FOR_WORD),
    mutant("the sealed block read from pc - 4", PIPELINE,
           [("isa.sealed_high(self.text, (pc - 8) & MASK32)",
             "isa.sealed_high(self.text, (pc - 4) & MASK32)")],
           killer=WORD_FOR_WORD, corpus=True),
]


def _pytest(copy, args):
    """(passed, its first failure or last line) of pytest in `copy`;
    passed is None on a timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider"] + args, cwd=copy, env=env, timeout=TIMEOUT,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return None, "timed out after %d s" % TIMEOUT
    failed = [line for line in proc.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    lines = proc.stdout.strip().splitlines()
    return proc.returncode == 0, (failed or lines[-1:] or ["no output"])[0]


def _corpus(copy):
    """Whether the corpus gate reports a difference in `copy`."""
    try:
        proc = subprocess.run([sys.executable, "tests/corpus.py"], cwd=copy,
                              timeout=TIMEOUT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode != 0


def check(entry, workdir):
    """(verdict, the first failure or why it survives, whether the named
    killer failed, whether the corpus gate saw it), or raise ValueError
    when an edit's old text is not found exactly once."""
    copy = Path(workdir) / "checkout"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    target = copy / entry["path"]
    text = target.read_text()
    for old, new in entry["edits"]:
        if text.count(old) != 1:
            raise ValueError("%s: old text found %d times in %s: %r" % (
                entry["name"], text.count(old), entry["path"], old))
        text = text.replace(old, new)
    target.write_text(text)
    verdict, named = "survives", False
    runs = [[entry["killer"]]] if entry["killer"] else []
    for args in runs + [[]]:
        passed, by = _pytest(copy, args)
        if passed is None:
            verdict = "hangs"
            break
        if not passed:
            verdict, named = "killed", bool(args)
            break
    else:
        by = entry["why"]
    corpus = None if entry["corpus"] is None else _corpus(copy)
    return verdict, by, named, corpus


def main(argv):
    unknown = set(argv) - {entry["name"] for entry in MUTANTS}
    if unknown:
        print("no such mutant: %s" % ", ".join(sorted(unknown)))
        return 2
    wrong = 0
    with tempfile.TemporaryDirectory() as workdir:
        for entry in MUTANTS:
            if argv and entry["name"] not in argv:
                continue
            try:
                verdict, by, named, corpus = check(entry, workdir)
            except ValueError as exc:
                print("NOT APPLIED  %s" % exc)
                wrong += 1
                continue
            # a kill counts only by the test named, not a later one
            ok = verdict == entry["verdict"] and corpus == entry["corpus"] \
                and (verdict != "killed" or named)
            wrong += not ok
            gate = "" if corpus is None else (
                ", corpus gate %s" % ("differs" if corpus else "0 differ"))
            print("%-5s %-8s %s: %s%s" % ("ok" if ok else "WRONG", verdict,
                                          entry["name"], by, gate))
    print("%d of the entries run differ from the table" % wrong)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
