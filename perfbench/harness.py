"""Takes workload jobs through the four kpu commands and checks each one.

Every image goes ``kpu asm`` -> ``kpu run --dump`` -> ``kpu oracle`` ->
``kpu compare``, called in-process through ``kpusim.frontend.main`` with
files in a scratch directory. An image fails, and is counted rather than
raised, when a command exits non-zero or raises, when compare reports any
mismatch, when the machine's outputs differ from the oracle's or from the
outputs the workload expects, or when the cycle accounting does not close.

The untraced run hooks the program in one place only: ``render_stats``,
which ``kpu run`` calls once per image, is wrapped so the finished Engine
can be read for the model fingerprint.
"""

import contextlib
import io
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from kpusim import frontend
from kpusim.core import Mode

_STEPS = re.compile(r"@exit\s*: steps (\d+)")
_REG_LINE = re.compile(r"r\d\d 0x")

# Exact simulated counters of one image. A change meant only to make the
# simulator faster must leave every one of them unchanged.
FINGERPRINT = (
    "sim_cycles", "sim_instructions",
    "user_cycles", "user_instructions", "user_stalls", "user_refills",
    "super_cycles", "super_instructions", "super_stalls", "super_refills",
    "bpb_hits_right", "bpb_hits_wrong", "bpb_misses_right", "bpb_misses_wrong",
    "dcache_read_hits", "dcache_read_misses",
    "dcache_write_hits", "dcache_write_misses",
    "tlb_entries", "static_words", "oracle_steps",
)


def fingerprint(engine):
    """The engine's exact counters, keyed by FINGERPRINT names."""
    stats, bpb, cache = engine.stats, engine.bpb, engine.mem.cache
    user, sup = stats.mode(Mode.USER), stats.mode(Mode.SUPERVISOR)
    return {
        "sim_cycles": stats.cycles, "sim_instructions": stats.instructions,
        "user_cycles": user.cycles, "user_instructions": user.instructions,
        "user_stalls": user.stalls, "user_refills": user.refills,
        "super_cycles": sup.cycles, "super_instructions": sup.instructions,
        "super_stalls": sup.stalls, "super_refills": sup.refills,
        "bpb_hits_right": bpb.hits_right, "bpb_hits_wrong": bpb.hits_wrong,
        "bpb_misses_right": bpb.misses_right,
        "bpb_misses_wrong": bpb.misses_wrong,
        "dcache_read_hits": cache.read_hits,
        "dcache_read_misses": cache.read_misses,
        "dcache_write_hits": cache.write_hits,
        "dcache_write_misses": cache.write_misses,
        "tlb_entries": len(engine.mem.tlb.entries),
        "static_words": len(engine.text),
    }


def accounting_closes(engine):
    """Total cycles equal the per-mode sums, and each mode's instructions,
    stalls and refills add up to its cycles."""
    stats = engine.stats
    return stats.closes() and all(
        ms.instructions + ms.stalls + ms.refills == ms.cycles
        for ms in stats.per_mode.values())


@contextlib.contextmanager
def engine_probe():
    """Collect each Engine that ``kpu run`` finishes, in call order."""
    engines = []
    original = frontend.render_stats

    def render_stats(engine):
        engines.append(engine)
        return original(engine)

    frontend.render_stats = render_stats
    try:
        yield engines
    finally:
        frontend.render_stats = original


@dataclass
class Command:
    rc: object                  # exit code, or the exception's name
    out: str
    err: str
    raw_s: float                # host seconds
    seconds: float              # reference seconds (raw_s without a sampler)


def kpu(argv, tracer=None, image_id=None, sampler=None):
    """Run one kpu command in-process, capturing its output and time.

    With a speed.SpeedSampler running, calibration slices are left out of
    the time and the time is rescaled to reference seconds.
    """
    out, err = io.StringIO(), io.StringIO()
    span = tracer.command(argv[0], image_id) if tracer else contextlib.nullcontext()
    clock = sampler.now if sampler else time.perf_counter
    mark = sampler.mark() if sampler else None
    start = clock()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = frontend.main(argv)
        except SystemExit as exc:           # argparse rejecting the argv
            rc = exc.code
        except Exception as exc:            # a traceback is a failed image
            rc = type(exc).__name__
            traceback.print_exc(file=err)
    raw_s = clock() - start
    return Command(rc, out.getvalue(), err.getvalue(), raw_s,
                   raw_s * sampler.factor(mark) if sampler else raw_s)


@dataclass
class ImageResult:
    job: str
    ok: bool = False
    reason: str = ""
    counters: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)       # reference seconds
    raw: dict = field(default_factory=dict)         # host seconds


def _oracle_outputs(stdout):
    """Outputs printed by ``kpu oracle``: the lines before its register file."""
    values = []
    for line in stdout.splitlines():
        if _REG_LINE.match(line):
            break
        values.append(int(line))
    return values


def check_image(job, workdir, image_id, engines, tracer=None, sampler=None):
    """Take one job through the four commands; never raises for a failure
    of the program under test. `engines` is the list engine_probe fills."""
    workdir = Path(workdir)
    src, img = workdir / "prog.s", workdir / "prog.img"
    dump, stats = workdir / "prog.dump", workdir / "prog.stats"
    src.write_text(job.source)
    result = ImageResult(job.name)
    del engines[:]                          # keep memory bounded
    steps = ("asm", ["asm", str(src), "-o", str(img), "--seed",
                     str(job.asm_seed), "--quiet"]), \
            ("run", ["run", str(img), "--dump", str(dump), "--stats",
                     str(stats)]), \
            ("oracle", ["oracle", str(img)]), \
            ("compare", ["compare", str(img), str(dump)])
    done = {}
    for name, argv in steps:
        cmd = kpu(argv, tracer, image_id, sampler)
        done[name] = cmd
        result.times[name] = cmd.seconds
        result.raw[name] = cmd.raw_s
        if cmd.rc != 0:
            result.reason = "kpu %s exited %r: %s" % (
                name, cmd.rc, (cmd.err or cmd.out).strip()[-300:])
            return result
    result.times["check"] = sum(cmd.seconds for cmd in done.values())
    result.raw["check"] = sum(cmd.raw_s for cmd in done.values())

    if len(engines) != 1:
        result.reason = "kpu run finished without reporting statistics"
        return result
    engine = engines.pop()
    result.counters = fingerprint(engine)
    match = _STEPS.search(done["oracle"].err)
    result.counters["oracle_steps"] = int(match.group(1)) if match else 0
    try:
        run_outputs = [int(v) for v in done["run"].out.split()]
        oracle_outputs = _oracle_outputs(done["oracle"].out)
    except ValueError as exc:
        result.reason = "unreadable outputs: %s" % exc
        return result
    if done["compare"].out.splitlines()[:1] != ["MISMATCHES 0"]:
        result.reason = "compare: %s" % done["compare"].out.strip()[:300]
    elif run_outputs != oracle_outputs:
        result.reason = "outputs: machine %r, oracle %r" % (
            run_outputs, oracle_outputs)
    elif job.expect_outputs is not None and \
            tuple(run_outputs) != tuple(job.expect_outputs):
        result.reason = "outputs %r, expected %r" % (
            run_outputs, list(job.expect_outputs))
    elif not accounting_closes(engine):
        result.reason = "cycle accounting does not close"
    elif not match:
        result.reason = "kpu oracle reported no step count"
    else:
        result.ok = True
    return result


@dataclass
class Rep:
    """One pass over every job of a workload."""

    images: list

    @property
    def failed(self):
        return sum(not r.ok for r in self.images)

    def total(self, key, raw=False):
        """Seconds the rep's images spent in `key`; reference seconds unless
        `raw`."""
        times = "raw" if raw else "times"
        return sum(getattr(r, times).get(key, 0.0) for r in self.images)

    def count(self, key):
        return sum(r.counters.get(key, 0) for r in self.images)

    def fingerprints(self):
        return [r.counters for r in self.images]


def run_rep(jobs, workdir, engines, tracer=None, rep_no=0, sampler=None):
    return Rep([check_image(job, workdir, "%d:%d" % (rep_no, i), engines,
                            tracer, sampler)
                for i, job in enumerate(jobs)])
