"""kpusim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload is_add_long --seed 0 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``src/kpusim`` from
there and nothing installed. Human-readable lines come first. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
README.md next to this file says what each workload and metric is for.
"""

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"                  # scratch files and trace dumps

SETUP_SAMPLES = 11

# Runs in a fresh interpreter: everything a user pays before the first
# simulated cycle of an image, from importing the package onwards, between
# calibration slices that give the host's speed at that moment.
_SETUP_CHILD = r"""
import statistics, sys, time
sys.path.insert(0, sys.argv[3])
from speed import calibration_slice
slices = [calibration_slice() for _ in range(3)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import kpusim
from kpusim import Codec, Engine, Interpreter, parse_image
from kpusim.frontend import DEFAULT_KEY
cdc = Codec(DEFAULT_KEY)
with open(sys.argv[2]) as handle:
    image = parse_image(handle.read())
Engine(image, cdc)
Interpreter(image, cdc)
elapsed = time.perf_counter() - start
slices += [calibration_slice() for _ in range(3)]
print(kpusim.__file__)
print(repr(elapsed))
print(repr(statistics.median(slices)))
"""

END_TO_END = {
    "setup_s": "s", "check_s": "s", "sim_cycles_per_s": "cycles/s",
    "oracle_steps_per_s": "steps/s", "compare_s": "s", "peak_rss_mb": "MB",
}

# Fingerprint counters reported as "model.<name>" per-layer metrics; the
# others have per-layer names of their own.
_NAMED_ELSEWHERE = ("sim_cycles", "sim_instructions", "tlb_entries",
                    "static_words", "oracle_steps")


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _ratio(part, whole):
    return part / whole if whole else 0.0


def check_checkout():
    for needed in (SRC / "kpusim" / "__init__.py",
                   ROOT / "bench" / "is_add_test.s"):
        if not needed.is_file():
            raise BenchError("not a kpusim checkout: %s is missing" % needed)
    sys.path.insert(0, str(SRC))
    import kpusim
    if Path(kpusim.__file__).resolve().parent != (SRC / "kpusim").resolve():
        raise BenchError("imported kpusim from %s, not from the checkout"
                         % kpusim.__file__)


def measure_setup(image_path):
    """Median set-up time over fresh interpreters, in reference and in raw
    seconds, after one warm-up that lets the bytecode cache fill."""
    from speed import rescale
    scaled, raw = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC),
             str(image_path), str(HERE)],
            capture_output=True, text=True, timeout=60, check=False)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 3:
            raise BenchError("set-up process failed: %s" % proc.stderr[-500:])
        if Path(lines[0]).resolve().parent != (SRC / "kpusim").resolve():
            raise BenchError("set-up process imported %s" % lines[0])
        if i:
            raw.append(float(lines[1]))
            scaled.append(raw[-1] * rescale(float(lines[2])))
    return statistics.median(scaled), statistics.median(raw), len(raw)


def layer_metrics(snap, rep, source_lines):
    """Per-layer metrics of one traced rep."""
    from harness import FINGERPRINT
    from tracer import FIRST_PAD

    def calls(key):
        return snap.get(key, (0, 0.0, 0.0))[0]

    def incl(key):
        return snap.get(key, (0, 0.0, 0.0))[1]

    def own(key):
        return snap.get(key, (0, 0.0, 0.0))[2]

    c = rep.count
    asm_s = incl("assembler.assemble")
    bpb_right = c("bpb_hits_right") + c("bpb_misses_right")
    bpb_all = bpb_right + c("bpb_hits_wrong") + c("bpb_misses_wrong")
    metrics = {
        "sim_cycles": c("sim_cycles"),
        "sim_instructions": c("sim_instructions"),
        "pipeline.step_calls": calls("pipeline.step"),
        "pipeline.step_self_s": own("pipeline.step"),
        "pipeline.run_s": incl("pipeline.run"),
        "pipeline.init_s": incl("pipeline.init"),
        "pipeline.user_cpi": _ratio(c("user_cycles"), c("user_instructions")),
        "pipeline.super_cpi": _ratio(c("super_cycles"),
                                     c("super_instructions")),
        "pipeline.stall_cycles": c("user_stalls") + c("super_stalls"),
        "pipeline.refill_cycles": c("user_refills") + c("super_refills"),
        "pipeline.bpb_right_ratio": _ratio(bpb_right, bpb_all),
        "isa.decode_calls": calls("isa.decode"),
        "isa.decode_s": incl("isa.decode"),
        "isa.static_words": c("static_words"),
        "isa.decodes_per_static_word": _ratio(calls("isa.decode"),
                                              c("static_words")),
        "codec.block_calls": calls("codec.block"),
        "codec.block_s": incl("codec.block"),
        "codec.round_calls": calls("codec.round"),
        "codec.round_s": incl("codec.round"),
        "alu.execute_calls": calls("alu.execute"),
        "alu.execute_s": incl("alu.execute"),
        "memsys.user_load_calls": calls("memsys.user_load"),
        "memsys.user_store_calls": calls("memsys.user_store"),
        "memsys.user_access_s": incl("memsys.user_load")
                                + incl("memsys.user_store"),
        "memsys.dcache_read_hit_ratio": _ratio(
            c("dcache_read_hits"),
            c("dcache_read_hits") + c("dcache_read_misses")),
        "memsys.tlb_entries": c("tlb_entries"),
        "core.transitions": calls("core.transition"),
        "core.transition_s": incl("core.transition"),
        "core.write_register_calls": calls("core.write_register"),
        "assembler.assemble_s": asm_s,
        "assembler.source_lines": source_lines,
        "assembler.lines_per_s": _ratio(source_lines, asm_s),
        "assembler.encrypted_immediates": calls(FIRST_PAD),
        "assembler.pad_candidates_per_immediate": _ratio(
            calls("assembler.make_padding"), calls(FIRST_PAD)),
        "assembler.image_io_s": incl("assembler.image_io"),
        "oracle.interpret_s": incl("oracle.interpret"),
        "oracle.step_self_s": own("oracle.step"),
        "oracle.steps": c("oracle_steps"),
        "oracle.compare_s": incl("oracle.compare"),
        "oracle.dump_io_s": incl("oracle.dump_io"),
        "frontend.render_stats_s": incl("frontend.render_stats"),
        "frontend.overhead_s": own("frontend.command"),
    }
    for key in FINGERPRINT:
        if key not in _NAMED_ELSEWHERE:
            metrics["model." + key] = c(key)
    return metrics


def _timed_reps(jobs, workdir, engines, seconds, first_rep, tracer=None,
                sampler=None):
    """Repeat the whole workload until `seconds` have passed (at least once).

    With a sampler, times are in reference seconds (see speed.py).
    """
    from harness import run_rep
    reps, snaps = [], []
    deadline = time.perf_counter() + seconds
    with sampler.running() if sampler else contextlib.nullcontext():
        while not reps or time.perf_counter() < deadline:
            reps.append(run_rep(jobs, workdir, engines, tracer,
                                first_rep + len(reps), sampler))
            if tracer:
                snaps.append(tracer.take())
    return reps, snaps


def run(workload, seed, seconds, trace, out=print):
    """Measure one workload; returns the result object the last line prints."""
    from harness import FINGERPRINT, engine_probe, kpu

    start = time.perf_counter()
    jobs = generate(workload, seed, ROOT)
    generate_s = time.perf_counter() - start
    source_lines = sum(job.source.count("\n") for job in jobs)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir, \
            engine_probe() as engines:
        setup = None
        if not trace:
            first = Path(workdir) / "setup.s"
            first.write_text(jobs[0].source)
            cmd = kpu(["asm", str(first), "-o", str(first.with_suffix(".img")),
                       "--seed", str(jobs[0].asm_seed), "--quiet"])
            if cmd.rc != 0:
                raise BenchError("cannot assemble %s: %s" % (jobs[0].name,
                                                             cmd.err))
            setup = measure_setup(first.with_suffix(".img"))

        warmup, _ = _timed_reps(jobs, workdir, engines, 0, 0)
        if trace:
            from tracer import Tracer
            untraced, _ = _timed_reps(jobs, workdir, engines, seconds / 3, 1)
            tracer = Tracer()
            with tracer.installed():
                reps, snaps = _timed_reps(jobs, workdir, engines,
                                          seconds * 2 / 3, 1 + len(untraced),
                                          tracer)
        else:
            untraced = []
            from speed import SpeedSampler
            reps, snaps = _timed_reps(jobs, workdir, engines, seconds, 1,
                                      sampler=SpeedSampler())

    everything = warmup + untraced + reps
    attempted = sum(len(rep.images) for rep in everything)
    failed = sum(rep.failed for rep in everything)
    reference = warmup[0].fingerprints()
    repeats = all(rep.fingerprints() == reference for rep in everything)
    median = statistics.median

    out("workload %s, seed %d, %s run: %d image(s) per rep, %d timed reps "
        "after 1 warm-up" % (workload, seed, "traced" if trace else "untraced",
                             len(jobs), len(reps)))
    for rep in everything:
        for image in rep.images:
            if not image.ok:
                out("  FAILED %s: %s" % (image.job, image.reason))
    if not repeats:
        out("  FAILED: simulated counters differ between reps")
    if trace:
        out("  simulated counters of the %d traced reps %s those of the %d "
            "untraced reps" % (len(reps), "equal" if repeats else "DIFFER from",
                               len(warmup + untraced)))
    out("  model fingerprint (exact, summed over the rep's images): "
        + ", ".join("%s %d" % (key, reps[0].count(key))
                    for key in FINGERPRINT))

    if trace:
        metrics, units = _traced_metrics(reps, snaps, untraced, source_lines,
                                         generate_s, out)
        tracer.write(OUT / ("trace-%s-%d.json" % (workload, seed)),
                     workload=workload, seed=seed,
                     reps=[{k: list(v) for k, v in snap.items()}
                           for snap in snaps])
    else:
        metrics = {
            "setup_s": setup[0],
            "check_s": median(rep.total("check") for rep in reps),
            "sim_cycles_per_s": median(
                _ratio(rep.count("sim_cycles"), rep.total("run"))
                for rep in reps),
            "oracle_steps_per_s": median(
                _ratio(rep.count("oracle_steps"), rep.total("oracle"))
                for rep in reps),
            "compare_s": median(rep.total("compare") for rep in reps),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        out("  end to end, in reference seconds (see speed.py); medians of "
            "%d reps, setup_s of %d fresh processes:" % (len(reps), setup[2]))
        out("  (medians in host seconds: setup %.4f s, check %.4f s, asm "
            "%.4f s, run %.4f s, oracle %.4f s, compare %.4f s)"
            % ((setup[1],) + tuple(median(rep.total(key, raw=True)
                                          for rep in reps)
                                   for key in ("check", "asm", "run", "oracle",
                                               "compare"))))
        for name, value in metrics.items():
            out("    %-20s %14.6g %s" % (name, value, units[name]))
        out("    %-20s %14d / %d images" % ("failed_ops", failed, attempted))
        out("  per-image check time: %s" % _tail(
            [image.times["check"] for rep in reps for image in rep.images
             if "check" in image.times]))

    return {
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _tail(samples):
    """Median and the highest percentile with at least ten samples above."""
    samples = sorted(samples)
    n = len(samples)
    text = "median %.4g s over %d images" % (statistics.median(samples), n)
    if n >= 20:
        p = 1 - 10 / n
        text += ", p%.4g %.4g s" % (100 * p, samples[int(p * n) - 1])
    return text


def _traced_metrics(reps, snaps, untraced, source_lines, generate_s, out):
    from tracer import module_table
    median = statistics.median
    per_rep = [layer_metrics(snap, rep, source_lines)
               for snap, rep in zip(snaps, reps)]
    # counts repeat exactly from rep to rep; median_low keeps them integers
    metrics = {name: (statistics.median_low if layer_unit(name) == "count"
                      else median)(m[name] for m in per_rep)
               for name in per_rep[0]}
    traced_check = median(rep.total("check") for rep in reps)
    untraced_check = median(rep.total("check") for rep in untraced)
    metrics.update({
        "progen.generate_s": generate_s,
        "trace.check_s": traced_check,
        "trace.untraced_check_s": untraced_check,
        "trace.overhead_s": traced_check - untraced_check,
    })
    units = {name: layer_unit(name) for name in metrics}

    totals = {}
    for snap in snaps:
        for module, (calls, self_s) in module_table(snap).items():
            count, seconds = totals.get(module, (0, 0.0))
            totals[module] = (count + calls, seconds + self_s)
    n = len(snaps)
    out("  traced check_s %.4f s vs untraced %.4f s: tracing overhead "
        "%.4f s (%.1f%% of the untraced %d-rep median)"
        % (traced_check, untraced_check, traced_check - untraced_check,
           100 * _ratio(traced_check - untraced_check, untraced_check),
           len(untraced)))
    out("  self time per module, mean of %d traced reps "
        "(share of traced check_s %.4f s):" % (n, traced_check))
    out("    %-10s %12s %12s %8s" % ("module", "calls", "self_s", "share"))
    for module, (calls, self_s) in sorted(totals.items(),
                                          key=lambda kv: -kv[1][1]):
        out("    %-10s %12d %12.4f %7.1f%%"
            % (module, calls // n, self_s / n,
               100 * _ratio(self_s / n, traced_check)))
    out("  per-layer metrics (medians of %d traced reps):" % n)
    for name, value in metrics.items():
        out("    %-40s %14.6g %s" % (name, value, units[name]))
    return metrics, units


def layer_unit(name):
    """Unit of a per-layer metric, read off its name."""
    if name == "assembler.lines_per_s":
        return "lines/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_cpi", "_per_static_word", "_per_immediate")):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
