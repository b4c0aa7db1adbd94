"""Command line frontend.

    kpu asm SOURCE -o IMAGE         assemble to an image file
    kpu run IMAGE                   simulate cycle by cycle
    kpu oracle IMAGE                flat reference execution
    kpu compare IMAGE DUMP          reference-check a machine dump

Exit codes: 0 success, 1 the program faulted, 2 usage or file format
problems, 3 a comparison found mismatches, 141 the reader of stdout or
stderr went away (the status a shell reports for a SIGPIPE death).

An output file (-o, --stats, --dump) is written in place, through a
symlink, and cut to length; an interrupted write can leave the old file's
tail, as a truncating one can leave a partial file.

The parser is built, and argparse loaded, at the first main(), so that
importing this module (for DEFAULT_KEY, say) costs neither.
"""

import functools
import os
import stat
import sys

from .assembler import (Assembler, CryptoSafetyError, FormatError, ParseError,
                        parse_image, read_number, write_image)
from .check import (AliasDetected, compare, engine_view, parse_sim_dump,
                    render_dump)
from .codec import Codec, ProgramFault
from .core import Mode
from .isa import InstrClass
from .memsys import DEFAULT_CACHE_ENTRIES, DEFAULT_USER_WORDS
from .oracle import DEFAULT_MAX_STEPS, interpret
from .pipeline import DEFAULT_BPB_ENTRIES, DEFAULT_MAX_CYCLES, Engine

DEFAULT_KEY = 0x00112233445566778899AABBCCDDEEFF

# 128 + SIGPIPE: what a shell reports for a process a closed pipe ended
BROKEN_PIPE = 141


def _parse_key(text):
    import argparse
    try:
        key = read_number(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError("key must be hexadecimal") from None
    if key >> 128:
        raise argparse.ArgumentTypeError("key wider than 128 bits")
    return key


def _int_at_least(minimum, what):
    def parse(text):
        import argparse
        try:
            value = read_number(text, 10, signed=True)
        except ValueError:
            raise argparse.ArgumentTypeError(
                "%r is not an integer" % text) from None
        if value < minimum:
            raise argparse.ArgumentTypeError("must be %s, not %d" % (what, value))
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _seed(text):
    import argparse
    try:
        return read_number(text, 10, signed=True)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "invalid int value: %r" % text) from None


def _pct(part, whole):
    return 100.0 * part / whole if whole else 0.0


def render_stats(engine):
    """Cycle accounting table, one block per mode plus the shared units."""
    stats = engine.stats
    total = stats.cycles
    lines = ["@exit  : cycles %d, instructions %d"
             % (total, stats.instructions)]
    cache = engine.mem.cache
    # only user loads and stores go through the data cache
    cached = {(Mode.USER, InstrClass.LOAD): cache.read_hits,
              (Mode.USER, InstrClass.STORE): cache.write_hits}
    for mode in (Mode.USER, Mode.SUPERVISOR):
        ms = stats.mode(mode)
        if not ms.cycles:
            continue
        lines.append("mode %s : %d cycles (%.1f%%)"
                     % (mode.value, ms.cycles, _pct(ms.cycles, total)))
        for cls in InstrClass:
            count = ms.completions[cls]
            if not count:
                continue
            lines.append("  %-10s: %5.1f%%" % (cls.value, _pct(count, total)))
            if cls is InstrClass.LOAD or cls is InstrClass.STORE:
                hits = cached.get((mode, cls), 0)
                lines.append("  %-10s: %5.1f%%"
                             % ("  (cached)", _pct(hits, total)))
        if ms.stalls:
            lines.append("  %-10s: %5.1f%%" % ("stalls", _pct(ms.stalls, total)))
        if ms.refills:
            lines.append("  %-10s: %5.1f%%" % ("refills", _pct(ms.refills, total)))
    bpb = engine.bpb
    lines.append("BPB: %d hits (%d%% right), %d misses (%d%% right)"
                 % (bpb.hits, _pct(bpb.hits_right, bpb.hits),
                    bpb.misses, _pct(bpb.misses_right, bpb.misses)))
    reads = cache.read_hits + cache.read_misses
    writes = cache.write_hits + cache.write_misses
    lines.append("User Data Cache: %d reads (%d%% hits), %d writes (%d%% hits)"
                 % (reads, _pct(cache.read_hits, reads),
                    writes, _pct(cache.write_hits, writes)))
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser():
    # built at the first main() rather than at import; parse_args keeps no
    # state between calls, so one parser serves every call after that
    import argparse
    parser = argparse.ArgumentParser(prog="kpu",
                                     description="encrypted-pipeline machine tools")
    sub = parser.add_subparsers(dest="command", required=True)

    asm = sub.add_parser("asm", help="assemble source to an image")
    asm.add_argument("source")
    asm.add_argument("-o", "--output", required=True)
    asm.add_argument("--key", type=_parse_key, default=DEFAULT_KEY)
    asm.add_argument("--seed", type=_seed, default=0,
                     help="padding stream seed")
    asm.add_argument("--strict", action="store_true",
                     help="fail on crypto-safety diagnostics")
    asm.add_argument("--quiet", action="store_true",
                     help="suppress diagnostics on stderr")

    run = sub.add_parser("run", help="simulate an image")
    run.add_argument("image")
    run.add_argument("--key", type=_parse_key, default=DEFAULT_KEY)
    run.add_argument("--stats", metavar="FILE",
                     help="write the cycle table here instead of stderr")
    run.add_argument("--dump", metavar="FILE",
                     help="write the final machine state here")
    run.add_argument("--trace", action="store_true",
                     help="print per-cycle pipeline occupancy")
    run.add_argument("--max-cycles", type=_positive_int,
                     default=DEFAULT_MAX_CYCLES)
    run.add_argument("--user-words", type=_non_negative_int,
                     default=DEFAULT_USER_WORDS)
    run.add_argument("--cache-entries", type=_positive_int,
                     default=DEFAULT_CACHE_ENTRIES)
    run.add_argument("--bpb-entries", type=_positive_int,
                     default=DEFAULT_BPB_ENTRIES)

    orc = sub.add_parser("oracle", help="run the flat reference interpreter")
    orc.add_argument("image")
    orc.add_argument("--key", type=_parse_key, default=DEFAULT_KEY)
    orc.add_argument("--max-steps", type=_positive_int,
                     default=DEFAULT_MAX_STEPS)

    cmp_ = sub.add_parser("compare",
                          help="check a machine dump against the reference")
    cmp_.add_argument("image")
    cmp_.add_argument("dump")
    cmp_.add_argument("--key", type=_parse_key, default=DEFAULT_KEY)
    cmp_.add_argument("--max-steps", type=_positive_int,
                      default=DEFAULT_MAX_STEPS)
    return parser


def _read(path, command):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        problem = exc
    except UnicodeDecodeError as exc:
        problem = "not %s text (%s at byte %d): %r" % (exc.encoding,
                                                      exc.reason, exc.start,
                                                      path)
    print("kpu %s: %s" % (command, problem), file=sys.stderr)
    return None


def _write(path, text, command):
    # in place, then cut to length: on an ext4 root mounted `discard`, an
    # O_TRUNC open of an existing file measured several times slower
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666),
                  "w") as handle:
            handle.write(text)
            # a device or a pipe cannot be cut (ftruncate: EINVAL)
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()
    except OSError as exc:
        print("kpu %s: %s" % (command, exc), file=sys.stderr)
        return False
    return True


def _cmd_asm(args):
    source = _read(args.source, "asm")
    if source is None:
        return 2
    try:
        image, diagnostics = Assembler(Codec(args.key), args.seed).assemble(
            source, strict=args.strict)
    except (ParseError, CryptoSafetyError) as exc:
        print("kpu asm: %s" % exc, file=sys.stderr)
        return 2
    if diagnostics and not args.quiet:
        for diag in diagnostics:
            print("kpu asm: warning: %s" % diag, file=sys.stderr)
    return 0 if _write(args.output, write_image(image), "asm") else 2


def _load_image(path, command, parse):
    """What `parse` makes of the file at `path` (an image or a dump), or
    None once the problem is reported."""
    text = _read(path, command)
    if text is None:
        return None
    try:
        return parse(text)
    except FormatError as exc:
        print("kpu %s: %s" % (command, exc), file=sys.stderr)
        return None


def _cmd_run(args):
    image = _load_image(args.image, "run", parse_image)
    if image is None:
        return 2
    try:
        # loading the image's data can fault as well as running it; the
        # trace streams to stdout as the run goes, ahead of the outputs
        engine = Engine(image, Codec(args.key), user_words=args.user_words,
                        cache_entries=args.cache_entries,
                        bpb_entries=args.bpb_entries,
                        trace=print if args.trace else None)
        engine.run(max_cycles=args.max_cycles)
    except ProgramFault as exc:
        print("kpu run: fault: %s" % exc, file=sys.stderr)
        return 1
    for value in engine.outputs:
        print(value)
    table = render_stats(engine)
    if not args.stats:
        sys.stderr.write(table)
    elif not _write(args.stats, table, "run"):
        return 2
    if args.dump and not _write(args.dump, render_dump(engine_view(engine)),
                                "run"):
        return 2
    return 0


def _cmd_oracle(args):
    image = _load_image(args.image, "oracle", parse_image)
    if image is None:
        return 2
    try:
        result = interpret(image, Codec(args.key), max_steps=args.max_steps)
    except ProgramFault as exc:
        print("kpu oracle: fault: %s" % exc, file=sys.stderr)
        return 1
    lines = [str(value) for value in result.outputs]
    lines += ["r%02d 0x%08x" % pair for pair in enumerate(result.regs)]
    lines += ["mem 0x%08x 0x%08x" % pair
              for pair in sorted(result.user_mem.items())]
    sys.stdout.write("\n".join(lines) + "\n")
    print("@exit  : steps %d" % result.steps, file=sys.stderr)
    return 0


def _cmd_compare(args):
    image = _load_image(args.image, "compare", parse_image)
    if image is None:
        return 2
    view = _load_image(args.dump, "compare", parse_sim_dump)
    if view is None:
        return 2
    cdc = Codec(args.key)
    try:
        result = interpret(image, cdc, max_steps=args.max_steps)
    except ProgramFault as exc:
        print("kpu compare: reference fault: %s" % exc, file=sys.stderr)
        return 1
    try:
        problems = compare(view, result, cdc)
    except AliasDetected as exc:
        print("kpu compare: %s" % exc, file=sys.stderr)
        return 3
    print("MISMATCHES %d" % len(problems))
    for line in problems:
        print(line)
    return 3 if problems else 0


_COMMANDS = {"asm": _cmd_asm, "run": _cmd_run, "oracle": _cmd_oracle,
             "compare": _cmd_compare}


def main(argv=None):
    try:
        try:
            args = _build_parser().parse_args(argv)
            return _COMMANDS[args.command](args)
        finally:
            # what the flush at exit would find, found here
            sys.stdout.flush()
    except BrokenPipeError:
        # A stream whose reader went away would fail again at the flush at
        # exit, with a traceback-like report and exit 120; it writes to
        # the null device from here on.
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, stream.fileno())
                os.close(null)
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
