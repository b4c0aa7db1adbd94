"""Traced run: per-module call counts, inclusive time and self time.

Nothing inside ``src/`` is edited. The tracer replaces module and class
attributes of the program with timing wrappers while it is installed and
puts the originals back when it is removed. Names the pipeline imports
from the codec (``feistel_unround``) and names the frontend imports from
the assembler and the oracle are wrapped where the caller looks them up.

Per-call work (cycles, decodes, cipher rounds) is aggregated into one
``[calls, inclusive seconds, self seconds]`` record per key, so memory stays
bounded however long the run. Each kpu command gets a span of its own
(image id, command, start, end, self time); the spans of one image share
its id. A span's self time is its duration minus the time of the wrapped
calls directly inside it.
"""

import contextlib
import functools
import json
import time

from kpusim import alu, assembler, codec, core, frontend, isa, oracle, pipeline
from kpusim import memsys

# (owner, attribute, key). A key is "<module>.<operation>"; several
# attributes may share one key.
TARGETS = (
    (pipeline.Engine, "__init__", "pipeline.init"),
    (pipeline.Engine, "run", "pipeline.run"),
    (pipeline.Engine, "step", "pipeline.step"),
    (pipeline, "feistel_unround", "codec.round"),
    (codec.Codec, "encrypt", "codec.block"),
    (codec.Codec, "decrypt", "codec.block"),
    (isa, "decode", "isa.decode"),
    (alu, "execute", "alu.execute"),
    (memsys.MemorySystem, "user_load", "memsys.user_load"),
    (memsys.MemorySystem, "user_store", "memsys.user_store"),
    (core.MachineState, "enter_exception", "core.transition"),
    (core.MachineState, "rfe", "core.transition"),
    (core.MachineState, "write_register", "core.write_register"),
    (assembler.Assembler, "assemble", "assembler.assemble"),
    (assembler, "make_padding", "assembler.make_padding"),
    (frontend, "parse_image", "assembler.image_io"),
    (frontend, "write_image", "assembler.image_io"),
    (frontend, "interpret", "oracle.interpret"),
    (oracle.Interpreter, "step", "oracle.step"),
    (frontend, "compare", "oracle.compare"),
    (frontend, "render_dump", "oracle.dump_io"),
    (frontend, "parse_sim_dump", "oracle.dump_io"),
    (frontend, "render_stats", "frontend.render_stats"),
)

# make_padding(seed, ordinal, attempt=0): each encrypted immediate asks
# for attempt 0 exactly once, so those calls count the immediates.
FIRST_PAD = "assembler.encrypted_immediate"


class Tracer:
    def __init__(self):
        self.calls = {}                 # key -> [calls, inclusive s, self s]
        self.spans = []                 # (image, command, start, end, self)
        self.missing = []               # targets the program no longer has
        self._stack = [0.0]             # child time of each open span
        self._span_mark = 0             # spans before this belong to a take

    def _record(self, key):
        return self.calls.setdefault(key, [0, 0.0, 0.0])

    def _timed(self, key, fn):
        record = self._record(key)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
        return wrapper

    def _first_pads(self, fn):
        record = self._record(FIRST_PAD)

        @functools.wraps(fn)
        def wrapper(seed, ordinal, attempt=0):
            if attempt == 0:
                record[0] += 1
            return fn(seed, ordinal, attempt)
        return wrapper

    @contextlib.contextmanager
    def command(self, name, image_id):
        """Span around one kpu command of one image."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            child = self._stack.pop()
            self._stack[-1] += end - start
            self.spans.append((image_id, name, start, end,
                               end - start - child))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore them."""
        saved = []
        try:
            for owner, attr, key in TARGETS:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append("%s.%s" % (owner.__name__, attr))
                    continue
                fn = original
                if key == "assembler.make_padding":
                    fn = self._first_pads(original)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._timed(key, fn))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        """Per-key totals since the last take, then start again from zero."""
        snapshot = {key: tuple(rec) for key, rec in self.calls.items()}
        for rec in self.calls.values():
            rec[:] = [0, 0.0, 0.0]
        spans = self.spans[self._span_mark:]
        snapshot["frontend.command"] = (len(spans),
                                        sum(s[3] - s[2] for s in spans),
                                        sum(s[4] for s in spans))
        self._span_mark = len(self.spans)
        return snapshot

    def write(self, path, **extra):
        """Write the spans and per-key records out once the run is over."""
        spans = [{"image": image, "name": "kpu " + name, "start": start,
                  "end": end, "self_s": self_s, "parent": image}
                 for image, name, start, end, self_s in self.spans]
        with open(path, "w") as handle:
            json.dump(dict(extra, missing=self.missing, spans=spans), handle,
                      indent=1)


def module_table(snapshot):
    """{module: (calls, self seconds)} from one take()."""
    table = {}
    for key, (calls, _, self_s) in snapshot.items():
        if key == FIRST_PAD:
            continue
        module = key.split(".", 1)[0]
        count, seconds = table.get(module, (0, 0.0))
        table[module] = (count + calls, seconds + self_s)
    return table
