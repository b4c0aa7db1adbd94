"""Seeded generator of crypto-safe user-mode test programs.

Emits assembly source that follows the padding discipline encrypted
programs need: effective addresses come only from r0 or from base
registers that are written once and never touched again, every load reads
an address some earlier store wrote, loops are bounded counters, and the
only supervisor excursions are syscall round trips through a handler that
saves and restores the registers it borrows with full-width moves.

The same seed always yields the same source text, which keeps failures
reproducible from just the seed number.
"""

import random

POOL = tuple(range(1, 9))       # working registers
BASES = {14: 0x1200, 15: 0x5400}
HANDLER_SCRATCH = 1000          # supervisor byte offsets, 8-aligned
HANDLER_COUNTER = 992


def _fmt(op, *args):
    return "    %-10s %s" % (op, ",".join(str(a) for a in args))


class _Writer:
    def __init__(self, rng, size):
        self.rng = rng
        self.lines = []
        self.written = []               # (base_reg, offset) pairs on record
        self.pool = POOL                # registers the next lines may use
        self.label_n = 0
        self.budget = {"small": 40, "medium": 120}[size]

    def label(self, stem):
        self.label_n += 1
        return "%s_%d" % (stem, self.label_n)


def _seed_registers(w):
    for reg in POOL:
        value = w.rng.randrange(0, 1 << 32)
        w.lines.append(_fmt("l.addi", "r%d" % reg, "r0", value - (1 << 32)
                            if value >> 31 else value))


def _alu_rr(w):
    rng = w.rng
    op = rng.choice(["l.add", "l.sub", "l.and", "l.or", "l.xor", "l.mul",
                     "l.divu", "l.sll", "l.srl", "l.sra"])
    rd, ra, rb = (rng.choice(w.pool) for _ in range(3))
    w.lines.append(_fmt(op, "r%d" % rd, "r%d" % ra, "r%d" % rb))


def _alu_imm(w):
    rng = w.rng
    op = rng.choice(["l.addi", "l.andi", "l.ori", "l.xori", "l.muli",
                     "l.slli", "l.srli", "l.srai"])
    rd, ra = rng.choice(w.pool), rng.choice(w.pool)
    if op in ("l.slli", "l.srli", "l.srai"):
        imm = rng.randrange(0, 32)
    else:
        imm = rng.randrange(-(1 << 15), 1 << 31)
    w.lines.append(_fmt(op, "r%d" % rd, "r%d" % ra, imm))


def _store(w, tracked=True):
    rng = w.rng
    base = rng.choice([0, 14, 15])
    off = rng.randrange(0, 0x400) * 4
    src = rng.choice(w.pool)
    w.lines.append(_fmt("l.sw", "%d(r%d)" % (off, base), "r%d" % src))
    if tracked:
        w.written.append((base, off))


def _load(w, pool=None):
    rng = w.rng
    choices = pool if pool is not None else w.written
    if not choices:
        return _alu_imm(w)
    base, off = rng.choice(choices)
    rd = rng.choice(w.pool)
    w.lines.append(_fmt("l.lwz", "r%d" % rd, "%d(r%d)" % (off, base)))


def _loop(w):
    rng = w.rng
    counter = rng.choice(POOL)
    body_pool = [r for r in POOL if r != counter]
    count = rng.randrange(2, 7)
    top = w.label("loop")
    w.lines.append(_fmt("l.addi", "r%d" % counter, "r0", count))
    w.lines.append("%s:" % top)
    frozen = list(w.written)
    w.pool = body_pool                  # the body leaves the counter alone
    for _ in range(rng.randrange(1, 4)):
        kind = rng.random()
        if kind < 0.45:
            _alu_rr(w)
        elif kind < 0.8:
            _alu_imm(w)
        elif kind < 0.9 and frozen:
            _load(w, pool=frozen)
        else:
            _store(w, tracked=False)
    w.pool = POOL
    w.lines.append(_fmt("l.addi", "r%d" % counter, "r%d" % counter, -1))
    w.lines.append(_fmt("l.sfne", "r%d" % counter, "r0"))
    w.lines.append(_fmt("l.bf", top))


def generate_source(seed, size="small", syscalls=True):
    """Deterministic assembly text for one test program."""
    rng = random.Random(seed)
    w = _Writer(rng, size)

    head = [
        "# generated program, seed %d" % seed,
        ".mode user",
        ".entry start",
        "",
        ".org 0x700",
        _fmt("l.nop", 1),               # unexpected fault: just stop
        "",
        ".org 0xc00",
        _fmt("l.sd", "%d(r0)" % HANDLER_SCRATCH, "r20"),
        _fmt("l.ld", "r20", "%d(r0)" % HANDLER_COUNTER),
        _fmt("l.addi", "r20", "r20", 1),
        _fmt("l.sd", "%d(r0)" % HANDLER_COUNTER, "r20"),
        _fmt("l.ld", "r20", "%d(r0)" % HANDLER_SCRATCH),
        _fmt("l.rfe"),
        "",
        ".org 0x2000",
        ".encrypt on",
        "start:",
    ]
    for reg, value in BASES.items():
        head.append(_fmt("l.addi", "r%d" % reg, "r0", value))
    _seed_registers(w)

    steps = rng.randrange(w.budget // 2, w.budget + 1)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.30:
            _alu_rr(w)
        elif roll < 0.55:
            _alu_imm(w)
        elif roll < 0.70:
            _store(w)
        elif roll < 0.82:
            _load(w)
        elif roll < 0.87:
            w.lines.append(_fmt("l.nop", 2))
        elif roll < 0.92 and syscalls:
            w.lines.append(_fmt("l.sys", 0))
        else:
            _loop(w)

    tail = [_fmt("l.nop", 2), _fmt("l.nop", 1)]
    return "\n".join(head + w.lines + tail) + "\n"
