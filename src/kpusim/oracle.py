"""Flat reference interpreter and state comparison.

The interpreter executes an image one instruction at a time over plain
32-bit registers, 32-bit logical user memory and 64-bit supervisor cells.
No pipeline, no padding, no ciphertext: it is the answer key the encrypted
machine is checked against. It shares with the machine the ISA layer
(the decoder, the prefix latch, the immediate-to-ALU table, which jumps are
pc-relative and which link, the user-mode legality rule), the ALU, the
supervisor data address rule (memsys.super_index) and the one base class
of program faults, never the pipeline's execute path, and mirrors every
other architectural rule that shows through to results: trap entry and
return, mode containment of special registers, and the quirk that an
unwritten user cell reads back as the decryption of an all-zero block.
The machine's dump format (render_dump/parse_sim_dump) lives here too.

compare() translates a finished machine into this flat domain and diffs:
registers by their 32-bit values, user memory by logical address (detecting
aliases, where one logical address ended up spread over several physical
cells with different contents), debug output verbatim.
"""

from . import alu, isa
from .codec import MASK32, MASK64, ProgramFault, word_value
from .core import (CONFIG_ID, Mode, SPR_CONFIG, SPR_EPCR, SPR_SR,
                   USER_READABLE_SPRS, VEC_ILLEGAL, VEC_SYSCALL, pack_sr,
                   unpack_sr)
from .isa import InstrClass, MissingPrefix, PrefixLatch, consume_prefixes
from .memsys import super_index


class MaxStepsExceeded(ProgramFault):
    pass


class OracleFault(ProgramFault):
    """Program did something the flat machine cannot continue from."""


class OracleResult(isa.Slotted):
    __slots__ = ("regs", "user_mem", "super_cells", "outputs", "steps", "mode",
                 "flags")

    def __init__(self, regs, user_mem, super_cells, outputs, steps, mode,
                 flags):
        self.regs = regs
        self.user_mem = user_mem
        self.super_cells = super_cells
        self.outputs = outputs
        self.steps = steps
        self.mode = mode
        self.flags = flags


class Interpreter:
    """Runs an image one word per step() call.

    Each pc gets a record at its first execution in a mode, one table per
    mode: (handler, instruction, operand, plain). The handler, the plain
    flag and the operand rule depend only on the table row and the mode,
    and are looked up in one table built at import, keyed by (mnemonic,
    mode). The rule works out the operand, what the handler needs that the
    instruction alone does not say: a branch's (taken on a set flag,
    target), a direct jump's target, an immediate's (ALU op, sealed word)
    in user mode and (ALU op, imm & MASK32) in supervisor mode, and None
    elsewhere. So a record costs a decode, one lookup and at most one
    call. A plain record's word retires in step() before its handler runs:
    the step is counted, the prefix latch cleared and the pc moved past
    it. Prefixes, user-mode immediates and illegal words do that
    themselves.
    """

    def __init__(self, image, cdc):
        self.codec = cdc
        self.pc = image.entry & MASK32
        self.mode = Mode(image.mode)
        self.regs = [0] * 32
        self.flags = {"f": False, "cy": False, "ov": False}
        self.epcr = 0
        # mirrors the machine's hidden saved-SR, which resets to all-clear:
        # an rfe with no preceding trap drops to user mode with clean flags
        self.esr = (Mode.USER, {"f": False, "cy": False, "ov": False})
        self.spr = {SPR_CONFIG: CONFIG_ID}
        self.text = image.text
        # per mode, pc -> record, made at the pc's first execution there
        self._records_by_mode = {Mode.USER: {}, Mode.SUPERVISOR: {}}
        self._records = self._records_by_mode[self.mode]
        self.user_mem = {}
        self.super_cells = {}
        # in address order, as the engine loads them, so an image with
        # several unloadable records faults on the same one in both
        for addr in sorted(image.data):
            self.super_cells[super_index(addr)] = image.data[addr]
        self.outputs = []
        self.steps = 0
        self.halted = False
        self.latch = PrefixLatch()
        # sealed immediate block -> its 32-bit literal, opened at first use
        self.literals = {}
        # what the encrypted machine reads from a never-written cell
        self.blank = word_value(cdc.decrypt(0))

    # ----------------------------------------------------------- helpers --

    def _write(self, rd, value):
        if rd:
            self.regs[rd] = value & MASK32

    def _enter(self, mode):
        self.mode = mode
        self._records = self._records_by_mode[mode]

    def _trap(self, vector, return_pc):
        self.esr = (self.mode, dict(self.flags))
        self.epcr = return_pc & MASK32
        self.flags = {"f": False, "cy": False, "ov": False}
        self._enter(Mode.SUPERVISOR)
        self.pc = vector
        self.latch.clear()

    def _read_spr(self, index):
        if self.mode is Mode.USER:
            return self.spr[index] if index in USER_READABLE_SPRS else 0
        if index == SPR_SR:
            return pack_sr(self.mode is Mode.SUPERVISOR, self.flags["f"],
                           self.flags["cy"], self.flags["ov"])
        if index == SPR_EPCR:
            return self.epcr
        return self.spr.get(index, 0)

    def _write_spr(self, index, value):
        if self.mode is Mode.USER or index == SPR_CONFIG:
            return
        if index == SPR_SR:
            _, f, cy, ov = unpack_sr(value)
            self.flags = {"f": f, "cy": cy, "ov": ov}
        elif index == SPR_EPCR:
            self.epcr = value & MASK32
        else:
            self.spr[index] = value & MASK32

    # ------------------------------------------------------------ record --

    def _record(self, pc):
        """The record of `pc` in the current mode."""
        word, ins = isa.decode_at(self.text, pc)
        if ins is None:
            return _ILLEGAL_RECORD
        handler, plain, operand = _DISPATCH[ins.mnemonic, self.mode]
        return (handler, ins, operand and operand(pc, word, ins), plain)

    # -------------------------------------------------------------- step --

    def step(self):
        pc = self.pc
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc)
        handler, ins, operand, plain = record
        if plain:
            self.steps += 1
            # every non-prefix instruction leaves the latch empty
            self.latch.clear()
            self.pc = (pc + 4) & MASK32
        handler(self, pc, ins, operand)

    # Handlers, one per class and, where the class differs by mode, per
    # mode: called as handler(self, pc, instruction, operand).

    def _illegal(self, pc, ins, operand):
        if pc == VEC_ILLEGAL and self.mode is Mode.SUPERVISOR:
            # the trap would fetch this same illegal word again, forever
            raise OracleFault(
                "illegal instruction at the illegal-instruction vector "
                "0x%08x in supervisor mode" % VEC_ILLEGAL)
        self.steps += 1
        self._trap(VEC_ILLEGAL, pc)

    def _prefix(self, pc, ins, operand):
        # merged into the immediate they precede, not a step of their own
        self.latch.feed(ins.prefix_idx, ins.prefix_payload)
        self.pc = (pc + 4) & MASK32

    def _sealed_immediate(self, pc, ins, operand):
        self.steps += 1
        op, word = operand
        try:
            cipher = consume_prefixes(self.latch, word)
        except MissingPrefix:
            self._trap(VEC_ILLEGAL, pc)
            return
        literal = self.literals.get(cipher)
        if literal is None:
            literal = self.literals[cipher] = \
                word_value(self.codec.decrypt(cipher))
        self.pc = (pc + 4) & MASK32
        self._immediate(pc, ins, (op, literal))

    # an ALU result is already 32 bits wide: no _write mask needed
    def _immediate(self, pc, ins, operand):
        op, literal = operand
        res, effects = alu.execute(op, self.regs[ins.ra], literal)
        if ins.rd:
            self.regs[ins.rd] = res
        self.flags.update(effects)

    def _register(self, pc, ins, operand):
        regs = self.regs
        res, effects = alu.execute(ins.funct, regs[ins.ra], regs[ins.rb])
        if ins.rd:
            regs[ins.rd] = res
        self.flags.update(effects)

    def _set_flag(self, pc, ins, operand):
        regs = self.regs
        self.flags["f"] = alu.compare_flag(ins.funct, regs[ins.ra],
                                           regs[ins.rb])

    def _user_load(self, pc, ins, operand):
        ea = (self.regs[ins.ra] + ins.imm) & MASK32
        self._write(ins.rd, self.user_mem.get(ea, self.blank))

    def _load(self, pc, ins, operand):
        ea = (self.regs[ins.ra] + ins.imm) & MASK32
        self._write(ins.rd, self.super_cells.get(super_index(ea), 0) & MASK32)

    def _user_store(self, pc, ins, operand):
        regs = self.regs
        self.user_mem[(regs[ins.ra] + ins.imm) & MASK32] = regs[ins.rb]

    def _store(self, pc, ins, operand):
        regs = self.regs
        ea = (regs[ins.ra] + ins.imm) & MASK32
        self.super_cells[super_index(ea)] = regs[ins.rb]

    def _class64(self, pc, ins, operand):
        if ins.funct == isa.C64_ADD:
            self._write(ins.rd, self.regs[ins.ra] + self.regs[ins.rb])
            return
        ea = (self.regs[ins.ra] + ins.imm) & MASK32
        if ins.funct == isa.C64_LD:
            self._write(ins.rd, self.super_cells.get(super_index(ea), 0))
        else:
            self.super_cells[super_index(ea)] = self.regs[ins.rb]

    def _branch(self, pc, ins, operand):
        on_flag, target = operand
        if self.flags["f"] == on_flag:
            self.pc = target

    def _jump(self, pc, ins, operand):
        target = self.regs[ins.rb] if operand is None else operand
        if ins.mnemonic in isa.LINKING:
            self._write(9, (pc + 4) & MASK32)
        self.pc = target

    def _nop(self, pc, ins, operand):
        if ins.imm == 1:
            self.halted = True
        elif ins.imm == 2:
            self.outputs.append(self.regs[3])

    def _sys(self, pc, ins, operand):
        self._trap(VEC_SYSCALL, (pc + 4) & MASK32)

    def _rfe(self, pc, ins, operand):
        mode, flags = self.esr
        self._enter(mode)
        self.flags = dict(flags)
        self.pc = self.epcr

    def _mfspr(self, pc, ins, operand):
        index = (self.regs[ins.ra] | ins.imm) & 0xFFFF
        self._write(ins.rd, self._read_spr(index))

    def _mtspr(self, pc, ins, operand):
        index = (self.regs[ins.ra] | ins.imm) & 0xFFFF
        self._write_spr(index, self.regs[ins.rb])

    def run(self, max_steps=2_000_000):
        while not self.halted:
            if self.steps >= max_steps:
                raise MaxStepsExceeded("no exit after %d steps" % max_steps)
            self.step()
        return OracleResult(list(self.regs), dict(self.user_mem),
                            dict(self.super_cells), list(self.outputs),
                            self.steps, self.mode, dict(self.flags))


def _target(pc, word, ins):
    return (pc + 4 * ins.imm) & MASK32


def _dispatch(row, mode):
    """The handler of a table row in a mode, whether step() retires its
    word before calling it, and its operand rule: None, or what works out
    the record's operand from (pc, word, instruction)."""
    I = Interpreter
    cls, user = row.cls, mode is Mode.USER
    if user and isa.user_illegal(row):
        return I._illegal, False, None
    if cls is InstrClass.PREFIX:
        return I._prefix, False, None
    if cls is InstrClass.IMMEDIATE:
        op = isa.IMM_ALU_OP[row.mnemonic]
        if user:                        # the sealed word, opened at step()
            return (I._sealed_immediate, False,
                    lambda pc, word, ins: (op, word))
        return I._immediate, True, lambda pc, word, ins: (op, ins.imm & MASK32)
    operand = None
    if cls is InstrClass.REGISTER:
        handler = I._set_flag if row.opcode == isa.OP_SF else I._register
    elif cls is InstrClass.LOAD:
        handler = I._user_load if user else I._load
    elif cls is InstrClass.STORE:
        handler = I._user_store if user else I._store
    elif cls is InstrClass.SYSTRAP or cls is InstrClass.SPR:
        handler = {"l.sys": I._sys, "l.rfe": I._rfe, "l.mfspr": I._mfspr,
                   "l.mtspr": I._mtspr}[row.mnemonic]
    elif cls is InstrClass.BRANCH:      # (taken on a set flag?, target)
        handler, sense = I._branch, row.opcode == isa.OP_BF
        operand = lambda pc, word, ins: (sense, _target(pc, word, ins))
    else:
        handler = {InstrClass.CLASS64: I._class64, InstrClass.JUMP: I._jump,
                   InstrClass.NOP: I._nop}[cls]
        if row.mnemonic in isa.PC_RELATIVE:
            operand = _target
    return handler, True, operand


# (mnemonic, mode) -> (handler, plain, operand rule), one entry per table
# row and mode, built once; an undecodable word gets the illegal record
_DISPATCH = {(row.mnemonic, mode): _dispatch(row, mode)
             for row in isa.TABLE for mode in Mode}
_ILLEGAL_RECORD = (Interpreter._illegal, None, None, False)


def interpret(image, cdc, max_steps=2_000_000):
    """Run the flat interpreter over an image to completion."""
    return Interpreter(image, cdc).run(max_steps)


# ------------------------------------------------------------- comparison --

class SimView(isa.Slotted):
    """Encrypted-machine end state in serializable form."""

    __slots__ = ("mode", "regs_real", "regs_shadow", "cells", "tlb", "outputs")

    def __init__(self, mode, regs_real, regs_shadow, cells=None, tlb=None,
                 outputs=None):
        self.mode = mode
        self.regs_real = regs_real
        self.regs_shadow = regs_shadow
        self.cells = {} if cells is None else cells
        self.tlb = {} if tlb is None else tlb
        self.outputs = [] if outputs is None else outputs


def engine_view(engine):
    st = engine.state
    return SimView(
        mode=st.mode.value,
        regs_real=list(st.regs),
        regs_shadow=list(st.shadow),
        cells=dict(engine.mem.cells),
        tlb=dict(engine.mem.tlb.entries),
        outputs=list(engine.outputs),
    )


def render_dump(view):
    lines = ["KPUDUMP 1", "MODE %s" % view.mode]
    for i in range(32):
        lines.append("REG %02d %016x %016x"
                     % (i, view.regs_real[i], view.regs_shadow[i]))
    for index in sorted(view.cells):
        if view.cells[index]:
            lines.append("PHYS %d %016x" % (index, view.cells[index]))
    for cipher, index in sorted(view.tlb.items(), key=lambda kv: kv[1]):
        lines.append("TLBMAP %016x %d" % (cipher, index))
    for value in view.outputs:
        lines.append("OUT %d" % value)
    return "\n".join(lines) + "\n"


# record -> field count, the record name included
_DUMP_FIELDS = {"MODE": 2, "REG": 4, "PHYS": 3, "TLBMAP": 3, "OUT": 2}


def _dump_number(lineno, text, base, limit):
    """A dump field: unsigned, in `base`, at most `limit`."""
    try:
        value = int(text, base)
    except ValueError:
        value = -1
    if not 0 <= value <= limit:
        raise ValueError("line %d: bad number %r" % (lineno, text))
    return value


def parse_sim_dump(text):
    view = SimView(mode="super", regs_real=[0] * 32, regs_shadow=[0] * 32)
    seen_magic = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if not seen_magic:
            if fields != ["KPUDUMP", "1"]:
                raise ValueError("line %d: expected KPUDUMP 1 header" % lineno)
            seen_magic = True
            continue
        kind = fields[0]
        if kind not in _DUMP_FIELDS:
            raise ValueError("line %d: unrecognized record %r" % (lineno, kind))
        if len(fields) != _DUMP_FIELDS[kind]:
            raise ValueError("line %d: %s takes %d fields"
                             % (lineno, kind, _DUMP_FIELDS[kind] - 1))
        if kind == "MODE":
            if fields[1] not in ("user", "super"):
                raise ValueError("line %d: mode must be user or super" % lineno)
            view.mode = fields[1]
        elif kind == "REG":
            i = _dump_number(lineno, fields[1], 10, MASK64)
            if i >= 32:
                raise ValueError("line %d: no register %d" % (lineno, i))
            view.regs_real[i] = _dump_number(lineno, fields[2], 16, MASK64)
            view.regs_shadow[i] = _dump_number(lineno, fields[3], 16, MASK64)
        elif kind == "PHYS":
            view.cells[_dump_number(lineno, fields[1], 10, MASK64)] = \
                _dump_number(lineno, fields[2], 16, MASK64)
        elif kind == "TLBMAP":
            view.tlb[_dump_number(lineno, fields[1], 16, MASK64)] = \
                _dump_number(lineno, fields[2], 10, MASK64)
        else:
            view.outputs.append(_dump_number(lineno, fields[1], 10, MASK32))
    return view


class AliasDetected(Exception):
    """One logical address is spread over physical cells that disagree."""


def _domainize_register(view, i, cdc):
    if view.mode == "user":
        return view.regs_shadow[i] & MASK32
    real = view.regs_real[i]
    if real >> 32 == 0:
        return real & MASK32
    return word_value(cdc.decrypt(real))


def compare(view, result, cdc):
    """Diff an encrypted-machine view against an oracle result.

    Returns a list of human-readable mismatch lines; empty means the two
    agree. Raises AliasDetected if the encrypted machine's memory holds
    several inconsistent physical copies of one logical address.
    """
    problems = []
    for i in range(32):
        sim = _domainize_register(view, i, cdc)
        ref = result.regs[i] & MASK32
        if sim != ref:
            problems.append("r%d: machine 0x%08x, reference 0x%08x"
                            % (i, sim, ref))

    logical = {}
    for cipher, index in view.tlb.items():
        ea_block = cdc.decrypt(cipher)
        addr = word_value(ea_block)
        # a cell the dump leaves out holds 0, as in the machine
        value = word_value(cdc.decrypt(view.cells.get(index, 0)))
        logical.setdefault(addr, []).append(value)
    for addr, values in sorted(logical.items()):
        seen = set(values)
        if len(seen) > 1:
            raise AliasDetected(
                "logical address 0x%08x maps to %d cells with values %s"
                % (addr, len(values),
                   ", ".join("0x%08x" % v for v in sorted(seen))))
    for addr, ref in sorted(result.user_mem.items()):
        values = logical.get(addr)
        if values is None:
            problems.append("memory 0x%08x: missing from machine, "
                            "reference 0x%08x" % (addr, ref))
            continue
        if values[0] != ref & MASK32:
            problems.append("memory 0x%08x: machine 0x%08x, reference 0x%08x"
                            % (addr, values[0], ref & MASK32))

    if view.outputs != [v & MASK32 for v in result.outputs]:
        problems.append("outputs: machine %r, reference %r"
                        % (view.outputs, result.outputs))
    return problems
