"""Flat reference interpreter.

The interpreter executes an image one instruction at a time over plain
32-bit registers, 32-bit logical user memory and 64-bit supervisor cells.
No pipeline, no padding, no ciphertext: it is the answer key the encrypted
machine is checked against. It shares with the machine the ISA layer
(the decoder, the prefix latch, the immediate-to-ALU table, which jumps are
pc-relative and which link, the user-mode legality rule), the ALU, the
memory rules of memsys (the supervisor data address, what a never-written
user cell reads as, the order DATA records load in), the fault at the
illegal-instruction vector (core.VectorSpin), the fault of a run that
outlives its budget (core.BudgetExhausted) and the one base class of
program faults, never the pipeline's execute path, and mirrors every
other architectural rule that shows through to results: trap entry and
return and mode containment of special registers. In user mode a prefix
pair and the immediate it seals are one step, as they are one instruction.
"""

from . import alu, isa
from .codec import MASK32, word_value
from .core import (BudgetExhausted, CONFIG_ID, Mode, SPR_CONFIG, SPR_EPCR,
                   SPR_SR, USER_READABLE_SPRS, VEC_ILLEGAL, VEC_SYSCALL,
                   VectorSpin, pack_sr, unpack_sr)
from .isa import InstrClass, MissingPrefix, PrefixLatch, consume_prefixes
from .memsys import blank_word, data_cells, super_index

DEFAULT_MAX_STEPS = 2_000_000


class Interpreter:
    """Runs an image one record per step() call.

    Each pc gets a record at its first execution in a mode, one table per
    mode: (handler, instruction, operand, advance). The handler, the
    advance and the operand rule depend only on the table row and the
    mode, and are looked up in one table built at import, keyed by
    (mnemonic, mode). The rule works out the operand, what the handler
    needs that the instruction alone does not say: a branch's (taken on a
    set flag, target), a direct jump's target, an immediate's (ALU op,
    sealed word) in user mode and (ALU op, imm & MASK32) in supervisor
    mode, and None elsewhere. So a record costs a decode, one lookup and
    at most one call. A record with an advance retires its word in step()
    before its handler runs: the step is counted, the prefix latch
    cleared and the pc moved on by the advance, 4 bytes. Prefixes,
    user-mode immediates and illegal words have an advance of 0 and do
    that themselves.

    In user mode an index-0 prefix, the index-1 prefix behind it and the
    immediate behind both get one record: the immediate's, with (ALU op,
    literal) opened when the record is made and an advance of 12, past
    all three. The fold is exact: an index-0 prefix resets the latch, so
    what the three words do never depends on what ran before them. Each
    word keeps its own record, for a jump inside.
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
        self.super_cells = dict(data_cells(image))
        self.outputs = []
        self.steps = 0
        self.halted = False
        self.latch = PrefixLatch()
        # sealed immediate block -> its 32-bit literal, opened at first use
        self.literals = {}
        self.blank = blank_word(cdc)

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

    def _record(self, pc, fold=True):
        """The record of `pc` in the current mode; with `fold`, the one
        record of a user-mode index-0 prefix, the index-1 prefix after it
        and the immediate they seal, its literal opened here."""
        word, ins = isa.decode_at(self.text, pc)
        if ins is None:
            return _ILLEGAL_RECORD
        handler, advance, operand = _DISPATCH[ins.mnemonic, self.mode]
        record = (handler, ins, operand and operand(pc, word, ins), advance)
        if not fold or handler is not Interpreter._prefix or ins.prefix_idx \
                or self.mode is not Mode.USER:
            return record
        second = self._own((pc + 4) & MASK32)
        if second[0] is not Interpreter._prefix or second[1].prefix_idx != 1:
            return record
        third = self._own((pc + 8) & MASK32)
        if third[0] is not Interpreter._sealed_immediate:
            return record
        latch = PrefixLatch()
        for prefix in (ins, second[1]):
            latch.feed(prefix.prefix_idx, prefix.prefix_payload)
        op, word = third[2]
        literal = self._open(consume_prefixes(latch, word))
        return (Interpreter._immediate, third[1], (op, literal), 12)

    def _own(self, pc):
        """The record kept for `pc`, made unfolded if new: a word decoded
        for a fold is its pc's record too, for a jump that lands on it."""
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc, False)
        return record

    def _open(self, cipher):
        """The 32-bit literal of a sealed immediate block, opened once."""
        literal = self.literals.get(cipher)
        if literal is None:
            literal = self.literals[cipher] = \
                word_value(self.codec.decrypt(cipher))
        return literal

    # -------------------------------------------------------------- step --

    def step(self):
        pc = self.pc
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc)
        handler, ins, operand, advance = record
        if advance:
            self.steps += 1
            # every non-prefix instruction empties the latch (its clear())
            latch = self.latch
            latch.p0 = latch.p1 = None
            self.pc = (pc + advance) & MASK32
        handler(self, pc, ins, operand)

    # Handlers, one per class and, where the class differs by mode, per
    # mode: called as handler(self, pc, instruction, operand).

    def _illegal(self, pc, ins, operand):
        if pc == VEC_ILLEGAL and self.mode is Mode.SUPERVISOR:
            raise VectorSpin()
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
        self.pc = (pc + 4) & MASK32
        self._immediate(pc, ins, (op, self._open(cipher)))

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

    def run(self, max_steps=DEFAULT_MAX_STEPS):
        """Step to the exit; the interpreter is its own end state."""
        while not self.halted:
            if self.steps >= max_steps:
                raise BudgetExhausted(max_steps)
            self.step()
        return self


def _target(pc, word, ins):
    return (pc + 4 * ins.imm) & MASK32


def _dispatch(row, mode):
    """The handler of a table row in a mode, how far step() moves the pc
    as it retires the word before calling it (0: the handler does), and
    its operand rule: None, or what works out the record's operand from
    (pc, word, instruction)."""
    I = Interpreter
    cls, user = row.cls, mode is Mode.USER
    if user and isa.user_illegal(row):
        return I._illegal, 0, None
    if cls is InstrClass.PREFIX:
        return I._prefix, 0, None
    if cls is InstrClass.IMMEDIATE:
        op = isa.IMM_ALU_OP[row.mnemonic]
        if user:                        # the sealed word, opened at step()
            return (I._sealed_immediate, 0,
                    lambda pc, word, ins: (op, word))
        return I._immediate, 4, lambda pc, word, ins: (op, ins.imm & MASK32)
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
    return handler, 4, operand


# (mnemonic, mode) -> (handler, advance, operand rule), one entry per table
# row and mode, built once; an undecodable word gets the illegal record
_DISPATCH = {(row.mnemonic, mode): _dispatch(row, mode)
             for row in isa.TABLE for mode in Mode}
_ILLEGAL_RECORD = (Interpreter._illegal, None, None, 0)


def interpret(image, cdc, max_steps=DEFAULT_MAX_STEPS):
    """Run the flat interpreter over an image to completion."""
    return Interpreter(image, cdc).run(max_steps)

