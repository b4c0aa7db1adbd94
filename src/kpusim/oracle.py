"""Flat reference interpreter.

The interpreter executes an image one instruction at a time over plain
32-bit registers, 32-bit logical user memory and 64-bit supervisor cells.
No pipeline, no padding, no ciphertext: it is the answer key the encrypted
machine is checked against. It shares with the machine the ISA layer
(the decoder, the sealed immediate's block layout, the immediate-to-ALU
table, which jumps are pc-relative and which link, the user-mode legality
rule), the ALU, the memory rules of memsys (the supervisor data address,
what a never-written user cell reads as, the order DATA records load in),
the fault at the illegal-instruction vector (core.VectorSpin), the fault
of a run that outlives its budget (core.BudgetExhausted) and the one base
class of program faults, never the pipeline's execute path, and mirrors
every other architectural rule that shows through to results: trap entry
and return and mode containment of special registers. In user mode a
prefix pair and the immediate it seals are one step, as they are one
instruction.
"""

from . import alu, isa
from .codec import MASK32, word_value
from .core import (BudgetExhausted, CONFIG_ID, Mode, SPR_CONFIG, SPR_EPCR,
                   SPR_SR, USER_READABLE_SPRS, VEC_ILLEGAL, VEC_SYSCALL,
                   VectorSpin, pack_sr, unpack_sr)
from .isa import EXIT_CODE, InstrClass, LINK_REG, PRINT_CODE, PRINT_REG
from .memsys import blank_word, data_cells, super_index

DEFAULT_MAX_STEPS = 2_000_000


class Interpreter:
    """Runs an image: step() runs one record, run() a run of them.

    Each pc gets a record at its first execution in a mode, one table per
    mode: (handler, instruction, operand, successor). The handler, whether
    step() retires the word and the operand depend only on the table row
    and the mode, and are looked up by mnemonic in the mode's dispatch
    table, built at import and bound on entering the mode beside its
    records. The operand is what the handler needs that the instruction
    alone does not say: an ALU row's alu kernel, a set-flag row's flag
    kernel, a branch's (taken on a set flag, target), a direct jump's
    target, an immediate's kernel in user mode and (kernel, imm & MASK32)
    in supervisor mode, and None elsewhere. Where it is the row's alone
    (a kernel, looked up by its code once, as the table is built, or
    None) the table holds it; elsewhere the table's rule works it out
    from the pc and the instruction. So a record costs a decode, one
    lookup and at most one call. A record with a successor, the pc after
    its word (0 is one, after a word at 0xFFFFFFFC), retires the word in
    step() before its handler runs: the step is counted and the pc set to
    the successor, where a link's return address and l.sys's saved pc
    read it. Prefixes, user-mode immediates and illegal words have None:
    their handlers read their own pc there and retire the word
    themselves. A jump or a taken branch has a successor, and its handler
    sets the pc again.

    In user mode an index-0 prefix, the index-1 prefix behind it and the
    immediate behind both get one record: the immediate's, with (kernel,
    literal) and the pc past all three as its successor. The literal comes
    from the image's sealed table: at the first user-mode record, every pc
    where isa.sealed_high reads a prefix pair from its bits gets its block
    opened, the whole table in one batch (Codec.decrypt_many), and from
    then on a pc folds exactly when it is in the table; the fold decodes
    only the immediate. The fold is the machine's rule: an immediate is
    sealed exactly when the two words run just before it were an index-0
    prefix at pc - 8 and an index-1 prefix at pc - 4, as a prefix falls
    through. So a prefix only moves the pc on, and a user-mode immediate
    reached any other way is a step that traps to the illegal-instruction
    vector, as the machine's illegal carrier does. The immediate keeps the
    record it is decoded into, for a jump onto it; a word the fold only
    reads gets its own record when execution first reaches it, by a jump
    inside, as any word does.

    Once a pc has a record in a mode, as at its second execution there,
    run() makes the run there from records that exist, one table per mode
    beside the records; nothing is decoded ahead. A run is the straight
    records from that pc on, those that retire their word and touch
    neither the pc, the mode nor halted (register, set-flag and immediate
    records, a folded prefix pair's too, user loads and stores, l.mfspr,
    l.mtspr and every no-op but the exit), then the first record with a
    successor that is not straight, which closes it. A record with no
    successor, or a pc with no record yet, ends it before. When the budget
    holds all of a run, run() sets the step count and the pc once, past
    the run (its last record's successor), as step() would set them
    before a handler, then executes the run as one loop over its
    (handler, instruction, operand) triples, the closing record's last.
    Otherwise, and at a pc with no record yet, run() runs one record,
    inline, as step() would run it.
    Supervisor loads and stores can fault through super_index, so each
    closes its run, and a fault leaves the step count and the pc where
    stepping leaves them.
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
        # pc -> literal of each prefix pair, opened at the first user record
        self._literals = None
        # per mode, pc -> record, made at the pc's first execution there
        self._records_by_mode = {Mode.USER: {}, Mode.SUPERVISOR: {}}
        # per mode, pc -> run, made once the pc has a record there
        self._runs_by_mode = {Mode.USER: {}, Mode.SUPERVISOR: {}}
        self._enter(self.mode)
        self.user_mem = {}
        self.super_cells = dict(data_cells(image))
        self.outputs = []
        self.steps = 0
        self.halted = False
        self.blank = blank_word(cdc)

    # ----------------------------------------------------------- helpers --

    def _write(self, rd, value):
        if rd:
            self.regs[rd] = value & MASK32

    def _enter(self, mode):
        self.mode = mode
        self._records = self._records_by_mode[mode]
        self._runs = self._runs_by_mode[mode]
        self._dispatch = _DISPATCH[mode]

    def _trap(self, vector, return_pc):
        self.esr = (self.mode, dict(self.flags))
        self.epcr = return_pc & MASK32
        self.flags = {"f": False, "cy": False, "ov": False}
        self._enter(Mode.SUPERVISOR)
        self.pc = vector

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
        and the immediate they seal: a pc in the sealed table, which is
        opened here at the first user-mode record, the immediate's record
        made unfolded if new and kept, and the literal the table's. Its
        handler, not its class, says the word at pc + 8 is a sealed
        immediate: a folded record there holds an immediate too, with a
        literal for the word."""
        if fold and self.mode is Mode.USER:
            literals = self._literals
            if literals is None:
                literals = self._literals = self._open_sealed()
            literal = literals.get(pc)
            if literal is not None:
                at, records = (pc + 8) & MASK32, self._records
                sealed = records.get(at) or self._record(at, False)
                if sealed[0] is Interpreter._sealed_immediate:
                    records[at] = sealed
                    return (Interpreter._immediate, sealed[1],
                            (sealed[2], literal), (pc + 12) & MASK32)
        _, ins = isa.decode_at(self.text, pc)
        if ins is None:
            return _ILLEGAL_RECORD
        handler, retires, rule, operand = self._dispatch[ins.mnemonic]
        return (handler, ins, operand if rule is None else rule(pc, ins),
                (pc + 4) & MASK32 if retires else None)

    def _open_sealed(self):
        """pc -> literal of every prefix pair in the text, found by
        isa.sealed_high: the low 32 bits of the block the pair at pc and
        pc + 4 seals with the word at pc + 8, all opened in one batch."""
        text, pcs, blocks = self.text, [], []
        for pc in text:
            high = isa.sealed_high(text, pc)
            if high is not None:
                pcs.append(pc)
                blocks.append(high | text.get((pc + 8) & MASK32, 0)
                              & isa.LOW_MASK)
        return dict(zip(pcs, map(word_value,
                                 self.codec.decrypt_many(blocks))))

    def _run(self, pc):
        """The run at `pc`, a pc with a record, as (ops, count, successor):
        ops are (handler, instruction, operand), the closing record's last,
        and count is 0 where the record at `pc` has no successor."""
        records, ops = self._records, []
        record = records[pc]
        while record is not None:
            handler, ins, operand, successor = record
            if successor is None:
                break
            ops.append((handler, ins, operand))
            pc = successor
            if handler not in _STRAIGHT or (handler is Interpreter._nop
                                            and ins.imm == EXIT_CODE):
                break
            record = records.get(pc)
        return ops, len(ops), pc

    # -------------------------------------------------------------- step --

    def step(self):
        pc = self.pc
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc)
        handler, ins, operand, successor = record
        if successor is not None:
            self.steps += 1
            self.pc = successor
        handler(self, ins, operand)

    # Handlers, one per class and, where the class differs by mode, per
    # mode: called as handler(self, instruction, operand), with self.pc
    # already the record's successor where it has one, else its own pc.

    def _illegal(self, ins, operand):
        if self.pc == VEC_ILLEGAL and self.mode is Mode.SUPERVISOR:
            raise VectorSpin()
        self.steps += 1
        self._trap(VEC_ILLEGAL, self.pc)

    def _prefix(self, ins, operand):
        # a pair that seals an immediate runs in its fold, not here
        self.pc = (self.pc + 4) & MASK32

    def _sealed_immediate(self, ins, operand):
        # reached other than through its pair's fold: the pair is missing
        self.steps += 1
        self._trap(VEC_ILLEGAL, self.pc)

    # registers, literals and kernel results are 32 bits wide: no mask
    def _immediate(self, ins, operand):
        kernel, literal = operand
        res, effects = kernel(self.regs[ins.ra], literal)
        if ins.rd:
            self.regs[ins.rd] = res
        self.flags.update(effects)

    def _register(self, ins, kernel):
        regs = self.regs
        res, effects = kernel(regs[ins.ra], regs[ins.rb])
        if ins.rd:
            regs[ins.rd] = res
        self.flags.update(effects)

    def _set_flag(self, ins, kernel):
        regs = self.regs
        self.flags["f"] = kernel(regs[ins.ra], regs[ins.rb])

    def _user_load(self, ins, operand):
        ea = (self.regs[ins.ra] + ins.imm) & MASK32
        self._write(ins.rd, self.user_mem.get(ea, self.blank))

    def _load(self, ins, operand):
        ea = (self.regs[ins.ra] + ins.imm) & MASK32
        self._write(ins.rd, self.super_cells.get(super_index(ea), 0) & MASK32)

    def _user_store(self, ins, operand):
        regs = self.regs
        self.user_mem[(regs[ins.ra] + ins.imm) & MASK32] = regs[ins.rb]

    def _store(self, ins, operand):
        regs = self.regs
        ea = (regs[ins.ra] + ins.imm) & MASK32
        self.super_cells[super_index(ea)] = regs[ins.rb]

    def _class64(self, ins, operand):
        if ins.funct == isa.C64_ADD:
            self._write(ins.rd, self.regs[ins.ra] + self.regs[ins.rb])
            return
        ea = (self.regs[ins.ra] + ins.imm) & MASK32
        if ins.funct == isa.C64_LD:
            self._write(ins.rd, self.super_cells.get(super_index(ea), 0))
        else:
            self.super_cells[super_index(ea)] = self.regs[ins.rb]

    def _branch(self, ins, operand):
        on_flag, target = operand
        if self.flags["f"] == on_flag:
            self.pc = target

    def _jump(self, ins, operand):
        target = self.regs[ins.rb] if operand is None else operand
        if ins.mnemonic in isa.LINKING:
            self._write(LINK_REG, self.pc)
        self.pc = target

    def _nop(self, ins, operand):
        if ins.imm == EXIT_CODE:
            self.halted = True
        elif ins.imm == PRINT_CODE:
            self.outputs.append(self.regs[PRINT_REG])

    def _sys(self, ins, operand):
        self._trap(VEC_SYSCALL, self.pc)

    def _rfe(self, ins, operand):
        mode, flags = self.esr
        self._enter(mode)
        self.flags = dict(flags)
        self.pc = self.epcr

    def _mfspr(self, ins, operand):
        index = (self.regs[ins.ra] | ins.imm) & 0xFFFF
        self._write(ins.rd, self._read_spr(index))

    def _mtspr(self, ins, operand):
        index = (self.regs[ins.ra] | ins.imm) & 0xFFFF
        self._write_spr(index, self.regs[ins.rb])

    def run(self, max_steps=DEFAULT_MAX_STEPS):
        """Run to the exit; the interpreter is its own end state. At a pc
        with a record the run there executes whole when the budget holds
        all of it; a pc with no record yet, a run with no steps and a run
        the budget cannot hold run one record, inline, as step() would."""
        while not self.halted:
            steps = self.steps
            if steps >= max_steps:
                raise BudgetExhausted(max_steps)
            pc = self.pc
            records = self._records
            record = records.get(pc)
            if record is None:
                record = records[pc] = self._record(pc)
            else:
                run = self._runs.get(pc)
                if run is None:
                    run = self._runs[pc] = self._run(pc)
                ops, count, successor = run
                if count and steps + count <= max_steps:
                    # set first, as step() sets them: no record before the
                    # last reads or sets the pc, the step count, the mode
                    # or halted
                    self.steps = steps + count
                    self.pc = successor
                    for handler, ins, operand in ops:
                        handler(self, ins, operand)
                    continue
            handler, ins, operand, successor = record
            if successor is not None:
                self.steps = steps + 1
                self.pc = successor
            handler(self, ins, operand)
        return self


def _target(pc, ins):
    return (pc + 4 * ins.imm) & MASK32


def _dispatch(row, mode):
    """The handler of a table row in a mode, whether step() retires the
    word before calling it (False: the handler does), the operand rule
    and the operand: a rule works out the record's operand from (pc,
    instruction); with no rule the operand is the row's alone."""
    I = Interpreter
    cls, user = row.cls, mode is Mode.USER
    if user and isa.user_illegal(row):
        return I._illegal, False, None, None
    if cls is InstrClass.PREFIX:
        return I._prefix, False, None, None
    if cls is InstrClass.IMMEDIATE:
        kernel = alu.kernel(isa.IMM_ALU_OP[row.mnemonic])
        if user:                        # the kernel, for the fold
            return I._sealed_immediate, False, None, kernel
        return (I._immediate, True,
                lambda pc, ins: (kernel, ins.imm & MASK32), None)
    rule = operand = None
    if cls is InstrClass.REGISTER:
        if row.opcode == isa.OP_SF:
            handler, operand = I._set_flag, alu.flag_kernel(row.funct)
        else:
            handler, operand = I._register, alu.kernel(row.funct)
    elif cls is InstrClass.LOAD:
        handler = I._user_load if user else I._load
    elif cls is InstrClass.STORE:
        handler = I._user_store if user else I._store
    elif cls is InstrClass.SYSTRAP or cls is InstrClass.SPR:
        handler = {"l.sys": I._sys, "l.rfe": I._rfe, "l.mfspr": I._mfspr,
                   "l.mtspr": I._mtspr}[row.mnemonic]
    elif cls is InstrClass.BRANCH:      # (taken on a set flag?, target)
        handler, sense = I._branch, row.opcode == isa.OP_BF
        rule = lambda pc, ins: (sense, _target(pc, ins))
    else:
        handler = {InstrClass.CLASS64: I._class64, InstrClass.JUMP: I._jump,
                   InstrClass.NOP: I._nop}[cls]
        if row.mnemonic in isa.PC_RELATIVE:
            rule = _target
    return handler, True, rule, operand


# per mode, mnemonic -> (handler, retires, operand rule, operand), one
# entry per table row, built once; an undecodable word gets the illegal
# record
_DISPATCH = {mode: {row.mnemonic: _dispatch(row, mode) for row in isa.TABLE}
             for mode in Mode}
_ILLEGAL_RECORD = (Interpreter._illegal, None, None, None)
# the handlers of straight records (the class docstring), the exit no-op's
# aside
_STRAIGHT = frozenset((
    Interpreter._immediate, Interpreter._register, Interpreter._set_flag,
    Interpreter._user_load, Interpreter._user_store, Interpreter._mfspr,
    Interpreter._mtspr, Interpreter._nop))


def interpret(image, cdc, max_steps=DEFAULT_MAX_STEPS):
    """Run the flat interpreter over an image to completion."""
    return Interpreter(image, cdc).run(max_steps)

