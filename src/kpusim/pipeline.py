"""Cycle-level pipeline engine.

One physical conveyor of stage positions, configured per mode:

  supervisor (short)   F D R X W
  user, plan A         F D R X M C1..C10 W     execute early, codec late
  user, plan B         F D C1..C10 R X M W     codec first, execute late

Every user-mode instruction traverses all sixteen positions; the plan
decides which position does which logical job for that instruction. Plan B
exists only for user-mode immediate-class instructions, whose 64-bit
encrypted immediate (gathered from two prefix instructions plus the
instruction's own 16-bit field) runs through the ten Feistel rounds of the
codec stages before the read stage needs it. Everything else rides plan A
so that results computed at X forward to the instruction entering behind.

The codec stages C1..C10 are timing only. Plan B puts all ten ahead of R,
so nothing reads an immediate before it is wholly decrypted; fetch opens
the sealed block at once, and keeps the plaintext per block, so a loop
pays for the cipher once per distinct immediate rather than once per
stage per pass.

Timing rules the rest of the model hangs off:
  * a producer's result is forwardable at the end of its execute cycle;
    a consumer may enter X the cycle after that,
  * memory data returns one cycle after M (cache hit), plus the ten codec
    rounds on a miss, giving the 2-cycle and 12-cycle load-use stalls,
  * branches and jumps resolve at X against the prediction buffer; a wrong
    prediction flushes the (plan-depth) slots behind and refetches,
  * traps, rfe, exits and illegal carriers hold fetch from decode until
    commit, so a mode transition always sees a drained pipe and nothing
    younger than a trap ever touches memory.

A cycle retires exactly one conveyor cell: an instruction (counted under
its class) or a bubble (counted as a stall or refill wait state), so the
accounting closes exactly by construction.

Only a few positions can do work in a cycle, and step() visits only those,
read off the fetch table's entries:
  * the X positions, oldest first: user 13 (plan B) then 3 (plan A),
    supervisor 3,
  * then the M positions: user 4 (plan B carries only immediates, which
    have no memory work; the short plan has no M, so supervisor loads and
    stores reach memory at X); every execute runs before any memory
    access, so a fault raised at X outranks one raised at M in the same
    cycle,
  * then the R positions, oldest first: user 12 then 2, supervisor 2; the
    oldest instruction whose operands are not ready stalls there until its
    wake cycle, the latest ready cycle of its producers, worked out once
    they are all known, so a held cycle then costs one comparison,
  * then the conveyor shifts by one.
Empty cells are two shared bubbles, one per wait-state kind.

Each slot binds at fetch the youngest older writer of each source (the
last-writer map, cleared at a mode transition and rebuilt from the
survivors after a mispredict flush). A producer that has retired counts as
absent: its value is in the register file by then. Retiring a slot also
drops its own producer links; otherwise each slot would keep its producers
alive, they theirs, and a long run would hold every slot it ever fetched.

Everything static about fetching a pc is worked out at its first fetch,
where its word is decoded, and kept in a FetchRecord per mode. Most of it
depends only on the word's table row, a nop's code (exit, print or other)
and the mode, and is looked up in one fetch table built at import, with
one illegal entry per mode for undecodable words and carriers: how the
fetch treats the prefix latch, its plan, whether it serializes, holds
fetch or is predicted, and each stage's work, the (X, R, M) positions of
its slots, X or M being -1 where the class has nothing to do there, and
the handlers that do it, an execute handler for X, a memory handler for
l.lwz/l.sw/l.ld/l.sd and a retire handler for what commit writes (a
register and flags, an exit or print, a trap, a return, an illegal trap).
The entry also says whether the target is pc-relative, which destination
the slots bind by where it is not rd (r9 of a link, the flag of a
set-flag) and the form a link's return address takes in the mode. So a
cycle calls no handler that does nothing, and a pc's first fetch costs a
decode, one table lookup and the record's own arithmetic: its
instruction, sources and destination, a branch's target and a link's
return address. A mode transition switches record tables. The same word
can differ between the modes: an encrypted immediate is a plain
short-plan immediate to supervisor code, a 64-bit operation is legal there
but an illegal carrier in user mode, and where the work differs by mode (a
user-mode result carries a padding) the table binds that mode's handler.
"""

from . import alu, isa
from .codec import (MASK32, MASK64, ROUNDS, NotAProgramAddress, ProgramFault,
                    feistel_unround, open_program_address, pad_mix,
                    to_decrypted_address, to_encrypted_address)
from .core import MachineState, Mode, VEC_ILLEGAL, VEC_SYSCALL
from .isa import InstrClass, MissingPrefix, PrefixLatch, consume_prefixes
from .memsys import DEFAULT_CACHE_ENTRIES, DEFAULT_USER_WORDS, MemorySystem


class SimulationFault(ProgramFault):
    """Program did something the machine cannot continue from."""


class MaxCyclesExceeded(ProgramFault):
    pass


# ------------------------------------------------------------------ plans --

# Each plan is the job of each conveyor position, as the trace prints it;
# _fetch_entry picks a slot's plan and reads its (X, R, M) positions off it.
_CODEC_STAGES = tuple("C%d" % i for i in range(1, ROUNDS + 1))
SHORT = ("F", "D", "R", "X", "W")
LONG_A = ("F", "D", "R", "X", "M") + _CODEC_STAGES + ("W",)
LONG_B = ("F", "D") + _CODEC_STAGES + ("R", "X", "M", "W")


# -------------------------------------------------------------- predictor --

DEFAULT_BPB_ENTRIES = 64


class BranchPredictionBuffer:
    """Direct-mapped one-level predictor, indexed by pc word bits.

    Cold lookups predict not-taken. Every resolved branch or jump installs
    its outcome: full pc tag, last target, one taken bit.
    """

    def __init__(self, entries=DEFAULT_BPB_ENTRIES):
        self.entries = [None] * entries
        self.hits_right = 0
        self.hits_wrong = 0
        self.misses_right = 0
        self.misses_wrong = 0

    def _slot(self, pc):
        return (pc >> 2) % len(self.entries)

    def lookup(self, pc):
        entry = self.entries[self._slot(pc)]
        if entry is not None and entry[0] == pc:
            return True, entry[2], entry[1]
        return False, False, (pc + 4) & MASK32

    def update(self, pc, taken, target):
        self.entries[self._slot(pc)] = (pc, target, taken)

    def record(self, hit, right):
        if hit:
            if right:
                self.hits_right += 1
            else:
                self.hits_wrong += 1
        elif right:
            self.misses_right += 1
        else:
            self.misses_wrong += 1

    @property
    def hits(self):
        return self.hits_right + self.hits_wrong

    @property
    def misses(self):
        return self.misses_right + self.misses_wrong


# ------------------------------------------------------------------ stats --

FLAG = "F"  # pseudo-register name for the branch flag forwarding path


class ModeStats:
    def __init__(self):
        self.completions = {cls: 0 for cls in InstrClass}
        self.stalls = 0
        self.refills = 0

    @property
    def instructions(self):
        return sum(self.completions.values())

    @property
    def cycles(self):
        return self.instructions + self.stalls + self.refills


class CycleStats:
    """Per-mode completion and wait-state accounting."""

    def __init__(self):
        self.per_mode = {Mode.USER: ModeStats(), Mode.SUPERVISOR: ModeStats()}
        self.cycles = 0

    def mode(self, mode):
        return self.per_mode[mode]

    @property
    def instructions(self):
        return sum(m.instructions for m in self.per_mode.values())

    def closes(self):
        return self.cycles == sum(m.cycles for m in self.per_mode.values())


# ------------------------------------------------------------------ cells --

class Bubble:
    """An empty conveyor cell. Only STALL_BUBBLE and REFILL_BUBBLE exist.

    They answer what step() asks of every cell it visits (its X, R and M
    positions) with "none", so the per-cycle loops need no type test.
    """

    __slots__ = ()
    x_index = r_index = m_index = -1


STALL_BUBBLE = Bubble()         # retires as a stall wait state
REFILL_BUBBLE = Bubble()        # retires as a refill wait state


def _slot_sources(instr):
    if instr.cls is InstrClass.BRANCH:
        return (FLAG,)
    # an unused field is None; r0 is constant zero
    ra, rb = instr.ra, instr.rb
    if ra:
        return (ra, rb) if rb else (ra,)
    return (rb,) if rb else ()


# How fetch treats a pc's word: latch-clearing, prefix, a user-mode
# immediate that consumes the latch, or illegal (fetched as a carrier).
_PLAIN, _PREFIX, _SEALED, _ILLEGAL = range(4)

_CARRIER_INSTR = isa.Instruction(isa.OP_SYS, "l.illegal", InstrClass.SYSTRAP)


class FetchRecord:
    """Everything static about fetching one pc in one mode.

    The record unpacks its fetch-table entry (see _fetch_entry), so the
    cycle loop reads each field in one step: `kind`, how fetch treats the
    latch; `mode`; `plan`, its stage names; `positions`, the (X, R, M)
    indexes of its slots, X or M at -1 where that stage has no work; the
    `serialize`, `holds` and `predicted` flags; and the Engine methods
    that work at X, at M and at retirement, `execute`, `memory` and
    `retire`, or None. It adds what is the pc's own: its pc, word and
    instruction (the carrier's for an illegal fetch), the sources and
    destination its slots bind producers by, a branch or direct jump's
    `target`, and the return address a jump-and-link writes, `link`, in
    the mode's form.
    """

    __slots__ = ("kind", "instr", "word", "pc", "mode", "plan",
                 "positions", "sources", "dest", "serialize", "holds",
                 "predicted", "execute", "memory", "retire", "target", "link")

    def __init__(self, instr, word, pc, mode):
        # an illegal fetch has no instruction; a nop's code (1 exit, 2
        # print) picks its retire handler and whether it holds
        (self.kind, self.mode, self.plan, self.positions, self.serialize,
         self.holds, self.predicted, self.execute, self.memory, self.retire,
         relative, dest, link_form) = _FETCH[
            (None, 0, mode) if instr is None else
            (instr.mnemonic, instr.imm if instr.imm in (1, 2)
             and instr.cls is InstrClass.NOP else 0, mode)]
        if self.kind == _ILLEGAL:
            instr = _CARRIER_INSTR
        self.instr, self.word, self.pc = instr, word, pc
        self.sources = _slot_sources(instr)
        self.dest = dest or instr.rd or None
        self.target = (pc + 4 * instr.imm) & MASK32 if relative else None
        self.link = link_form((pc + 4) & MASK32) if link_form else None


class Slot:
    """One fetch of a pc: its fetch record and what this fetch has done.

    `x_index`/`m_index` start as the record's X and M positions and are
    cleared (-1) once that work is done, so a slot a stall holds at X or
    M does it once; `r_index` is the record's, kept beside them for
    step()'s per-cycle tests. `producers` maps each source to the
    youngest older writer in flight when the slot was fetched; retirement
    cuts it. `wake` is the first cycle the slot may leave R: 0 with nothing
    to wait for, None until _wake can work it out; `not_before` is a cycle
    it cannot leave R before, so step() asks _wake no sooner. Everything
    else is set by the stage that produces it.
    """

    __slots__ = ("record", "x_index", "r_index", "m_index", "producers",
                 "wake", "not_before", "retired", "ready_cycle", "imm_block",
                 "predicted", "result", "pending_effects", "ea_block",
                 "store_value", "__weakref__")

    def __init__(self, record, producers):
        self.record = record
        self.x_index, self.r_index, self.m_index = record.positions
        self.producers = producers
        self.wake = None if producers or record.serialize else 0
        self.not_before = 0
        self.retired = False
        self.ready_cycle = None         # when `result` forwards, once known
        # set where the record says so: imm_block (decrypted user-mode
        # immediate) at fetch, predicted (bpb_hit, taken, target) at fetch,
        # result (a set-flag's too), pending_effects (ALU flags for commit),
        # ea_block and store_value at X


class Engine:
    """Drives one program image to completion, cycle by cycle.

    `trace`, if given, is called with one occupancy line per cycle as the
    cycle starts.
    """

    def __init__(self, image, cdc, user_words=DEFAULT_USER_WORDS,
                 cache_entries=DEFAULT_CACHE_ENTRIES,
                 bpb_entries=DEFAULT_BPB_ENTRIES, trace=None):
        self.state = MachineState(cdc, entry=image.entry,
                                  mode=Mode(image.mode))
        self.mem = MemorySystem(cdc, user_words, cache_entries)
        for addr in sorted(image.data):
            self.mem.supervisor_store(addr, image.data[addr])
        self.text = image.text
        # per mode, pc -> fetch record, made at the pc's first fetch there
        self._records_by_mode = {Mode.USER: {}, Mode.SUPERVISOR: {}}
        # sealed immediate block -> its plaintext, opened at first fetch
        self.opened = {}
        self._unround_keys = cdc.round_keys[::-1]
        self.bpb = BranchPredictionBuffer(bpb_entries)
        self.stats = CycleStats()
        self.outputs = []
        self.trace = trace
        self.halted = False
        self.latch = PrefixLatch()
        # the first mode is entered as a trap or a return enters one: at
        # cycle 0 the conveyor holds only refill bubbles, so the first
        # fetch lands in position 0 just as the shift would put it there
        self._transition()

    # ------------------------------------------------------------- fetch --

    def _record(self, pc, mode):
        """The fetch record of `pc` in `mode`, decoding its word."""
        word, instr = isa.decode_at(self.text, pc)
        return FetchRecord(instr, word, pc, mode)

    def _fetch(self):
        if self.fetch_hold:
            return REFILL_BUBBLE
        pc = self.fetch_pc
        self.fetch_pc = (pc + 4) & MASK32
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc, self.state.mode)

        kind = record.kind
        imm_block = None
        if kind == _PLAIN:
            latch = self.latch
            latch.p0 = latch.p1 = None
        elif kind == _PREFIX:
            instr = record.instr
            self.latch.feed(instr.prefix_idx, instr.prefix_payload)
        elif kind == _SEALED:
            try:
                sealed = consume_prefixes(self.latch, record.word)
            except MissingPrefix:
                return self._carrier(
                    FetchRecord(None, record.word, pc, record.mode))
            imm_block = self.opened.get(sealed)
            if imm_block is None:
                imm_block = self.opened[sealed] = self._open(sealed)
        else:
            return self._carrier(record)

        writers = self._last_writer
        producers = {}
        for name in record.sources:
            if name in writers:
                producers[name] = writers[name]
        slot = Slot(record, producers)
        if imm_block is not None:
            slot.imm_block = imm_block
        dest = record.dest
        if dest is not None:
            writers[dest] = slot
        if record.holds:
            self.fetch_hold = True
        elif record.predicted:
            hit, taken, target = self.bpb.lookup(pc)
            slot.predicted = (hit, taken, target)
            if taken:
                self.fetch_pc = target
        return slot

    def _open(self, block):
        """The ten decrypt rounds the codec stages C1..C10 stand for."""
        for key in self._unround_keys:
            block = feistel_unround(block, key)
        return block

    def _carrier(self, record):
        # the latch needs no clearing here: fetch holds until the trap
        # commits or a flush restarts it, and both clear the latch
        self.fetch_hold = True
        return Slot(record, {})

    # -------------------------------------------------------- forwarding --

    def _wake(self, idx, cell, n):
        """The first cycle `cell`, at R in cycle n, may leave R.

        That is the latest ready cycle of its unretired producers (a
        set-flag producer's comes with its flag). Once all are known, and
        for a serializing cell no older slot is in flight, it is kept in
        `cell.wake`: it cannot change, as no producer retires before it is
        ready and no older slot enters later. Until then a serializing
        cell waits to n + 1, and a producer whose X or M is still to come
        is not ready before it reaches that position, one a cycle at most:
        the latest such bound is kept in `cell.not_before` for step().
        """
        wake, pending = 0, False
        for producer in cell.producers.values():
            if not producer.retired:
                ready = producer.ready_cycle
                if ready is None:
                    pending = True
                    ready = n + max(producer.x_index, producer.m_index) \
                        - self.conveyor.index(producer)
                if ready > wake:
                    wake = ready
        if pending:
            cell.not_before = wake
            return wake
        if cell.record.serialize:
            for older in self.conveyor[idx + 1:-1]:
                if older.__class__ is Slot:
                    return n + 1
        cell.wake = wake
        return wake

    def _read(self, cell, reg):
        """Source register `reg` (not r0) of `cell` at X: forwarded from a
        producer still in flight, else the mode's bank."""
        producer = cell.producers.get(reg)
        if producer is None or producer.retired:
            return self._bank[reg]
        assert producer.record.mode is self.state.mode, "cross-mode forward"
        return producer.result

    def _flag(self, cell):
        producer = cell.producers.get(FLAG)
        if producer is None or producer.retired:
            return self.state.flag_f
        assert producer.record.mode is self.state.mode, "cross-mode forward"
        return producer.result

    # ----------------------------------------------------------- execute --

    # Each handler does one class's work at X, in one mode where the modes
    # differ: called as handler(self, idx, cell, cycle). A user-mode result
    # carries a padding mixed from its operands' top halves.

    def _ex_alu_user(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        b = self._read(cell, instr.rb) if instr.rb else 0
        res32, cell.pending_effects = alu.execute(instr.funct, a & MASK32,
                                                  b & MASK32)
        pad = pad_mix(a >> 32, b >> 32, instr.funct)
        cell.result = (pad << 32) | res32
        cell.ready_cycle = n

    def _ex_alu(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        b = self._read(cell, instr.rb) if instr.rb else 0
        cell.result, cell.pending_effects = alu.execute(
            instr.funct, a & MASK32, b & MASK32)
        cell.ready_cycle = n

    def _ex_set_flag(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        b = self._read(cell, instr.rb) if instr.rb else 0
        cell.result = alu.compare_flag(instr.funct, a & MASK32, b & MASK32)
        cell.ready_cycle = n

    def _ex_immediate_user(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        b = cell.imm_block
        op = isa.IMM_ALU_OP[instr.mnemonic]
        res32, cell.pending_effects = alu.execute(op, a & MASK32, b & MASK32)
        pad = pad_mix(a >> 32, b >> 32, op)
        cell.result = (pad << 32) | res32
        cell.ready_cycle = n

    def _ex_immediate(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        cell.result, cell.pending_effects = alu.execute(
            isa.IMM_ALU_OP[instr.mnemonic], a & MASK32, instr.imm & MASK32)
        cell.ready_cycle = n

    def _ex_address_user(self, idx, cell, n):
        # l.lwz/l.sw: the padded effective address and a store's data; the
        # memory work waits for M
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        off = instr.imm & MASK32
        ea32, _ = alu.execute(alu.OP_ADDR, a & MASK32, off)
        pad = pad_mix(a >> 32, off, alu.OP_ADDR)
        cell.ea_block = (pad << 32) | ea32
        if instr.rb is not None:
            cell.store_value = self._read(cell, instr.rb) if instr.rb else 0

    def _ex_address(self, idx, cell, n):
        # l.lwz/l.sw/l.ld/l.sd: the short plan has no M, so the memory work
        # follows at once
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        cell.ea_block = (a + instr.imm) & MASK64
        if instr.rb is not None:
            cell.store_value = self._read(cell, instr.rb) if instr.rb else 0
        cell.record.memory(self, cell, n)

    def _ex_add64(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        b = self._read(cell, instr.rb) if instr.rb else 0
        cell.result = (a + b) & MASK64
        cell.ready_cycle = n

    def _ex_mfspr_user(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        index = ((a & MASK32) | instr.imm) & 0xFFFF
        value = self.state.read_spr(index)
        pad = pad_mix(a >> 32, index, alu.OP_MFSPR)
        cell.result = (pad << 32) | (value & MASK32)
        cell.ready_cycle = n

    def _ex_mfspr(self, idx, cell, n):
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        index = ((a & MASK32) | instr.imm) & 0xFFFF
        cell.result = self.state.read_spr(index) & MASK64
        cell.ready_cycle = n

    def _ex_mtspr(self, idx, cell, n):
        # Supervisor only: user mode ignores the write. Serialized, so the
        # write is program-ordered even though it lands at X.
        instr = cell.record.instr
        a = self._read(cell, instr.ra) if instr.ra else 0
        b = self._read(cell, instr.rb) if instr.rb else 0
        self.state.write_spr(((a & MASK32) | instr.imm) & 0xFFFF, b)

    def _ex_branch(self, idx, cell, n):
        record = cell.record
        flag = self._flag(cell)
        taken = flag if record.instr.opcode == isa.OP_BF else not flag
        self._resolve(idx, cell, taken, record.target)

    def _ex_jump(self, idx, cell, n):
        record = cell.record
        if record.link is not None:
            cell.result = record.link
            cell.ready_cycle = n
        self._resolve(idx, cell, True, record.target)

    def _ex_jump_register(self, idx, cell, n):
        record = cell.record
        rb = record.instr.rb
        value = self._read(cell, rb) if rb else 0
        try:
            target = open_program_address(value)
        except NotAProgramAddress as exc:
            raise SimulationFault(
                "jump target at pc 0x%08x: %s" % (record.pc, exc)) from exc
        if record.link is not None:
            cell.result = record.link
            cell.ready_cycle = n
        self._resolve(idx, cell, True, target)

    def _resolve(self, idx, cell, taken, target):
        """Check a branch or jump against its prediction; flush behind a
        wrong one and refetch."""
        pc = cell.record.pc
        hit, pred_taken, pred_target = cell.predicted
        right = (pred_taken == taken) and (not taken or pred_target == target)
        self.bpb.record(hit, right)
        self.bpb.update(pc, taken, target)
        if not right:
            conveyor = self.conveyor
            conveyor[:idx] = [REFILL_BUBBLE] * idx
            # a flushed slot may have been the youngest writer of its
            # register: rebuild from the survivors, oldest first
            self._last_writer = {
                older.record.dest: older for older in reversed(conveyor)
                if older.__class__ is Slot and older.record.dest is not None}
            self.latch.clear()
            self.fetch_hold = False
            self.fetch_pc = target if taken else (pc + 4) & MASK32

    # -------------------------------------------------------------- memory --

    # What a load or store does to memory: handler(self, cell, cycle), at M
    # in user mode and straight after X on the short plan. A load's data
    # forwards a cycle later, plus the ten codec rounds on a user-mode
    # cache miss.

    def _mem_load_user(self, cell, n):
        cell.result, cached = self.mem.user_load(cell.ea_block)
        cell.ready_cycle = n + 1 if cached else n + 1 + ROUNDS

    def _mem_store_user(self, cell, n):
        self.mem.user_store(cell.ea_block, cell.store_value)

    def _mem_load(self, cell, n):
        cell.result = self.mem.supervisor_load(cell.ea_block) & MASK32
        cell.ready_cycle = n + 1

    def _mem_store(self, cell, n):
        self.mem.supervisor_store(cell.ea_block, cell.store_value & MASK32)

    def _mem_load64(self, cell, n):
        cell.result = self.mem.supervisor_load(cell.ea_block)
        cell.ready_cycle = n + 1

    def _mem_store64(self, cell, n):
        self.mem.supervisor_store(cell.ea_block, cell.store_value)

    # -------------------------------------------------------------- retire --

    # What commit does for a class, beyond the completion count step()
    # keeps: handler(self, cell). Every cell in the conveyor was fetched
    # in the current mode.

    def _retire_alu(self, cell):
        st = self.state
        st.write_register(cell.record.instr.rd, cell.result)
        eff = cell.pending_effects
        if eff:
            if "cy" in eff:
                st.flag_cy = eff["cy"]
            if "ov" in eff:
                st.flag_ov = eff["ov"]

    def _retire_flag(self, cell):
        self.state.flag_f = cell.result

    def _retire_write(self, cell):
        self.state.write_register(cell.record.instr.rd, cell.result)

    def _retire_link(self, cell):
        self.state.write_register(9, cell.result, program_address=True)

    def _retire_exit(self, cell):
        self.halted = True

    def _retire_print(self, cell):
        self.outputs.append(self._bank[3] & MASK32)

    def _retire_sys(self, cell):
        self.state.enter_exception(VEC_SYSCALL,
                                   (cell.record.pc + 4) & MASK32)
        self._transition()

    def _retire_rfe(self, cell):
        self.state.rfe()
        self._transition()

    def _retire_illegal(self, cell):
        record = cell.record
        if record.pc == VEC_ILLEGAL and record.mode is Mode.SUPERVISOR:
            # the trap would fetch this same illegal word again, forever
            raise SimulationFault(
                "illegal instruction at the illegal-instruction vector "
                "0x%08x in supervisor mode" % VEC_ILLEGAL)
        self.state.enter_exception(VEC_ILLEGAL, record.pc)
        self._transition()

    def _transition(self):
        st = self.state
        mode = st.mode
        self.conveyor = [REFILL_BUBBLE] * _DEPTH[mode]
        self._work = _WORK[mode]
        self._records = self._records_by_mode[mode]
        self._mode_stats = self.stats.per_mode[mode]
        # the register bank the ALU works on in this mode
        self._bank = st.shadow if mode is Mode.USER else st.regs
        self._last_writer = {}          # register -> youngest fetched writer
        self.latch.clear()
        self.fetch_hold = False
        self.fetch_pc = st.pc

    # -------------------------------------------------------------- cycle --

    def _trace(self, n):
        parts = []
        conveyor = self.conveyor
        for idx in range(len(conveyor) - 1, -1, -1):
            cell = conveyor[idx]
            if cell.__class__ is Slot:
                record = cell.record
                parts.append("%s:0x%08x:%s" % (record.plan[idx],
                                               record.pc,
                                               record.instr.mnemonic))
        self.trace("cycle %d | %s" % (n, " ".join(parts)))

    # cycles run so far: the stats keep the one count
    cycle = property(lambda self: self.stats.cycles)

    def step(self):
        stats = self.stats
        n = stats.cycles
        conveyor = self.conveyor
        x_positions, m_positions, r_positions = self._work

        if self.trace is not None:
            self._trace(n)

        # execute, oldest first: a branch resolving here flushes the
        # younger positions in place, so each is read after the older ran
        for idx in x_positions:
            cell = conveyor[idx]
            if cell.x_index == idx:
                cell.x_index = -1
                cell.record.execute(self, idx, cell, n)

        # memory, after every execute: a fault at X outranks one at M
        for idx in m_positions:
            cell = conveyor[idx]
            if cell.m_index == idx:
                cell.m_index = -1
                cell.record.memory(self, cell, n)

        cell = conveyor[-1]
        if cell is STALL_BUBBLE:
            self._mode_stats.stalls += 1
        elif cell is REFILL_BUBBLE:
            self._mode_stats.refills += 1
        else:
            # Younger slots may still hold this one, but nothing reaches
            # older slots through it: without the cut, each slot would keep
            # its producers alive, and theirs, back to the start of the run.
            cell.retired = True
            cell.producers = None
            record = cell.record
            self._mode_stats.completions[record.instr.cls] += 1
            if record.retire is not None:
                record.retire(self, cell)
                # a trap or return enters its mode on a fresh conveyor
                conveyor = self.conveyor
                r_positions = self._work[2]
        stats.cycles = n + 1
        if self.halted:
            return

        # the oldest instruction whose operands are not ready holds its
        # read position and everything younger; a stall bubble opens ahead
        stall_idx = -1
        for idx in r_positions:
            cell = conveyor[idx]
            if cell.r_index == idx:
                wake = cell.wake
                if wake is None:
                    wake = cell.not_before
                    if wake <= n:
                        wake = self._wake(idx, cell, n)
                if wake > n:
                    stall_idx = idx
                    break

        del conveyor[-1]
        conveyor.insert(stall_idx + 1,
                        STALL_BUBBLE if stall_idx >= 0 else self._fetch())

    def run(self, max_cycles=5_000_000):
        stats, step = self.stats, self.step
        while not self.halted:
            if stats.cycles >= max_cycles:
                raise MaxCyclesExceeded("no exit after %d cycles" % max_cycles)
            step()
        return self.state


def _fetch_entry(row, code, mode):
    """The fetch-table entry of a table row, a nop's code and a mode, or of
    an illegal fetch where `row` is None or the mode may not execute it:
    (kind, mode, plan, positions, serialize, holds, predicted, execute,
    memory, retire), as FetchRecord names them, then the rules of what is
    the pc's own: whether its target is pc-relative, the destination its
    slots bind by where that is not its rd (r9 of a link, the flag of a
    set-flag) and the form a link's return address takes in the mode."""
    E = Engine
    user = mode is Mode.USER
    cls, kind = row and row.cls, _PLAIN
    plan = LONG_A if user else SHORT
    if row is None or (user and isa.user_illegal(row)):
        row, kind = _CARRIER_INSTR, _ILLEGAL
        work = None, None, E._retire_illegal
    elif cls is InstrClass.REGISTER:
        work = (E._ex_set_flag, None, E._retire_flag) \
            if row.opcode == isa.OP_SF else \
            (E._ex_alu_user if user else E._ex_alu, None, E._retire_alu)
    elif cls is InstrClass.IMMEDIATE:
        if user:                        # the codec stages come first
            kind, plan = _SEALED, LONG_B
        work = (E._ex_immediate_user if user else E._ex_immediate, None,
                E._retire_alu)
    elif cls is InstrClass.LOAD:
        work = (E._ex_address_user, E._mem_load_user, E._retire_write) \
            if user else (E._ex_address, E._mem_load, E._retire_write)
    elif cls is InstrClass.STORE:
        work = (E._ex_address_user, E._mem_store_user, None) if user \
            else (E._ex_address, E._mem_store, None)
    elif cls is InstrClass.CLASS64:     # user mode fetches it as a carrier
        work = {isa.C64_LD: (E._ex_address, E._mem_load64, E._retire_write),
                isa.C64_SD: (E._ex_address, E._mem_store64, None),
                isa.C64_ADD: (E._ex_add64, None, E._retire_write)}[row.funct]
    elif cls is InstrClass.BRANCH:
        work = E._ex_branch, None, None
    elif cls is InstrClass.JUMP:
        work = (E._ex_jump if row.mnemonic in isa.PC_RELATIVE
                else E._ex_jump_register, None,
                E._retire_link if row.mnemonic in isa.LINKING else None)
    elif row.mnemonic == "l.mtspr":     # ignored in user mode
        work = None if user else E._ex_mtspr, None, None
    elif row.mnemonic == "l.mfspr":
        work = E._ex_mfspr_user if user else E._ex_mfspr, None, E._retire_write
    elif cls is InstrClass.NOP:
        work = None, None, {1: E._retire_exit, 2: E._retire_print}.get(code)
    elif cls is InstrClass.SYSTRAP:     # l.rfe is a carrier in user mode
        work = (None, None,
                E._retire_sys if row.mnemonic == "l.sys" else E._retire_rfe)
    else:                               # a prefix: fetch feeds the latch
        kind, work = _PREFIX, (None, None, None)
    execute, memory, retire = work
    cls = row.cls                       # the carrier's, for an illegal fetch
    linking = row.mnemonic in isa.LINKING
    # the short plan has no M: supervisor loads and stores work at X
    m = -1 if memory is None or "M" not in plan else plan.index("M")
    return (kind, mode, plan,
            (-1 if execute is None else plan.index("X"), plan.index("R"), m),
            cls is InstrClass.SPR,
            # nothing younger may enter the pipe behind a trap, a return or
            # the exit no-op: their commit changes the instruction stream
            cls is InstrClass.SYSTRAP or (cls is InstrClass.NOP and code == 1),
            cls is InstrClass.BRANCH or cls is InstrClass.JUMP,
            execute, memory, retire, row.mnemonic in isa.PC_RELATIVE,
            9 if linking else FLAG if row.opcode == isa.OP_SF else None,
            (to_decrypted_address if user else to_encrypted_address)
            if linking else None)


def _fetch_table():
    """(mnemonic, nop code, mode) -> fetch entry, for every table row in
    both modes; the nop code is 1 or 2 for the exit and print no-ops and 0
    for every other word, and (None, 0, mode) is the illegal entry."""
    table = {}
    for mode in Mode:
        table[None, 0, mode] = _fetch_entry(None, 0, mode)
        for row in isa.TABLE:
            for code in (0, 1, 2) if row.cls is InstrClass.NOP else (0,):
                table[row.mnemonic, code, mode] = _fetch_entry(row, code, mode)
    return table


_FETCH = _fetch_table()
# mode -> the X, M and R positions (entry[3] holds X, R, M) where some
# entry of the mode works, oldest first: the only positions step() visits
_WORK = {mode: tuple(
    tuple(sorted({entry[3][which] for entry in _FETCH.values()
                  if entry[1] is mode} - {-1}, reverse=True))
    for which in (0, 2, 1)) for mode in Mode}
# mode -> its conveyor's depth, which all of the mode's plans share
_DEPTH = {mode: len(_FETCH[None, 0, mode][2]) for mode in Mode}
