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
read off the fetch table and bound per mode at a transition (two X, one M,
each R; position 0, F, where nothing works, stands in for a missing X or M):
  * the X positions, oldest first: user 13 (plan B) then 3, supervisor 3,
  * then M: user 4 (plan B carries only immediates; supervisor loads and
    stores reach memory at X), after every execute, as a fault at X
    outranks one at M,
  * then the R positions, oldest first: user 12 then 2, supervisor 2; the
    oldest instruction whose operands are not ready stalls there until its
    wake cycle, the latest ready cycle of its producers, which step()
    settles once all are ready (it asks _wake only while one is pending or
    the instruction serializes), so a held cycle costs one comparison,
  * then the conveyor shifts by one, and step() fetches into position 0.
Empty cells are two shared bubbles, one per wait-state kind: Slots with no
record, so each site sees one class, and CPython specializes its reads.

Each slot binds at fetch the youngest older writer in flight of each
source operand, one last-writer map lookup each (the map is reset at a
mode transition and rebuilt from the survivors after a mispredict flush):
`pa` that of its first source, ra or the flag for a branch, and `pb` that
of rb, ABSENT where there is none. A producer that has retired counts as
absent: its value is in the register file by then. Leaving R, a slot
reads its operands for X, the one home of the forwarding rule (the
producer's result, else the mode's bank, or the flag for a branch), and
cuts both links; otherwise each slot would keep its producers alive,
they theirs, and a long run would hold every slot it ever fetched.

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
instruction, class, operands and destination, a branch's target and a
link's return address. A mode transition switches record tables. The
same word can differ between the modes: an encrypted immediate is a plain
short-plan immediate to supervisor code, a 64-bit operation is legal there
but an illegal carrier in user mode, and where the work differs by mode (a
user-mode result carries a padding) the table binds that mode's handler.
"""

from . import alu, isa
from .codec import (MASK32, MASK64, ROUNDS, NotAProgramAddress, ProgramFault,
                    feistel_unround, open_program_address, pad_mix,
                    to_decrypted_address, to_encrypted_address)
from .core import (BudgetExhausted, MachineState, Mode, VEC_ILLEGAL,
                   VEC_SYSCALL, VectorSpin)
from .isa import InstrClass, MissingPrefix, PrefixLatch, consume_prefixes
from .memsys import (DEFAULT_CACHE_ENTRIES, DEFAULT_USER_WORDS, MemorySystem,
                     data_cells)

DEFAULT_MAX_CYCLES = 5_000_000


class SimulationFault(ProgramFault):
    """Program did something the machine cannot continue from."""


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
    its outcome: full pc tag, last target, one taken bit. It keeps only
    the entries installed, index -> entry, so any positive size runs.
    """

    def __init__(self, entries=DEFAULT_BPB_ENTRIES):
        self.size = entries
        self.entries = {}
        self.hits_right = 0
        self.hits_wrong = 0
        self.misses_right = 0
        self.misses_wrong = 0

    def lookup(self, pc):
        entry = self.entries.get((pc >> 2) % self.size)
        if entry is not None and entry[0] == pc:
            return True, entry[2], entry[1]
        return False, False, (pc + 4) & MASK32

    def update(self, pc, taken, target):
        self.entries[(pc >> 2) % self.size] = (pc, target, taken)

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

# How fetch treats a pc's word: latch-clearing, prefix, a user-mode
# immediate that consumes the latch, or illegal (fetched as a carrier).
_PLAIN, _PREFIX, _SEALED, _ILLEGAL = range(4)

_CARRIER_INSTR = isa.Instruction(isa.OP_SYS, "l.illegal", InstrClass.SYSTRAP)
_NOP, _BRANCH = InstrClass.NOP, InstrClass.BRANCH  # no enum getattr per fetch


class FetchRecord:
    """Everything static about fetching one pc in one mode.

    The record unpacks its fetch-table entry (see _fetch_entry), so the
    cycle loop reads each field in one step: `kind`, how fetch treats the
    latch; `mode`; `plan`, its stage names; `positions`, the (X, R, M)
    indexes of its slots, X or M at -1 where that stage has no work; the
    `serialize`, `holds` and `predicted` flags; and the Engine methods
    that work at X, at M and at retirement, `execute`, `memory` and
    `retire`, or None; and, for the execute handler, `kernel`, the alu
    kernel an ALU, immediate, load or store row computes with (a set-flag
    row's flag kernel), and `op`, its alu op code, which a user-mode
    padding mixes in, or None. It adds what is the pc's own: its pc, word,
    instruction (the carrier's for an illegal fetch) and `cls`, the class
    its completion counts under; `a` (ra, or the flag for a branch) and
    `b` (rb), the operands its slots bind producers by and read at R, 0
    for none or r0 (no slot writes r0, and each bank's r0 reads 0), and
    `dest`, the destination it is bound by; `next_pc`, the pc after it;
    a branch or direct jump's `target`; and the return address a
    jump-and-link writes, `link`, in the mode's form.
    """

    __slots__ = ("kind", "instr", "cls", "word", "pc", "mode", "plan",
                 "positions", "a", "b", "dest", "serialize", "holds",
                 "predicted", "execute", "memory", "retire", "kernel", "op",
                 "next_pc", "target", "link")

    def __init__(self, instr, word, pc, mode):
        # an illegal fetch has no instruction; a nop's code (1 exit, 2
        # print) picks its retire handler and whether it holds
        (self.kind, self.mode, self.plan, self.positions, self.serialize,
         self.holds, self.predicted, self.execute, self.memory, self.retire,
         self.kernel, self.op, relative, dest, link_form) = _FETCH[
            (None, 0, mode) if instr is None else
            (instr.mnemonic, instr.imm if instr.imm in (1, 2)
             and instr.cls is _NOP else 0, mode)]
        if self.kind == _ILLEGAL:
            instr = _CARRIER_INSTR
        self.instr, self.cls, self.word, self.pc = instr, instr.cls, word, pc
        self.a = FLAG if instr.cls is _BRANCH else instr.ra or 0
        self.b = instr.rb or 0
        self.dest = dest or instr.rd or None
        self.next_pc = (pc + 4) & MASK32
        self.target = (pc + 4 * instr.imm) & MASK32 if relative else None
        self.link = link_form(self.next_pc) if link_form else None


class Slot:
    """A conveyor cell: one fetch of a pc, its fetch record and what this
    fetch has done, or a bubble, which has no record.

    `x_index`/`m_index` start as the record's X and M positions and are
    cleared (-1) once that work is done, so a slot a stall holds at X or
    M does it once; `r_index` is the record's, kept beside them for
    step()'s per-cycle tests. `pa` and `pb` link the producers of the
    record's operands `a` and `b`, or are ABSENT. `wake` is the first
    cycle the slot may leave R once `settled`, and until then a cycle it
    cannot leave R before. A slot with work at X reads its operands'
    values, `a` and `b`, as it leaves R, and cuts both links there.
    `ready_cycle` is when `result` forwards, once known. step() sets all
    these but `a` and `b` at fetch, with no __init__ call. The rest are set
    where the record says so: `imm_block` (a decrypted user-mode immediate)
    and `predicted` (bpb_hit, taken, target) at fetch, `result` (a
    set-flag's too), `pending_effects` (ALU flags for commit) and
    `ea_block` at X, a load's `result` at M.
    """

    __slots__ = ("record", "x_index", "r_index", "m_index", "pa", "pb",
                 "wake", "settled", "retired", "ready_cycle", "a", "b",
                 "imm_block", "predicted", "result", "pending_effects",
                 "ea_block")


_new_cell = object.__new__         # a Slot made without a class call


def _bubble():
    """A cell with no record: an empty conveyor cell, or the link of an
    operand with no producer in flight. It answers what step() asks of
    every cell it visits (its X, R and M positions) with "none", and what
    is asked of a link as a retired producer does, so those tests need no
    type or None test."""
    cell = _new_cell(Slot)
    cell.record = None
    cell.x_index = cell.r_index = cell.m_index = -1
    cell.retired = cell.settled = True
    cell.ready_cycle = cell.wake = 0
    return cell


STALL_BUBBLE = _bubble()        # retires as a stall wait state
REFILL_BUBBLE = _bubble()       # retires as a refill wait state
ABSENT = _bubble()              # links an operand with no producer
# each operand a slot binds by (r0 to r31 and the flag) -> no writer yet
_NO_WRITERS = dict.fromkeys([*range(32), FLAG], ABSENT)


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
        self.mem.cells.update(data_cells(image))
        self.text = image.text
        # per mode, pc -> fetch record, made at the pc's first fetch there
        self._records_by_mode = {Mode.USER: {}, Mode.SUPERVISOR: {}}
        # sealed immediate block -> its plaintext, opened at first fetch
        self.opened = {}
        self._unround_keys = cdc.reversed_keys
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

    def _open(self, block):
        """The ten decrypt rounds the codec stages C1..C10 stand for."""
        for key in self._unround_keys:
            block = feistel_unround(block, key)
        return block

    # -------------------------------------------------------- forwarding --

    def _wake(self, idx, cell, n):
        """Set `cell.wake`, the first cycle `cell` (at R in cycle n) may leave.

        That is the latest ready cycle of its unretired producers (a
        set-flag producer's comes with its flag). Once all are known, and
        for a serializing cell no older slot is in flight, the cell is
        `settled` at that `wake`: it cannot change, as no producer retires
        before it is ready and no older slot enters later. Until then a
        serializing cell waits to n + 1 at least, and a producer whose X or
        M is still to come is not ready before it reaches that position,
        one a cycle at most: `cell.wake` keeps the latest such bound.
        step() asks only while a producer is pending or the cell serializes.
        """
        wake, pending = 0, False
        for producer in (cell.pa, cell.pb):
            if not producer.retired:
                ready = producer.ready_cycle
                if ready is None:
                    pending = True
                    ready = n + max(producer.x_index, producer.m_index) \
                        - self.conveyor.index(producer)
                if ready > wake:
                    wake = ready
        cell.wake = wake
        if pending:
            return
        if cell.record.serialize:
            for older in self.conveyor[idx + 1:-1]:
                if older.record is not None:
                    cell.wake = max(wake, n + 1)
                    return
        cell.settled = True

    # ----------------------------------------------------------- execute --

    # Each handler does one class's work at X, in one mode where the modes
    # differ: called as handler(self, idx, cell, cycle), the operands read
    # at R in cell.a and cell.b, masked to 32 bits for the record's kernel.
    # A user-mode result carries a padding mixed from its operands' top
    # halves and the record's op.

    def _ex_alu_user(self, idx, cell, n):
        a, b, record = cell.a, cell.b, cell.record
        res32, cell.pending_effects = record.kernel(a & MASK32, b & MASK32)
        cell.result = (pad_mix(a >> 32, b >> 32, record.op) << 32) | res32
        cell.ready_cycle = n

    def _ex_alu(self, idx, cell, n):
        cell.result, cell.pending_effects = cell.record.kernel(
            cell.a & MASK32, cell.b & MASK32)
        cell.ready_cycle = n

    def _ex_set_flag(self, idx, cell, n):
        cell.result = cell.record.kernel(cell.a & MASK32, cell.b & MASK32)
        cell.ready_cycle = n

    def _ex_immediate_user(self, idx, cell, n):
        a, b, record = cell.a, cell.imm_block, cell.record
        res32, cell.pending_effects = record.kernel(a & MASK32, b & MASK32)
        cell.result = (pad_mix(a >> 32, b >> 32, record.op) << 32) | res32
        cell.ready_cycle = n

    def _ex_immediate(self, idx, cell, n):
        record = cell.record
        cell.result, cell.pending_effects = record.kernel(
            cell.a & MASK32, record.instr.imm & MASK32)
        cell.ready_cycle = n

    def _ex_address_user(self, idx, cell, n):
        # l.lwz/l.sw: the padded effective address; the memory work, and a
        # store's data in cell.b, wait for M
        a, record = cell.a, cell.record
        off = record.instr.imm & MASK32
        ea32, _ = record.kernel(a & MASK32, off)
        cell.ea_block = (pad_mix(a >> 32, off, record.op) << 32) | ea32

    def _ex_address(self, idx, cell, n):
        # l.lwz/l.sw/l.ld/l.sd: the short plan has no M, so the memory work
        # follows at once
        record = cell.record
        cell.ea_block = (cell.a + record.instr.imm) & MASK64
        record.memory(self, cell, n)

    def _ex_add64(self, idx, cell, n):
        cell.result = (cell.a + cell.b) & MASK64
        cell.ready_cycle = n

    def _ex_mfspr_user(self, idx, cell, n):
        a = cell.a
        index = ((a & MASK32) | cell.record.instr.imm) & 0xFFFF
        value = self.state.read_spr(index)
        pad = pad_mix(a >> 32, index, alu.OP_MFSPR)
        cell.result = (pad << 32) | (value & MASK32)
        cell.ready_cycle = n

    def _ex_mfspr(self, idx, cell, n):
        index = ((cell.a & MASK32) | cell.record.instr.imm) & 0xFFFF
        cell.result = self.state.read_spr(index) & MASK64
        cell.ready_cycle = n

    def _ex_mtspr(self, idx, cell, n):
        # Supervisor only: user mode ignores the write. Serialized, so the
        # write is program-ordered even though it lands at X.
        self.state.write_spr(
            ((cell.a & MASK32) | cell.record.instr.imm) & 0xFFFF, cell.b)

    def _ex_branch(self, idx, cell, n):
        record = cell.record                # cell.a is the flag
        taken = cell.a if record.instr.opcode == isa.OP_BF else not cell.a
        self._resolve(idx, cell, taken, record.target)

    def _ex_jump(self, idx, cell, n):
        record = cell.record
        if record.link is not None:
            cell.result = record.link
            cell.ready_cycle = n
        self._resolve(idx, cell, True, record.target)

    def _ex_jump_register(self, idx, cell, n):
        record = cell.record
        try:
            target = open_program_address(cell.b)
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
            self._last_writer = writers = dict(_NO_WRITERS)
            writers.update(
                (older.record.dest, older) for older in reversed(conveyor)
                if older.record is not None and older.record.dest is not None)
            self.latch.clear()
            self.fetch_hold = False
            self.fetch_pc = target if taken else cell.record.next_pc

    # -------------------------------------------------------------- memory --

    # What a load or store does to memory: handler(self, cell, cycle), at M
    # in user mode and straight after X on the short plan. A load's data
    # forwards a cycle later, plus the ten codec rounds on a user-mode
    # cache miss.

    def _mem_load_user(self, cell, n):
        cell.result, cached = self.mem.user_load(cell.ea_block)
        cell.ready_cycle = n + 1 if cached else n + 1 + ROUNDS

    def _mem_store_user(self, cell, n):
        self.mem.user_store(cell.ea_block, cell.b)

    def _mem_load(self, cell, n):
        cell.result = self.mem.supervisor_load(cell.ea_block) & MASK32
        cell.ready_cycle = n + 1

    def _mem_store(self, cell, n):
        self.mem.supervisor_store(cell.ea_block, cell.b & MASK32)

    def _mem_load64(self, cell, n):
        cell.result = self.mem.supervisor_load(cell.ea_block)
        cell.ready_cycle = n + 1

    def _mem_store64(self, cell, n):
        self.mem.supervisor_store(cell.ea_block, cell.b)

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
            raise VectorSpin()
        self.state.enter_exception(VEC_ILLEGAL, record.pc)
        self._transition()

    def _transition(self):
        st = self.state
        mode = st.mode
        self.conveyor = [REFILL_BUBBLE] * _DEPTH[mode]
        self._x_old, self._x_young, self._m, self._r = _WORK[mode]
        self._records = self._records_by_mode[mode]
        self._mode_stats = self.stats.per_mode[mode]
        self._completions = self._mode_stats.completions
        # the register bank the ALU works on in this mode
        self._bank = st.shadow if mode is Mode.USER else st.regs
        # register -> youngest fetched writer
        self._last_writer = dict(_NO_WRITERS)
        self.latch.clear()
        self.fetch_hold = False
        self.fetch_pc = st.pc

    # -------------------------------------------------------------- cycle --

    def _trace(self, n):
        parts = []
        conveyor = self.conveyor
        for idx in range(len(conveyor) - 1, -1, -1):
            record = conveyor[idx].record
            if record is not None:
                parts.append("%s:0x%08x:%s" % (record.plan[idx],
                                               record.pc,
                                               record.instr.mnemonic))
        self.trace("cycle %d | %s" % (n, " ".join(parts)))

    def step(self):
        stats = self.stats
        n = stats.cycles
        conveyor = self.conveyor

        if self.trace is not None:
            self._trace(n)

        # execute, oldest first: a branch resolving at the older X flushes
        # the younger positions in place, so the younger is read after it
        idx = self._x_old
        cell = conveyor[idx]
        if cell.x_index == idx:
            cell.x_index = -1
            execute = cell.record.execute
            execute(self, idx, cell, n)
        idx = self._x_young
        cell = conveyor[idx]
        if cell.x_index == idx:
            cell.x_index = -1
            execute = cell.record.execute
            execute(self, idx, cell, n)

        # memory, after every execute: a fault at X outranks one at M
        idx = self._m
        cell = conveyor[idx]
        if cell.m_index == idx:
            cell.m_index = -1
            memory = cell.record.memory
            memory(self, cell, n)

        cell = conveyor[-1]
        if cell is STALL_BUBBLE:
            self._mode_stats.stalls += 1
        elif cell is REFILL_BUBBLE:
            self._mode_stats.refills += 1
        else:
            cell.retired = True
            record = cell.record
            self._completions[record.cls] += 1
            retire = record.retire
            if retire is not None:
                retire(self, cell)
                # a trap or return enters its mode on a fresh conveyor
                conveyor = self.conveyor
        stats.cycles = n + 1
        if self.halted:
            return

        # R, oldest first: the oldest cell whose wake cycle has not come (a
        # bound until settled) holds its position and all younger ones,
        # and a stall bubble opens ahead
        for idx in self._r:
            cell = conveyor[idx]
            if cell.r_index != idx:
                continue
            if not cell.settled and cell.wake <= n:
                ready_a, ready_b = cell.pa.ready_cycle, cell.pb.ready_cycle
                if ready_a is None or ready_b is None or cell.record.serialize:
                    self._wake(idx, cell, n)
                else:
                    cell.settled = True
                    cell.wake = ready_a if ready_a > ready_b else ready_b
            if cell.wake > n:
                del conveyor[-1]
                conveyor.insert(idx + 1, STALL_BUBBLE)
                return
            # a cell with work at X (the only kind with a destination)
            # reads its operands as it leaves, then cuts both links
            record = cell.record
            if record.execute is not None:
                link = cell.pa
                if link.retired:
                    reg = record.a
                    cell.a = self.state.flag_f if reg is FLAG else \
                        self._bank[reg]
                else:
                    assert link.record.mode is record.mode, "cross-mode forward"
                    cell.a = link.result
                link = cell.pb
                if link.retired:
                    cell.b = self._bank[record.b]
                else:
                    assert link.record.mode is record.mode, "cross-mode forward"
                    cell.b = link.result
                cell.pa = cell.pb = ABSENT

        # fetch: a refill bubble while fetch holds, else a slot of the pc's
        # record, bound to the youngest older writer of each operand
        del conveyor[-1]
        if self.fetch_hold:
            conveyor.insert(0, REFILL_BUBBLE)
            return
        pc = self.fetch_pc
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc, self.state.mode)
        self.fetch_pc = record.next_pc
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
            except MissingPrefix:       # fetched as an illegal carrier
                record = FetchRecord(None, record.word, pc, record.mode)
            else:
                imm_block = self.opened.get(sealed)
                if imm_block is None:
                    imm_block = self.opened[sealed] = self._open(sealed)
        # an illegal carrier leaves the latch as it is: it holds fetch until
        # the trap commits or a flush restarts fetch, and both clear it
        writers = self._last_writer
        pa, pb = writers[record.a], writers[record.b]
        slot = _new_cell(Slot)
        slot.record = record
        slot.x_index, slot.r_index, slot.m_index = record.positions
        slot.pa, slot.pb = pa, pb
        slot.wake = 0
        slot.settled = pa.retired and pb.retired and not record.serialize
        slot.retired = False
        slot.ready_cycle = None
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
        conveyor.insert(0, slot)

    def run(self, max_cycles=DEFAULT_MAX_CYCLES):
        step = self.step
        # the budget counts cycles from 0, and a halted engine takes no step
        for _ in range(max_cycles - self.stats.cycles):
            if self.halted:
                break
            step()
        if not self.halted:
            raise BudgetExhausted(max_cycles)
        return self.state


def _fetch_entry(row, code, mode):
    """The fetch-table entry of a table row, a nop's code and a mode, or of
    an illegal fetch where `row` is None or the mode may not execute it:
    (kind, mode, plan, positions, serialize, holds, predicted, execute,
    memory, retire, kernel, op), as FetchRecord names them, then the rules
    of what is the pc's own: whether its target is pc-relative, the
    destination its slots bind by where that is not its rd (r9 of a link,
    the flag of a set-flag) and the form a link's return address takes in
    the mode."""
    E = Engine
    user = mode is Mode.USER
    cls, kind = row and row.cls, _PLAIN
    plan = LONG_A if user else SHORT
    kernel = op = None
    if row is None or (user and isa.user_illegal(row)):
        row, kind = _CARRIER_INSTR, _ILLEGAL
        work = None, None, E._retire_illegal
    elif cls is InstrClass.REGISTER and row.opcode == isa.OP_SF:
        kernel = alu.flag_kernel(row.funct)
        work = E._ex_set_flag, None, E._retire_flag
    elif cls is InstrClass.REGISTER:
        op = row.funct
        work = E._ex_alu_user if user else E._ex_alu, None, E._retire_alu
    elif cls is InstrClass.IMMEDIATE:
        if user:                        # the codec stages come first
            kind, plan = _SEALED, LONG_B
        op = isa.IMM_ALU_OP[row.mnemonic]
        work = (E._ex_immediate_user if user else E._ex_immediate, None,
                E._retire_alu)
    elif cls is InstrClass.LOAD:
        op = alu.OP_ADDR
        work = (E._ex_address_user, E._mem_load_user, E._retire_write) \
            if user else (E._ex_address, E._mem_load, E._retire_write)
    elif cls is InstrClass.STORE:
        op = alu.OP_ADDR
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
            execute, memory, retire,
            kernel if op is None else alu.kernel(op), op,
            row.mnemonic in isa.PC_RELATIVE,
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


def _work(mode, which, width=0):
    """The positions (`which` of X, R, M) where some entry of `mode` works,
    oldest first, padded with 0 (F, where nothing works) to `width`."""
    found = sorted({entry[3][which] for entry in _FETCH.values()
                    if entry[1] is mode} - {-1}, reverse=True)
    return tuple(found + [0] * (width - len(found)))


# mode -> the two X and one M positions step() visits (a mode with more
# would not unpack in _transition), and the tuple of its R positions
_WORK = {mode: _work(mode, 0, 2) + _work(mode, 2, 1) + (_work(mode, 1),)
         for mode in Mode}
# mode -> its conveyor's depth, which all of the mode's plans share
_DEPTH = {mode: len(_FETCH[None, 0, mode][2]) for mode in Mode}
