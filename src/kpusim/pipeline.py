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
read off the plan tables:
  * the X positions, oldest first: user 13 (plan B) then 3 (plan A),
    supervisor 3,
  * then the M positions: user 14 then 4 (supervisor loads and stores
    reach memory at X); every execute runs before any memory access, so a
    fault raised at X outranks one raised at M in the same cycle,
  * then the R positions, oldest first: user 12 then 2, supervisor 2; the
    oldest instruction whose operands are not ready stalls there,
  * then the conveyor shifts by one.
Empty cells are two shared bubbles, one per wait-state kind.

Each slot binds at fetch the youngest older writer of each source (the
last-writer map, cleared at a mode transition and rebuilt from the
survivors after a mispredict flush). A producer that has retired counts as
absent: its value is in the register file by then. Retiring a slot also
drops its own producer links; otherwise each slot would keep its producers
alive, they theirs, and a long run would hold every slot it ever fetched.

Everything static about fetching a pc (its instruction, plan, sources and
destination, how it treats the prefix latch, whether it serializes, holds
fetch or is predicted, and its execute handler, or that it is illegal) is
worked out at its first fetch, where its word is decoded, and kept in a
record table per mode; a mode transition switches tables. The same word
can differ between the modes: an encrypted immediate is a plain
short-plan immediate to supervisor code, and a 64-bit operation is legal
there but an illegal carrier in user mode.
"""

from dataclasses import dataclass

from . import alu, isa
from .codec import (MASK32, MASK64, ROUNDS, NotAProgramAddress, feistel_unround,
                    open_program_address, pad_mix, to_decrypted_address,
                    to_encrypted_address, word_pad, word_value)
from .core import MachineState, Mode, VEC_ILLEGAL, VEC_SYSCALL
from .isa import InstrClass, MissingPrefix, PrefixLatch, consume_prefixes
from .memsys import MemorySystem


class SimulationFault(Exception):
    """Program did something the machine cannot continue from."""


class MaxCyclesExceeded(Exception):
    pass


# ------------------------------------------------------------------ plans --

@dataclass(frozen=True, eq=False)      # singletons: identity eq and hash
class PipelinePlan:
    name: str
    stages: tuple

    @property
    def depth(self):
        return len(self.stages)

    def index(self, stage):
        return self.stages.index(stage)


_CODEC_STAGES = tuple("C%d" % i for i in range(1, ROUNDS + 1))

SHORT = PipelinePlan("short", ("F", "D", "R", "X", "W"))
LONG_A = PipelinePlan("A", ("F", "D", "R", "X", "M") + _CODEC_STAGES + ("W",))
LONG_B = PipelinePlan("B", ("F", "D") + _CODEC_STAGES + ("R", "X", "M", "W"))


def select_config(cls, mode):
    """Pipeline plan for an instruction class in a mode."""
    if mode is Mode.SUPERVISOR:
        return SHORT
    if cls is InstrClass.IMMEDIATE:
        return LONG_B
    return LONG_A


def plan_depth(mode):
    return SHORT.depth if mode is Mode.SUPERVISOR else LONG_A.depth


# -------------------------------------------------------------- predictor --

class BranchPredictionBuffer:
    """Direct-mapped one-level predictor, indexed by pc word bits.

    Cold lookups predict not-taken. Every resolved branch or jump installs
    its outcome: full pc tag, last target, one taken bit.
    """

    def __init__(self, entries=64):
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
        self.loads_cached = 0
        self.stores_cached = 0

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
    positions, the register it writes) with "none", so the per-cycle loops
    need no type test.
    """

    __slots__ = ()
    x_index = r_index = m_index = -1
    dest = None


STALL_BUBBLE = Bubble()         # retires as a stall wait state
REFILL_BUBBLE = Bubble()        # retires as a refill wait state

# plan -> its (X, R, M) positions; M is -1 where memory is reached at X
_POSITIONS = {plan: (plan.index("X"), plan.index("R"),
                     plan.index("M") if "M" in plan.stages else -1)
              for plan in (SHORT, LONG_A, LONG_B)}


def _oldest_first(plans, which):
    return tuple(sorted({_POSITIONS[p][which] for p in plans} - {-1},
                        reverse=True))


def _work(plans):
    """The X, M and R positions the plans of one mode use, oldest first."""
    return (_oldest_first(plans, 0), _oldest_first(plans, 2),
            _oldest_first(plans, 1))


_WORK = {
    Mode.USER: _work((LONG_A, LONG_B)),
    Mode.SUPERVISOR: _work((SHORT,)),
}


class Slot:
    """One in-flight instruction. `producers` maps each source to the
    youngest older writer in flight when the slot was fetched; `handler`
    is the engine method that executes its class at X (None: no work)."""

    __slots__ = ("instr", "pc", "mode", "config", "x_index", "r_index",
                 "m_index", "producers", "dest", "carrier", "serialize",
                 "handler", "imm_block", "executed",
                 "mem_done", "retired", "result", "ready_cycle",
                 "flag_result", "pending_effects", "pending_reg", "ea_block",
                 "store_value", "cached", "predicted", "__weakref__")

    def __init__(self, instr, pc, mode, config, producers, dest=None,
                 serialize=False, handler=None, imm_block=None):
        self.instr = instr
        self.pc = pc
        self.mode = mode
        self.config = config
        self.x_index, self.r_index, self.m_index = _POSITIONS[config]
        self.producers = producers
        self.dest = dest
        self.carrier = False            # travels only to raise illegal at W
        self.serialize = serialize      # must be oldest before entering X
        self.handler = handler
        self.imm_block = imm_block      # decrypted user-mode immediate
        self.executed = False
        self.mem_done = False
        self.retired = False
        self.result = None              # forwardable 64-bit value
        self.ready_cycle = None
        self.flag_result = None         # forwardable F for set-flag
        self.pending_effects = None     # flag writes applied at commit
        self.pending_reg = None         # (index, value, is_program_address)
        self.ea_block = None
        self.store_value = None
        self.cached = False
        self.predicted = None           # (bpb_hit, taken, target)


def _slot_sources(instr):
    if instr.cls is InstrClass.BRANCH:
        return (FLAG,)
    # an unused field is None; r0 is constant zero
    return tuple(reg for reg in (instr.ra, instr.rb) if reg)


def _slot_dest(instr):
    if instr.mnemonic in ("l.jal", "l.jalr"):
        return 9
    if instr.opcode == isa.OP_SF:
        return FLAG
    return instr.rd or None


# How fetch treats a pc's word: latch-clearing, prefix, a user-mode
# immediate that consumes the latch, or illegal (fetched as a carrier).
_PLAIN, _PREFIX, _SEALED, _ILLEGAL = range(4)

_ILLEGAL_RECORD = (_ILLEGAL,) + (None,) * 9
_CARRIER_INSTR = isa.Instruction(isa.OP_SYS, "l.illegal", InstrClass.SYSTRAP)


class Engine:
    """Drives one program image to completion, cycle by cycle.

    `trace`, if given, is called with one occupancy line per cycle as the
    cycle starts.
    """

    def __init__(self, image, cdc, user_words=None, cache_entries=None,
                 bpb_entries=64, trace=None):
        mode = Mode.USER if image.mode == "user" else Mode.SUPERVISOR
        self.state = MachineState(cdc, entry=image.entry, mode=mode)
        kwargs = {}
        if user_words is not None:
            kwargs["user_words"] = user_words
        if cache_entries is not None:
            kwargs["cache_entries"] = cache_entries
        self.mem = MemorySystem(cdc, **kwargs)
        for addr in sorted(image.data):
            self.mem.supervisor_store(addr, image.data[addr])
        self.text = image.text
        # per mode, pc -> fetch record, made at the pc's first fetch there
        self._records_by_mode = {Mode.USER: {}, Mode.SUPERVISOR: {}}
        self._records = self._records_by_mode[mode]
        # sealed immediate block -> its plaintext, opened at first fetch
        self.opened = {}
        self._unround_keys = cdc.round_keys[::-1]
        self.bpb = BranchPredictionBuffer(bpb_entries)
        self.stats = CycleStats()
        self.outputs = []
        self.trace = trace
        self.cycle = 0
        self.halted = False
        self.latch = PrefixLatch()
        self.fetch_pc = image.entry & MASK32
        self.fetch_hold = False
        self.conveyor = [REFILL_BUBBLE] * plan_depth(mode)
        self._work = _WORK[mode]
        self._mode_stats = self.stats.per_mode[mode]
        self._last_writer = {}          # register -> youngest fetched writer
        self._rebuilt = False

    # ------------------------------------------------------------- fetch --

    def _record(self, pc, mode):
        """The fetch record of `pc` in `mode`: (kind, instr, word, plan,
        sources, dest, serializes, holds fetch, predicted, handler)."""
        word, instr = isa.decode_at(self.text, pc)
        if instr is None or (mode is Mode.USER and isa.user_illegal(instr)):
            return _ILLEGAL_RECORD
        cls = instr.cls
        if cls is InstrClass.PREFIX:
            kind = _PREFIX
        elif cls is InstrClass.IMMEDIATE and mode is Mode.USER:
            kind = _SEALED
        else:
            kind = _PLAIN
        # Nothing younger may enter the pipe behind a trap, a return or the
        # exit no-op: their commit changes the instruction stream.
        holds = cls is InstrClass.SYSTRAP or \
            (cls is InstrClass.NOP and instr.imm == 1)
        predicted = cls is InstrClass.BRANCH or cls is InstrClass.JUMP
        return (kind, instr, word, select_config(cls, mode),
                _slot_sources(instr), _slot_dest(instr),
                cls is InstrClass.SPR, holds, predicted, _HANDLERS.get(cls))

    def _fetch(self):
        if self.fetch_hold:
            return REFILL_BUBBLE
        pc = self.fetch_pc
        self.fetch_pc = (pc + 4) & MASK32
        mode = self.state.mode
        record = self._records.get(pc)
        if record is None:
            record = self._records[pc] = self._record(pc, mode)
        (kind, instr, word, config, sources, dest, serialize, holds,
         predicted, handler) = record

        imm_block = None
        if kind == _PLAIN:
            self.latch.clear()
        elif kind == _PREFIX:
            self.latch.feed(instr.prefix_idx, instr.prefix_payload)
        elif kind == _SEALED:
            try:
                sealed = consume_prefixes(self.latch, word)
            except MissingPrefix:
                return self._carrier(pc, mode)
            imm_block = self.opened.get(sealed)
            if imm_block is None:
                imm_block = self.opened[sealed] = self._open(sealed)
        else:
            return self._carrier(pc, mode)

        writers = self._last_writer
        producers = {}
        for name in sources:
            if name in writers:
                producers[name] = writers[name]
        slot = Slot(instr, pc, mode, config, producers, dest, serialize,
                    handler, imm_block)
        if dest is not None:
            writers[dest] = slot
        if holds:
            self.fetch_hold = True
        elif predicted:
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

    def _carrier(self, pc, mode):
        # the latch needs no clearing here: fetch holds until the trap
        # commits or a flush restarts it, and both clear the latch
        slot = Slot(_CARRIER_INSTR, pc, mode,
                    select_config(InstrClass.SYSTRAP, mode), {})
        slot.carrier = True
        self.fetch_hold = True
        return slot

    # -------------------------------------------------------- forwarding --

    def _source_ready(self, idx, cell, n):
        # a set-flag producer gets its ready_cycle with its flag_result
        for producer in cell.producers.values():
            if not producer.retired:
                ready = producer.ready_cycle
                if ready is None or ready > n:
                    return False
        if cell.serialize:
            for older in self.conveyor[idx + 1:-1]:
                if older.__class__ is Slot:
                    return False
        return True

    def _operand(self, cell, name):
        producer = cell.producers.get(name)
        st = self.state
        if producer is not None and not producer.retired:
            assert producer.mode is st.mode, "cross-mode forward"
            if name == FLAG:
                return producer.flag_result
            return producer.result
        if name == FLAG:
            return st.flag_f
        return st.read_operand(name)

    # ----------------------------------------------------------- execute --

    # Each handler runs one instruction class at X; the fetch record holds
    # it (_HANDLERS).

    def _ex_register(self, idx, cell, n):
        instr = cell.instr
        a = self._operand(cell, instr.ra) if instr.ra else 0
        b = self._operand(cell, instr.rb) if instr.rb else 0
        if instr.opcode == isa.OP_SF:
            cell.flag_result = alu.compare_flag(instr.funct,
                                                a & MASK32, b & MASK32)
            cell.pending_effects = {"f": cell.flag_result}
            cell.ready_cycle = n
            return
        res32, effects = alu.execute(instr.funct, a & MASK32, b & MASK32)
        cell.pending_effects = effects
        if cell.mode is Mode.USER:
            pad = pad_mix(word_pad(a), word_pad(b), instr.funct)
            cell.result = (pad << 32) | res32
        else:
            cell.result = res32
        cell.ready_cycle = n
        cell.pending_reg = (instr.rd, cell.result, False)

    def _ex_immediate(self, idx, cell, n):
        instr = cell.instr
        a = self._operand(cell, instr.ra) if instr.ra else 0
        op = isa.IMM_ALU_OP[instr.mnemonic]
        if cell.mode is Mode.USER:
            b = cell.imm_block
            res32, effects = alu.execute(op, a & MASK32, word_value(b))
            pad = pad_mix(word_pad(a), word_pad(b), op)
            cell.result = (pad << 32) | res32
        else:
            b = instr.imm & MASK32
            res32, effects = alu.execute(op, a & MASK32, b)
            cell.result = res32
        cell.pending_effects = effects
        cell.ready_cycle = n
        cell.pending_reg = (instr.rd, cell.result, False)

    def _ex_load_store(self, idx, cell, n):
        instr = cell.instr
        a = self._operand(cell, instr.ra) if instr.ra else 0
        off = instr.imm & MASK32
        if cell.mode is Mode.USER:
            ea32, _ = alu.execute(alu.OP_ADDR, a & MASK32, off)
            pad = pad_mix(word_pad(a), off, alu.OP_ADDR)
            cell.ea_block = (pad << 32) | ea32
        else:
            cell.ea_block = (a + instr.imm) & MASK64
        if instr.cls is InstrClass.STORE:
            cell.store_value = self._operand(cell, instr.rb) if instr.rb else 0
        if cell.m_index < 0:
            self._mem_access(cell, n)       # short plan: memory at X

    def _ex_class64(self, idx, cell, n):
        instr = cell.instr
        a = self._operand(cell, instr.ra) if instr.ra else 0
        if instr.funct == isa.C64_ADD:
            b = self._operand(cell, instr.rb) if instr.rb else 0
            cell.result = (a + b) & MASK64
            cell.ready_cycle = n
            cell.pending_reg = (instr.rd, cell.result, False)
            return
        cell.ea_block = (a + instr.imm) & MASK64
        if instr.funct == isa.C64_SD:
            cell.store_value = self._operand(cell, instr.rb) if instr.rb else 0
        if cell.m_index < 0:
            self._mem_access(cell, n)

    def _ex_spr(self, idx, cell, n):
        instr = cell.instr
        a = self._operand(cell, instr.ra) if instr.ra else 0
        index = ((a & MASK32) | instr.imm) & 0xFFFF
        if instr.mnemonic == "l.mtspr":
            # Serialized, so the write is program-ordered even though it
            # lands at X; user-mode writes are ignored inside write_spr.
            b = self._operand(cell, instr.rb) if instr.rb else 0
            self.state.write_spr(index, b)
            return
        value = self.state.read_spr(index)
        if cell.mode is Mode.USER:
            pad = pad_mix(word_pad(a), index, alu.OP_MFSPR)
            cell.result = (pad << 32) | (value & MASK32)
        else:
            cell.result = value & MASK64
        cell.ready_cycle = n
        cell.pending_reg = (instr.rd, cell.result, False)

    def _resolve_branch(self, idx, cell, n):
        instr = cell.instr
        m = instr.mnemonic
        pc = cell.pc
        if m in ("l.bf", "l.bnf"):
            flag = self._operand(cell, FLAG)
            taken = flag if m == "l.bf" else not flag
            target = (pc + 4 * instr.imm) & MASK32
        elif m in ("l.j", "l.jal"):
            taken = True
            target = (pc + 4 * instr.imm) & MASK32
        else:                            # l.jr / l.jalr
            taken = True
            value = self._operand(cell, instr.rb) if instr.rb else 0
            try:
                target = open_program_address(value)
            except NotAProgramAddress as exc:
                raise SimulationFault(
                    "jump target at pc 0x%08x: %s" % (pc, exc)) from exc
        if m in ("l.jal", "l.jalr"):
            link = (pc + 4) & MASK32
            if cell.mode is Mode.USER:
                cell.result = to_decrypted_address(link)
            else:
                cell.result = to_encrypted_address(link)
            cell.ready_cycle = n
            cell.pending_reg = (9, cell.result, True)

        hit, pred_taken, pred_target = cell.predicted
        right = (pred_taken == taken) and (not taken or pred_target == target)
        self.bpb.record(hit, right)
        self.bpb.update(pc, taken, target)
        if not right:
            conveyor = self.conveyor
            conveyor[:idx] = [REFILL_BUBBLE] * idx
            # a flushed slot may have been the youngest writer of its
            # register: rebuild from the survivors, oldest first
            self._last_writer = {older.dest: older
                                 for older in reversed(conveyor)
                                 if older.dest is not None}
            self.latch.clear()
            self.fetch_hold = False
            self.fetch_pc = target if taken else (pc + 4) & MASK32

    # -------------------------------------------------------------- memory --

    def _mem_access(self, cell, n):
        cell.mem_done = True
        instr = cell.instr
        user = cell.mode is Mode.USER
        if instr.cls is InstrClass.LOAD:
            if user:
                cell.result, cell.cached = self.mem.user_load(cell.ea_block)
                cell.ready_cycle = n + 1 if cell.cached else n + 1 + ROUNDS
            else:
                value = self.mem.supervisor_load(cell.ea_block) & MASK32
                cell.result = value
                cell.ready_cycle = n + 1
            cell.pending_reg = (instr.rd, cell.result, False)
            return
        if instr.cls is InstrClass.STORE:
            if user:
                cell.cached = self.mem.user_store(cell.ea_block,
                                                  cell.store_value)
            else:
                self.mem.supervisor_store(cell.ea_block,
                                          cell.store_value & MASK32)
            return
        if instr.cls is InstrClass.CLASS64:
            if instr.funct == isa.C64_LD:
                cell.result = self.mem.supervisor_load(cell.ea_block)
                cell.ready_cycle = n + 1
                cell.pending_reg = (instr.rd, cell.result, False)
            else:
                self.mem.supervisor_store(cell.ea_block, cell.store_value)

    # -------------------------------------------------------------- retire --

    def _retire(self, cell):
        # every cell in the conveyor was fetched in the current mode; step()
        # counts the bubbles itself
        ms = self._mode_stats
        # Younger slots may still hold this one, but nothing reaches older
        # slots through it: without the cut, each slot would keep its
        # producers alive, and theirs, back to the start of the run.
        cell.retired = True
        cell.producers = None
        st = self.state
        instr = cell.instr
        ms.completions[instr.cls] += 1
        if instr.cls is InstrClass.LOAD and cell.cached:
            ms.loads_cached += 1
        if instr.cls is InstrClass.STORE and cell.cached:
            ms.stores_cached += 1

        if cell.carrier:
            if cell.pc == VEC_ILLEGAL and cell.mode is Mode.SUPERVISOR:
                # the trap would fetch this same illegal word again, forever
                raise SimulationFault(
                    "illegal instruction at the illegal-instruction vector "
                    "0x%08x in supervisor mode" % VEC_ILLEGAL)
            st.enter_exception(VEC_ILLEGAL, cell.pc)
            self._transition()
            return
        if instr.mnemonic == "l.sys":
            st.enter_exception(VEC_SYSCALL, (cell.pc + 4) & MASK32)
            self._transition()
            return
        if instr.mnemonic == "l.rfe":
            st.rfe()
            self._transition()
            return
        if instr.cls is InstrClass.NOP:
            if instr.imm == 1:
                self.halted = True
            elif instr.imm == 2:
                if cell.mode is Mode.USER:
                    value = st.read_shadow(3) & MASK32
                else:
                    value = st.regs[3] & MASK32
                self.outputs.append(value)
            return

        if cell.pending_reg is not None:
            index, value, is_addr = cell.pending_reg
            st.write_register(index, value, program_address=is_addr)
        if cell.pending_effects:
            eff = cell.pending_effects
            if "f" in eff:
                st.flag_f = eff["f"]
            if "cy" in eff:
                st.flag_cy = eff["cy"]
            if "ov" in eff:
                st.flag_ov = eff["ov"]

    def _transition(self):
        mode = self.state.mode
        self.conveyor = [REFILL_BUBBLE] * plan_depth(mode)
        self._work = _WORK[mode]
        self._records = self._records_by_mode[mode]
        self._mode_stats = self.stats.per_mode[mode]
        self._last_writer = {}
        self.latch.clear()
        self.fetch_hold = False
        self.fetch_pc = self.state.pc
        self._rebuilt = True

    # -------------------------------------------------------------- cycle --

    def _trace(self, n):
        conveyor = self.conveyor
        parts = ["%s:0x%08x:%s" % (cell.config.stages[idx], cell.pc,
                                   cell.instr.mnemonic)
                 for idx in range(len(conveyor) - 1, -1, -1)
                 if (cell := conveyor[idx]).__class__ is Slot]
        self.trace("cycle %d | %s" % (n, " ".join(parts)))

    def step(self):
        n = self.cycle
        conveyor = self.conveyor
        x_positions, m_positions, r_positions = self._work

        if self.trace is not None:
            self._trace(n)

        # execute, oldest first: a branch resolving here flushes the
        # younger positions in place, so each is read after the older ran
        for idx in x_positions:
            cell = conveyor[idx]
            if cell.x_index == idx and not cell.executed:
                cell.executed = True
                if cell.handler is not None:
                    cell.handler(self, idx, cell, n)

        # memory, after every execute: a fault at X outranks one at M
        for idx in m_positions:
            cell = conveyor[idx]
            if cell.m_index == idx and cell.executed and not cell.mem_done:
                self._mem_access(cell, n)

        cell = conveyor[-1]
        if cell is STALL_BUBBLE:
            self._mode_stats.stalls += 1
        elif cell is REFILL_BUBBLE:
            self._mode_stats.refills += 1
        else:
            self._retire(cell)
        self.stats.cycles += 1
        self.cycle = n + 1
        if self.halted:
            return

        if self._rebuilt:
            # fresh conveyor after a mode transition; fetch straight into it
            self._rebuilt = False
            self.conveyor[0] = self._fetch()
            return

        # the oldest instruction whose operands are not ready holds its
        # read position and everything younger; a stall bubble opens ahead
        stall_idx = -1
        for idx in r_positions:
            cell = conveyor[idx]
            if cell.r_index == idx and (cell.producers or cell.serialize) \
                    and not self._source_ready(idx, cell, n):
                stall_idx = idx
                break

        del conveyor[-1]
        conveyor.insert(stall_idx + 1,
                        STALL_BUBBLE if stall_idx >= 0 else self._fetch())

    def run(self, max_cycles=5_000_000):
        while not self.halted:
            if self.cycle >= max_cycles:
                raise MaxCyclesExceeded("no exit after %d cycles" % max_cycles)
            self.step()
        return self.state


# What X does for each class; the classes left out (no-ops, prefixes,
# traps and returns) do nothing there.
_HANDLERS = {
    InstrClass.REGISTER: Engine._ex_register,
    InstrClass.IMMEDIATE: Engine._ex_immediate,
    InstrClass.LOAD: Engine._ex_load_store,
    InstrClass.STORE: Engine._ex_load_store,
    InstrClass.CLASS64: Engine._ex_class64,
    InstrClass.BRANCH: Engine._resolve_branch,
    InstrClass.JUMP: Engine._resolve_branch,
    InstrClass.SPR: Engine._ex_spr,
}
