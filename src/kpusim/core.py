"""Architectural state: modes, registers, shadow registers, special
registers and the trap/return protocol.

Real general registers are 64 bits wide and, in user mode, hold ciphertext
(or zero-filled program addresses). The shadow bank holds the plaintext-
domain copies the ALU actually works on in user mode; it is invisible to
supervisor code. One set, `stale`, names the registers whose other bank
lags: a user-mode write leaves the real bank stale until the machine leaves
user mode, when the set is flushed (encrypted across), and a supervisor
write leaves the shadow stale until l.rfe maps the set in. Both moves cost
no modeled cycle (the codec hardware is assumed doubled).
"""

from enum import Enum

from . import codec
from .codec import MASK32, MASK64


class Mode(Enum):
    # Identity hash, in C, as isa.InstrClass has: the engine and the oracle
    # key their per-mode tables by mode. No set of modes is iterated.
    __hash__ = object.__hash__

    USER = "user"
    SUPERVISOR = "super"


_USER = Mode.USER   # for write_register, with no enum getattr per write

# Special-register indices.
SPR_SR = 17
SPR_CONFIG = 20
SPR_EPCR = 32

CONFIG_ID = 0x4B505531  # "KPU1": identifies this machine model, read-only

# SPRs user mode may read; everything else reads as zero there.
USER_READABLE_SPRS = frozenset({SPR_CONFIG})

# Status-register bit positions.
SR_SM = 1 << 0
SR_F = 1 << 9
SR_CY = 1 << 10
SR_OV = 1 << 11

# Exception vectors.
VEC_RESET = 0x100
VEC_ILLEGAL = 0x700
VEC_SYSCALL = 0xC00


class VectorSpin(codec.ProgramFault):
    """Both machines' fault on an illegal word at the vector in supervisor
    mode, whose trap would fetch that same word again, forever."""

    def __init__(self):
        super().__init__("illegal instruction at the illegal-instruction "
                         "vector 0x%08x in supervisor mode" % VEC_ILLEGAL)


class BudgetExhausted(codec.ProgramFault):
    """Both machines' fault on a run that outlives its cycles or steps."""

    def __init__(self, budget):
        super().__init__("no exit within a budget of %d" % budget)


def open_registers(cdc, reals):
    """Each real register's plaintext-domain block, for map-in and the
    checker: a zero-filled value is a program address and gets the 0x7fff
    tag, and the rest decrypt, in one batch (memsys.BLANK_CELL says where
    that misreads)."""
    opened = iter(cdc.decrypt_many([real for real in reals if real >> 32]))
    return [next(opened) if real >> 32 else codec.to_decrypted_address(real)
            for real in reals]


def pack_sr(sm, f, cy, ov):
    return ((SR_SM if sm else 0) | (SR_F if f else 0)
            | (SR_CY if cy else 0) | (SR_OV if ov else 0))


def unpack_sr(value):
    return bool(value & SR_SM), bool(value & SR_F), bool(value & SR_CY), bool(value & SR_OV)


class MachineState:
    """Registers, mode, special registers, and the shadow bank."""

    def __init__(self, cdc, entry=VEC_RESET, mode=Mode.SUPERVISOR):
        self.codec = cdc
        self.pc = entry & MASK32
        self.mode = mode
        self.regs = [0] * 32            # real bank, 64-bit
        self.shadow = [0] * 32          # plaintext-domain bank, user only
        self.flag_f = False
        self.flag_cy = False
        self.flag_ov = False
        self.hidden_esr = 0             # saved SR; no SPR index on purpose
        self.epcr = 0
        self.spr = {}                   # open-ended supervisor scratch SPRs
        self.stale = set()              # registers whose other bank lags
        if mode is Mode.USER:
            self._map_in(range(32))

    # -------------------------------------------------------------- banks --

    def _map_in(self, indices):
        indices = [i for i in indices if i]
        opened = open_registers(self.codec, [self.regs[i] for i in indices])
        for i, block in zip(indices, opened):
            self.shadow[i] = block

    def flush_shadows(self):
        """Encrypt the stale shadows into the real bank (user mode's end):
        a program address crosses in its zero-filled form, and the other
        blocks are encrypted in one batch."""
        regs, shadow, data = self.regs, self.shadow, []
        for i in self.stale:
            block = shadow[i]
            if codec.is_decrypted_address(block) \
                    or codec.is_encrypted_address(block):
                regs[i] = codec.to_encrypted_address(block)
            else:
                data.append(i)
        ciphers = self.codec.encrypt_many([shadow[i] for i in data])
        for i, cipher in zip(data, ciphers):
            regs[i] = cipher
        self.stale.clear()

    def write_register(self, i, value, program_address=False):
        """Architectural register write in the current mode.

        In user mode the value is a plaintext-domain 64-bit block for the
        shadow bank; the real bank is left stale until the next flush,
        except that program addresses keep both banks coherent at once. A
        supervisor write leaves the shadow stale until the next map-in.
        """
        if i == 0:
            return
        if self.mode is _USER:
            self.shadow[i] = value & MASK64
            if program_address:
                self.regs[i] = codec.to_encrypted_address(value)
                self.stale.discard(i)
                return
        else:
            self.regs[i] = value & MASK64
        self.stale.add(i)

    # --------------------------------------------------------------- sprs --

    @property
    def sr(self):
        return pack_sr(self.mode is Mode.SUPERVISOR,
                       self.flag_f, self.flag_cy, self.flag_ov)

    def read_spr(self, index):
        index &= 0xFFFF
        if self.mode is Mode.USER and index not in USER_READABLE_SPRS:
            return 0
        if index == SPR_SR:
            return self.sr
        if index == SPR_CONFIG:
            return CONFIG_ID
        if index == SPR_EPCR:
            return self.epcr
        return self.spr.get(index, 0)

    def write_spr(self, index, value):
        """Ignored entirely in user mode; CONFIG is read-only everywhere.

        Writing SR updates the flag bits only: the SM bit cannot be toggled
        by mtspr, mode changes go through trap entry and l.rfe.
        """
        index &= 0xFFFF
        if self.mode is Mode.USER:
            return
        if index == SPR_CONFIG:
            return
        if index == SPR_SR:
            _, self.flag_f, self.flag_cy, self.flag_ov = unpack_sr(value)
            return
        if index == SPR_EPCR:
            self.epcr = value & MASK64
            return
        self.spr[index] = value & MASK64

    # --------------------------------------------------------- transitions --

    def enter_exception(self, vector, return_pc):
        """Trap entry: save SR, clear flags, switch to supervisor, vector.

        Single-level: a trap taken in supervisor mode overwrites hidden_esr
        and EPCR, so nested traps lose the outer context by design.
        """
        self.hidden_esr = self.sr
        self.epcr = return_pc & MASK32
        if self.mode is Mode.USER:
            self.flush_shadows()
        self.stale.clear()
        self.flag_f = self.flag_cy = self.flag_ov = False
        self.mode = Mode.SUPERVISOR
        self.pc = vector & MASK32

    def rfe(self):
        """Return from exception: restore SR from hidden_esr, pc from EPCR."""
        if self.mode is not Mode.SUPERVISOR:
            raise AssertionError("l.rfe outside supervisor mode")
        sm, self.flag_f, self.flag_cy, self.flag_ov = unpack_sr(self.hidden_esr)
        self.pc = self.epcr & MASK32
        if sm:
            self.mode = Mode.SUPERVISOR
        else:
            self.mode = Mode.USER
            self._map_in(self.stale)
            self.stale.clear()
