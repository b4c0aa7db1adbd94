"""Memory system: word-granular FCFS address translation, the user data
cache, and the Harvard-split physical storage.

Instructions live in their own 32-bit word space addressed by plain program
addresses. Data lives in 64-bit cells. Supervisor data addresses map
identically (addr/8) within the supervisor region, the first 1 MiB, and
fault past it or off an 8-byte boundary: super_index is that one rule, for
this machine and the oracle alike. The user cells that follow the region
are reached only through the user path. User-mode effective addresses are
encrypted whole and the resulting ciphertext is assigned a physical cell in
first-come order, one cell per distinct cipher address. Two computations of
the same logical address with different paddings therefore land in
different cells: hardware aliasing is a feature of the model, not an
accident.

The cipher is a bijection, so each padded effective address has exactly one
cell; the memory system keeps that pairing beside the TLB and encrypts an
address only the first time it sees it. The TLB itself stays keyed by
ciphertext, as the dump shows it; its entry count is the next cell's offset.

The user data cache keeps the only count of its read and write hits and
misses: the cycle table's "(cached)" rows read them.
"""

from collections import OrderedDict

from .codec import MASK64, ProgramFault

SUPER_REGION_BYTES = 1 << 20           # identity-mapped supervisor region
DEFAULT_USER_WORDS = 64 * 1024
DEFAULT_CACHE_ENTRIES = 64


class PhysicalExhausted(ProgramFault):
    """FCFS allocator ran out of pre-set user physical words."""


class UnalignedSupervisorAccess(ProgramFault):
    """Supervisor data addresses must be 8-byte aligned."""


class OutOfRegion(ProgramFault):
    """Supervisor data address at or beyond the supervisor region's end."""


def super_index(addr):
    """The cell of a supervisor data address: 8-aligned, in the region."""
    addr &= MASK64
    if addr % 8:
        raise UnalignedSupervisorAccess("address 0x%x not 8-aligned" % addr)
    if addr >= SUPER_REGION_BYTES:
        raise OutOfRegion("address 0x%x beyond the supervisor region" % addr)
    return addr // 8


class TlbMap:
    """Cipher address -> physical word index, first-come first-served."""

    def __init__(self, base, capacity):
        self.base = base
        self.capacity = capacity
        self.entries = {}              # in allocation order

    def translate(self, cipher_addr):
        cipher_addr &= MASK64
        idx = self.entries.get(cipher_addr)
        if idx is not None:
            return idx
        if len(self.entries) >= self.capacity:
            raise PhysicalExhausted(
                "user physical range exhausted after %d words" % self.capacity)
        idx = self.entries[cipher_addr] = self.base + len(self.entries)
        return idx


class UserDataCache:
    """Small fully-associative LRU cache of plaintext write data.

    Keyed by the full 64-bit padded effective address, so the same logical
    address under a different padding is a different line (mirroring the
    aliasing behaviour of the encrypted memory behind it). Write-through,
    write-allocate; loads that miss do not allocate, the cache only ever
    holds data that went through a store.
    """

    def __init__(self, entries=DEFAULT_CACHE_ENTRIES):
        self.capacity = entries
        self.lines = OrderedDict()     # ea block -> value block, LRU order
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0

    def load(self, ea_block):
        line = self.lines.get(ea_block)
        if line is None:
            self.read_misses += 1
            return None
        self.read_hits += 1
        self.lines.move_to_end(ea_block)
        return line

    def store(self, ea_block, value_block):
        """Write the line, counting a write hit or miss."""
        if ea_block in self.lines:
            self.write_hits += 1
            self.lines.move_to_end(ea_block)
        else:
            self.write_misses += 1
            if len(self.lines) >= self.capacity:
                self.lines.popitem(last=False)
        self.lines[ea_block] = value_block


class MemorySystem:
    """Data-side memory: physical cells, translation, and the user cache."""

    def __init__(self, codec, user_words=DEFAULT_USER_WORDS,
                 cache_entries=DEFAULT_CACHE_ENTRIES):
        self.codec = codec
        self.cells = {}                # sparse: index -> 64-bit word
        self.tlb = TlbMap(SUPER_REGION_BYTES // 8, user_words)
        self.cache = UserDataCache(cache_entries)
        self.ea_cells = {}             # ea block -> cell, one per TLB entry

    # ---------------------------------------------------------- physical --

    def read_cell(self, index):
        return self.cells.get(index, 0)

    def write_cell(self, index, value):
        self.cells[index] = value & MASK64

    # -------------------------------------------------------- supervisor --

    def supervisor_load(self, addr):
        return self.read_cell(super_index(addr))

    def supervisor_store(self, addr, value):
        self.write_cell(super_index(addr), value)

    # --------------------------------------------------------------- user --

    def _user_cell(self, ea_block):
        """Physical cell of a padded effective address: the TLB entry of
        its ciphertext, encrypted only at the address's first sight."""
        index = self.ea_cells.get(ea_block)
        if index is None:
            index = self.tlb.translate(self.codec.encrypt(ea_block))
            self.ea_cells[ea_block] = index
        return index

    def user_load(self, ea_block):
        """Load through the cache; returns (value block, cache hit)."""
        cached = self.cache.load(ea_block)
        if cached is not None:
            return cached, True
        index = self._user_cell(ea_block)
        return self.codec.decrypt(self.read_cell(index)), False

    def user_store(self, ea_block, value_block):
        """Write-through: plaintext to the cache, ciphertext to the cell."""
        self.cache.store(ea_block, value_block)
        self.write_cell(self._user_cell(ea_block),
                        self.codec.encrypt(value_block))
