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

The cipher is a bijection, so the memory system keeps plaintext beside what
the hardware holds: it encrypts a padded address only at its first sight,
keeping the pairing beside the TLB (keyed by ciphertext, as the dump shows
it; its entry count is the next cell's offset), and a user cell's value only
when physical_cells() shows it to the dump and the checker. The codec's cost
on a user store or miss is pipeline latency, which the engine charges.

The user data cache keeps the only count of its read and write hits and
misses: the cycle table's "(cached)" rows read them.
"""

from collections import OrderedDict

from .codec import MASK64, ProgramFault, word_value

SUPER_REGION_BYTES = 1 << 20           # identity-mapped supervisor region
DEFAULT_USER_WORDS = 64 * 1024
DEFAULT_CACHE_ENTRIES = 64

# What a never-written user cell holds, in both machines and the checker;
# a user load from one reads its decryption (blank_word). That value's
# ciphertext, 0, is also program address 0's zero-filled form, which
# core.open_register reads back after a trap maps the value out (ROADMAP.md,
# open item 1(a)). Unwritten supervisor RAM reads 0, a rule of its own.
BLANK_CELL = 0


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


def blank_word(cdc):
    """The plaintext word a never-written user cell reads as."""
    return word_value(cdc.decrypt(BLANK_CELL))


def data_cells(image):
    """(cell, value) of an image's DATA records in address order, so that
    both machines fault on the same one of several unloadable records."""
    data = image.data
    for addr in sorted(data):
        yield super_index(addr), data[addr]


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
        self.cells = {}                # sparse: supervisor index -> word
        self.tlb = TlbMap(SUPER_REGION_BYTES // 8, user_words)
        self.cache = UserDataCache(cache_entries)
        self.ea_cells = {}             # ea block -> cell, one per TLB entry
        self.user_blocks = {}          # user cell -> plaintext block stored
        self.blank_block = codec.decrypt(BLANK_CELL)

    def physical_cells(self):
        """Every written cell as the hardware holds it: supervisor words as
        stored, each user cell's block encrypted."""
        return self.cells | {index: self.codec.encrypt(block)
                             for index, block in self.user_blocks.items()}

    # -------------------------------------------------------- supervisor --

    def supervisor_load(self, addr):
        return self.cells.get(super_index(addr), 0)

    def supervisor_store(self, addr, value):
        self.cells[super_index(addr)] = value & MASK64

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
        """(value block, cache hit); a miss reads the stored or blank block."""
        cached = self.cache.load(ea_block)
        if cached is not None:
            return cached, True
        return self.user_blocks.get(self._user_cell(ea_block),
                                    self.blank_block), False

    def user_store(self, ea_block, value_block):
        """Write-through: the plaintext block to the cache and the cell."""
        self.cache.store(ea_block, value_block)
        self.user_blocks[self._user_cell(ea_block)] = value_block & MASK64
