"""Memory system: word-granular FCFS address translation, the user data
cache, and the Harvard-split physical storage.

Instructions live in their own 32-bit word space addressed by plain program
addresses. Data lives in 64-bit cells. Supervisor data addresses map
identically (addr/8) within the supervisor region, the first 1 MiB, and
fault past it or off an 8-byte boundary: super_index is that one rule, for
this machine and the oracle alike. The user cells that follow the region
are reached only through the user path. In the hardware, user-mode
effective addresses are encrypted whole and the resulting ciphertext is
assigned a physical cell in first-come order, one cell per distinct cipher
address. Two computations of the same logical address with different
paddings therefore land in different cells: hardware aliasing is a feature
of the model, not an accident.

The cipher is a bijection, so the memory system keeps plaintext where the
hardware holds ciphertext: the TLB is keyed by the padded address, which
allocates as the ciphertext would, and a user cell holds the block last
stored. physical_view() encrypts both, each once and all in one batch, for
the dump and the checker. The codec's cost on a user access is pipeline
latency, which the engine charges.

A user cell's value has one home, user_blocks. The user data cache holds
only which padded addresses it has, and keeps the only count of its read
and write hits and misses: the cycle table's "(cached)" rows read them.
"""

from collections import OrderedDict

from .codec import MASK64, ProgramFault, word_value

SUPER_REGION_BYTES = 1 << 20           # identity-mapped supervisor region
DEFAULT_USER_WORDS = 64 * 1024
DEFAULT_CACHE_ENTRIES = 64

# What a never-written user cell holds, in both machines and the checker;
# a user load from one reads its decryption (blank_word). That value's
# ciphertext, 0, is also program address 0's zero-filled form, which
# core.open_registers reads back after a trap maps the value out
# (ROADMAP.md, open item 1(a)). Unwritten supervisor RAM reads 0, a rule
# of its own.
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
    """Padded effective address -> physical word index, first-come
    first-served; the hardware's key is the address's ciphertext."""

    def __init__(self, base, capacity):
        self.base = base
        self.capacity = capacity
        self.entries = {}              # in allocation order

    def translate(self, ea_block):
        ea_block &= MASK64
        idx = self.entries.get(ea_block)
        if idx is not None:
            return idx
        if len(self.entries) >= self.capacity:
            raise PhysicalExhausted(
                "user physical range exhausted after %d words" % self.capacity)
        idx = self.entries[ea_block] = self.base + len(self.entries)
        return idx


class UserDataCache:
    """Small fully-associative LRU cache of user data lines.

    Keyed by the full 64-bit padded effective address, so the same logical
    address under a different padding is a different line (mirroring the
    aliasing behaviour of the encrypted memory behind it). Write-through,
    write-allocate; loads that miss do not allocate, so a line's data is
    always its cell's, and the cache keeps only which lines it holds.
    """

    def __init__(self, entries=DEFAULT_CACHE_ENTRIES):
        self.capacity = entries
        self.lines = OrderedDict()     # ea block -> None, LRU order
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0

    def load(self, ea_block):
        """Whether the line is held, counting a read hit or miss."""
        if ea_block in self.lines:
            self.read_hits += 1
            self.lines.move_to_end(ea_block)
            return True
        self.read_misses += 1
        return False

    def store(self, ea_block):
        """Hold the line, counting a write hit or miss."""
        if ea_block in self.lines:
            self.write_hits += 1
            self.lines.move_to_end(ea_block)
        else:
            self.write_misses += 1
            if len(self.lines) >= self.capacity:
                self.lines.popitem(last=False)
            self.lines[ea_block] = None


class MemorySystem:
    """Data-side memory: physical cells, translation, and the user cache."""

    def __init__(self, codec, user_words=DEFAULT_USER_WORDS,
                 cache_entries=DEFAULT_CACHE_ENTRIES):
        self.codec = codec
        self.cells = {}                # sparse: supervisor index -> word
        self.tlb = TlbMap(SUPER_REGION_BYTES // 8, user_words)
        self.cache = UserDataCache(cache_entries)
        self.user_blocks = {}          # user cell -> plaintext block stored
        self.blank_block = codec.decrypt(BLANK_CELL)

    def physical_view(self):
        """(cells, tlb) as the hardware holds them: every written cell,
        supervisor words as stored and each user block encrypted, and the
        TLB keyed by each address's ciphertext. The user blocks and the
        TLB's keys are encrypted in one list, lane-parallel."""
        blocks, entries = self.user_blocks, self.tlb.entries
        ciphers = self.codec.encrypt_many([*blocks.values(), *entries])
        return (self.cells | dict(zip(blocks, ciphers)),
                dict(zip(ciphers[len(blocks):], entries.values())))

    # -------------------------------------------------------- supervisor --

    def supervisor_load(self, addr):
        return self.cells.get(super_index(addr), 0)

    def supervisor_store(self, addr, value):
        self.cells[super_index(addr)] = value & MASK64

    # --------------------------------------------------------------- user --

    def user_load(self, ea_block):
        """(value block, cache hit); a miss reads the stored or blank block."""
        if self.cache.load(ea_block):
            return self.user_blocks[self.tlb.entries[ea_block]], True
        return self.user_blocks.get(self.tlb.translate(ea_block),
                                    self.blank_block), False

    def user_store(self, ea_block, value_block):
        """Write-through: the block to the cell, the line to the cache."""
        self.user_blocks[self.tlb.translate(ea_block)] = value_block & MASK64
        self.cache.store(ea_block)
