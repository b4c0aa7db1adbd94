"""Translation map, user data cache, and physical storage checks."""

import random

import pytest

from kit import CDC
from kpusim.assembler import FormatError
from kpusim.check import SimView, parse_sim_dump, render_dump
from kpusim.memsys import (SUPER_REGION_BYTES, MemorySystem, OutOfRegion,
                           PhysicalExhausted, TlbMap,
                           UnalignedSupervisorAccess, UserDataCache,
                           super_index)


def ea(pad, addr):
    return ((pad & 0xFFFFFFFF) << 32) | (addr & 0xFFFFFFFF)


def test_tlb_allocates_in_arrival_order():
    tlb = TlbMap(1000, 8)
    indices = [tlb.translate(c) for c in (0x500, 0x30, 0x7FF0, 0x500, 0x30)]
    assert indices == [1000, 1001, 1002, 1000, 1001]
    assert list(tlb.entries.values()) == [1000, 1001, 1002]


def test_tlb_exhaustion():
    tlb = TlbMap(0, 3)
    for c in (1, 2, 3):
        tlb.translate(c)
    assert tlb.translate(2) == 1           # existing entries still resolve
    with pytest.raises(PhysicalExhausted):
        tlb.translate(4)


def test_cache_lru_eviction():
    cache = UserDataCache(entries=4)
    for i in range(4):
        cache.store(ea(0x100 + i, i * 4))
    assert cache.load(ea(0x100, 0))              # refresh the oldest line
    cache.store(ea(0x200, 0x40))                 # now pad 0x101 goes out
    assert cache.load(ea(0x100, 0))
    assert not cache.load(ea(0x101, 4))
    assert cache.load(ea(0x102, 8))


def test_cache_loads_never_allocate():
    cache = UserDataCache(entries=4)
    assert not cache.load(ea(0x123, 0x10))
    assert not cache.load(ea(0x123, 0x10))       # still a miss
    assert cache.read_misses == 2 and cache.read_hits == 0
    assert not cache.lines


def test_cache_counters():
    cache = UserDataCache(entries=4)
    cache.store(ea(1, 0))
    cache.store(ea(1, 0))
    assert (cache.write_misses, cache.write_hits) == (1, 1)
    cache.load(ea(1, 0))
    assert (cache.read_hits, cache.read_misses) == (1, 0)


def test_user_store_keeps_ciphertext_at_rest():
    mem = MemorySystem(CDC)
    addr = ea(0x4AAA0001, 0x100)
    value = ea(0x4BBB0002, 1234)
    mem.user_store(addr, value)
    # the dump's view: the one place a user cell leaves the memory system
    cells, tlb = mem.physical_view()
    assert tlb == {CDC.encrypt(addr): mem.tlb.entries[addr]}
    raw = cells[mem.tlb.entries[addr]]
    assert raw != value
    assert CDC.decrypt(raw) == value


def test_user_load_sources():
    mem = MemorySystem(CDC)
    addr = ea(0x4AAA0001, 0x200)
    value = ea(0x4BBB0002, 77)
    blank, hit = mem.user_load(ea(0x4CCC0003, 0x300))
    assert hit is False
    assert blank == CDC.decrypt(0)               # never-written cell
    mem.user_store(addr, value)
    got, hit = mem.user_load(addr)
    assert got == value and hit is True
    # push the line out; the next load reads the cell
    for i in range(mem.cache.capacity):
        mem.user_store(ea(0x40000010 + i, 8 * i), ea(0x41000001, i))
    got, hit = mem.user_load(addr)
    assert got == value and hit is False


def test_same_logical_address_different_pads_alias():
    mem = MemorySystem(CDC)
    a = ea(0x4AAA0001, 0x500)
    b = ea(0x4AAA0002, 0x500)        # same 32-bit address, different pad
    mem.user_store(a, ea(0x41000001, 1))
    mem.user_store(b, ea(0x41000001, 2))
    ia = mem.tlb.entries[a]
    ib = mem.tlb.entries[b]
    assert ia != ib                  # hardware sees two unrelated cells


def test_supervisor_alignment_and_bounds():
    mem = MemorySystem(CDC, user_words=16)
    mem.supervisor_store(0x1000, 0xDEAD)
    assert mem.supervisor_load(0x1000) == 0xDEAD
    assert mem.supervisor_load(0x2000) == 0
    with pytest.raises(UnalignedSupervisorAccess):
        mem.supervisor_load(0x1003)
    with pytest.raises(OutOfRegion):
        mem.supervisor_load(SUPER_REGION_BYTES)


def test_super_index_is_the_one_supervisor_address_rule():
    assert super_index(0) == 0
    assert super_index(SUPER_REGION_BYTES - 8) == SUPER_REGION_BYTES // 8 - 1
    with pytest.raises(OutOfRegion,
                       match="address 0x100000 beyond the supervisor region"):
        super_index(SUPER_REGION_BYTES)
    with pytest.raises(UnalignedSupervisorAccess,
                       match="address 0x244 not 8-aligned"):
        super_index(0x244)


def test_supervisor_cells_hold_raw_values():
    mem = MemorySystem(CDC)
    mem.supervisor_store(0x800, 0x1234567890ABCDEF)
    assert mem.cells[0x100] == 0x1234567890ABCDEF


def test_dump_round_trip():
    mem = MemorySystem(CDC)
    rng = random.Random(9)
    for i in range(10):
        mem.user_store(ea(0x42000000 + i, rng.randrange(1 << 16) * 4),
                       ea(0x43000001, rng.getrandbits(32)))
    mem.supervisor_store(0x10 * 8, 0xFEED)
    cells, tlb = mem.physical_view()
    assert len(cells) == 10 + 1
    assert len(tlb) == 10
    view = SimView(mode="super", regs_real=[0] * 32, regs_shadow=[0] * 32,
                   cells=cells, tlb=tlb)
    back = parse_sim_dump(render_dump(view))
    assert back.cells == {k: v for k, v in cells.items() if v}
    assert back.tlb == tlb
    with pytest.raises(FormatError):
        parse_sim_dump("KPUDUMP 1\nJUNK 1 2\n")
