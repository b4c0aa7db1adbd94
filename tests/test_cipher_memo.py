"""The cipher runs once per distinct block, and what the machines keep stays
bounded.

The engine opens each sealed immediate at fetch and keeps the plaintext per
sealed block; the oracle keeps each immediate's literal the same way; the
memory system keys its TLB by padded address and encrypts each key and each
written cell once, for the dump. None of these may grow with the length of
a run: the immediate memos are bounded by the program's sealed pcs, the TLB
by the distinct padded addresses, at most the user words. And a run four
times longer peaks at the same memory in either machine.
"""

import tracemalloc
from pathlib import Path

from kpusim import isa
from kpusim.assembler import assemble
from kpusim.check import engine_view
from kpusim.codec import Codec
from kpusim.frontend import main
from kpusim.isa import InstrClass
from kpusim.memsys import MemorySystem
from kpusim.oracle import Interpreter
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF
ROOT = Path(__file__).resolve().parent.parent

# Keeping one bare object() per engine cycle adds about 190 KB over the
# 6,900 cycles the longer run adds, and one per oracle step about 130 KB.
PEAK_MARGIN = 16 * 1024

# The cycle in which a one-pass sweep over five cells, given four user
# words, runs out of cells; measured while the TLB was still keyed by
# each address's ciphertext.
FAULT_CYCLE = 156


def sweep_source(cells, passes, total=False):
    """User-mode read-modify-write sweep: every pass recomputes the padded
    addresses of the one before, so `cells` padded addresses in all. With
    `total`, r3 sums every value stored and the sweep prints it."""
    clear, add, show = ((["    l.addi r3, r0, 0"], ["    l.add  r3, r3, r6"],
                         ["    l.nop  2"]) if total else ([], [], []))
    return "\n".join([
        ".mode user",
        ".entry start",
        ".org 0x700",
        "    l.nop  1",
        ".org 0x2000",
        ".encrypt on",
        "start:",
    ] + clear + [
        "    l.addi r7, r0, %d" % passes,
        "pass:",
        "    l.addi r14, r0, 256",
        "    l.addi r5, r0, %d" % cells,
        "sweep:",
        "    l.lwz  r6, 0(r14)",
        "    l.addi r6, r6, 1",
        "    l.sw   0(r14), r6",
    ] + add + [
        "    l.addi r14, r14, 4",
        "    l.addi r5, r5, -1",
        "    l.sfne r5, r0",
        "    l.bf   sweep",
        "    l.addi r7, r7, -1",
        "    l.sfne r7, r0",
        "    l.bf   pass",
    ] + show + [
        "    l.nop  1",
    ]) + "\n"


def sealed_pcs(image):
    """Immediate-class pcs right behind a prefix pair: the only places a
    full prefix latch can be consumed."""
    def cls(pc):
        try:
            return isa.decode(image.text[pc]).cls
        except (KeyError, isa.IllegalOpcode):
            return None

    return {pc for pc in image.text if cls(pc) is InstrClass.IMMEDIATE
            and cls(pc - 8) is cls(pc - 4) is InstrClass.PREFIX}


def test_immediate_memos_hold_at_most_one_block_per_sealed_pc():
    cdc = Codec(KEY)
    image = assemble((ROOT / "bench" / "is_add_test.s").read_text(), cdc)
    pcs = sealed_pcs(image)
    engine = Engine(image, cdc)
    engine.run()
    oracle = Interpreter(image, cdc)
    oracle.run()
    assert engine.outputs == oracle.outputs == [64, 64]
    # the loop fetches its sealed immediates 64 times each
    assert 0 < len(engine.opened) <= len(pcs)
    assert 0 < len(oracle.literals) <= len(pcs)
    for sealed, block in engine.opened.items():
        assert block == cdc.decrypt(sealed)
        assert oracle.literals[sealed] == block & 0xFFFFFFFF


def test_tlb_has_one_entry_per_padded_address():
    cdc = Codec(KEY)
    # a cache a quarter the sweep's size: every load misses, every pass
    engine = Engine(assemble(sweep_source(64, 4), cdc), cdc, cache_entries=16)
    engine.run()
    mem = engine.mem
    assert mem.cache.read_misses == 4 * 64
    # the sweep's 64 word addresses, each under the pads of its first pass
    entries = mem.tlb.entries
    assert sorted(ea & 0xFFFFFFFF for ea in entries) \
        == list(range(256, 256 + 4 * 64, 4))
    assert list(entries.values()) == list(range(mem.tlb.base,
                                                mem.tlb.base + 64))
    # the dump's TLB holds each key's ciphertext, in allocation order
    _, tlb = mem.physical_view()
    assert [(cdc.decrypt(cipher), index) for cipher, index in tlb.items()] \
        == list(entries.items())


def _run_peak(machine):
    """The tracemalloc peak of machine.run(), counting only what the run
    allocates."""
    tracemalloc.start()
    try:
        machine.run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_long_runs_use_bounded_memory():
    cdc = Codec(KEY)
    source = (ROOT / "bench" / "is_add_test.s").read_text()
    assert source.count("l.addi  r2, r0, 64") == 2     # both round counters
    peaks = {}
    for rounds in (64, 256):
        image = assemble(source.replace("l.addi  r2, r0, 64",
                                        "l.addi  r2, r0, %d" % rounds), cdc)
        engine = Engine(image, cdc)
        oracle = Interpreter(image, cdc)
        peaks[rounds] = (_run_peak(engine), _run_peak(oracle))
        assert engine.outputs == oracle.outputs == [rounds, rounds]
    for short, long in zip(peaks[64], peaks[256]):
        assert abs(long - short) <= PEAK_MARGIN, peaks


class CountingCodec(Codec):
    def __init__(self, key):
        super().__init__(key)
        self.encrypts = self.decrypts = 0

    def encrypt(self, block):
        self.encrypts += 1
        return super().encrypt(block)

    def decrypt(self, block):
        self.decrypts += 1
        return super().decrypt(block)


def test_an_address_is_encrypted_once():
    cdc = CountingCodec(KEY)
    mem = MemorySystem(cdc, user_words=8, cache_entries=1)
    addresses = [(0x1234 << 32) | (4 * i) for i in range(3)]
    for rnd in range(4):
        for ea in addresses:
            mem.user_store(ea, (0x77 << 32) | rnd)
    loads = [mem.user_load(ea) for ea in addresses]
    # the one-line cache holds the last store; the other two go to memory
    assert loads == [((0x77 << 32) | 3, hit) for hit in (False, False, True)]
    assert (cdc.encrypts, cdc.decrypts) == (0, 1)   # the blank block
    # the physical view encrypts each address and each written cell once
    cells, tlb = mem.physical_view()
    assert (cdc.encrypts, cdc.decrypts) == (6, 1)
    assert [cdc.decrypt(cipher) for cipher in tlb] == addresses
    assert [cdc.decrypt(cells[index]) for index in tlb.values()] \
        == [(0x77 << 32) | 3] * 3


def test_the_user_data_path_makes_no_cipher_op():
    cdc = CountingCodec(KEY)
    image = assemble(sweep_source(64, 4), cdc)
    # a cache a quarter the sweep's size: every load misses, every pass
    engine = Engine(image, cdc, cache_entries=16)
    assert cdc.decrypts == 1               # the blank block, worked out once
    cdc.encrypts = cdc.decrypts = 0
    engine.run()
    assert engine.mem.cache.read_misses == 4 * 64
    # none per address, load or store
    assert (cdc.encrypts, cdc.decrypts) == (0, 0)
    # the dump's view encrypts each of the 64 cells and 64 TLB keys once
    engine_view(engine)
    assert (cdc.encrypts, cdc.decrypts) == (64 + 64, 0)


def test_tlb_exhaustion_is_unchanged(tmp_path, capsys):
    src = tmp_path / "sweep.s"
    img = tmp_path / "sweep.img"
    src.write_text(sweep_source(5, 1))
    assert main(["asm", str(src), "-o", str(img)]) == 0
    capsys.readouterr()
    assert main(["run", str(img), "--user-words", "4", "--trace"]) == 1
    out, err = capsys.readouterr()
    assert err == "kpu run: fault: user physical range exhausted " \
        "after 4 words\n"
    # the fifth distinct address faults in the same cycle as before
    assert out.splitlines()[-1].startswith("cycle %d |" % FAULT_CYCLE)
