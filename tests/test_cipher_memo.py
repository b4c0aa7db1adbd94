"""The cipher runs once per distinct block, and what the machines keep stays
bounded.

The engine opens each sealed immediate as it makes the pc's fetch record,
which keeps the plaintext; the oracle opens the block of each prefix pair
in the image once, all in one batch at its first user-mode record, and
folds a pc's pair and immediate into one record from that table; the
memory system keys its TLB by padded address and encrypts each key and
each written cell once, for the dump. None of these may grow with the length of
a run: the blocks opened are bounded by the program's sealed pcs, the TLB
by the distinct padded addresses, at most the user words. And a run four
times longer peaks at the same memory in either machine, each run measured
after a first run of the same machine has warmed CPython's free lists.
"""

import tracemalloc
from pathlib import Path

from kit import CDC, KEY, build, run_both, sweep_source
from kpusim import isa, pipeline
from kpusim.check import engine_view
from kpusim.codec import ROUNDS, Codec
from kpusim.core import Mode
from kpusim.frontend import main
from kpusim.isa import InstrClass
from kpusim.memsys import MemorySystem
from kpusim.oracle import Interpreter
from kpusim.pipeline import Engine

ROOT = Path(__file__).resolve().parent.parent

# Keeping one bare object() per engine cycle adds about 190 KB over the
# 6,900 cycles the longer run adds, and one per oracle step about 130 KB.
PEAK_MARGIN = 16 * 1024

# The cycle in which a one-pass sweep over five cells, given four user
# words, runs out of cells; measured while the TLB was still keyed by
# each address's ciphertext.
FAULT_CYCLE = 156


def sealed_pcs(image):
    """Immediate-class pcs right behind a prefix pair: the only places a
    user-mode immediate can be sealed."""
    def cls(pc):
        try:
            return isa.decode(image.text[pc]).cls
        except (KeyError, isa.IllegalOpcode):
            return None

    return {pc for pc in image.text if cls(pc) is InstrClass.IMMEDIATE
            and cls(pc - 8) is cls(pc - 4) is InstrClass.PREFIX}


def fetched_records(engine):
    """Run `engine` to its exit; the fetch records of the cells it
    fetched, each once."""
    records = {}
    step = engine.step

    def watching():
        step()
        record = engine.conveyor[0].record
        if record is not None:
            records[id(record)] = record

    engine.step = watching
    engine.run()
    return list(records.values())


def sealed_block(text, pc):
    """The block the prefix pair at pc - 8 and pc - 4 seals with the
    immediate at pc, read off the decoded words."""
    p0, p1 = (isa.decode(text[pc - at]).prefix_payload for at in (8, 4))
    return p0 << isa.P0_SHIFT | p1 << isa.P1_SHIFT | text[pc] & isa.LOW_MASK


def test_immediate_memos_hold_at_most_one_block_per_sealed_pc(monkeypatch):
    image = build((ROOT / "bench" / "is_add_test.s").read_text())
    pcs = sealed_pcs(image)
    rounds = []
    unround = pipeline.feistel_unround

    def counting(block, key):
        rounds.append(block)
        return unround(block, key)

    monkeypatch.setattr(pipeline, "feistel_unround", counting)
    engine = Engine(image, CDC)
    records = fetched_records(engine)
    assert engine.outputs == [64, 64]
    # the loop fetches its sealed immediates 64 times each; each user
    # record holding a block sits at a sealed pc and holds the plaintext
    # of its triple, opened once, as the record was made
    sealed = [record for record in records if record.mode is Mode.USER
              and getattr(record, "block", None) is not None]
    assert 0 < len(sealed) <= len(pcs)
    for record in sealed:
        assert record.pc in pcs
        assert record.block == CDC.decrypt(sealed_block(image.text,
                                                        record.pc))
    assert len(rounds) == ROUNDS * len(sealed)
    # the oracle opens each sealed pc's block once, in one batch
    cdc = CountingCodec(KEY)
    oracle = Interpreter(image, cdc)
    cdc.decrypts = 0
    oracle.run()
    assert oracle.outputs == [64, 64]
    assert 0 < cdc.decrypts <= len(pcs)


def test_tlb_has_one_entry_per_padded_address():
    # a cache a quarter the sweep's size: every load misses, every pass
    engine, _ = run_both(sweep_source(64, 4), cache_entries=16)
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
    assert [(CDC.decrypt(cipher), index) for cipher, index in tlb.items()] \
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
    source = (ROOT / "bench" / "is_add_test.s").read_text()
    assert source.count("l.addi  r2, r0, 64") == 2     # both round counters
    peaks = {}
    for rounds in (64, 256):
        image = build(source.replace("l.addi  r2, r0, 64",
                                     "l.addi  r2, r0, %d" % rounds))
        # a run untraced first, so that both measured runs start from the
        # free lists it leaves, whatever ran before in the process
        Engine(image, CDC).run()
        Interpreter(image, CDC).run()
        engine = Engine(image, CDC)
        oracle = Interpreter(image, CDC)
        peaks[rounds] = (_run_peak(engine), _run_peak(oracle))
        assert engine.outputs == oracle.outputs == [rounds, rounds]
    for short, long in zip(peaks[64], peaks[256]):
        assert abs(long - short) <= PEAK_MARGIN, peaks


class CountingCodec(Codec):
    """Counts the blocks ciphered, one by one or in a batch: a batch
    counts its blocks once, whichever routine ciphers them."""

    def __init__(self, key):
        super().__init__(key)
        self.encrypts = self.decrypts = 0

    def encrypt(self, block):
        self.encrypts += 1
        return super().encrypt(block)

    def decrypt(self, block):
        self.decrypts += 1
        return super().decrypt(block)

    def encrypt_many(self, blocks):
        encrypts = self.encrypts + len(blocks)
        ciphers = super().encrypt_many(blocks)
        self.encrypts = encrypts
        return ciphers

    def decrypt_many(self, blocks):
        decrypts = self.decrypts + len(blocks)
        plains = super().decrypt_many(blocks)
        self.decrypts = decrypts
        return plains


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
    image = build(sweep_source(64, 4))
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
