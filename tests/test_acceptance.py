"""Acceptance gate: ten go/no-go checks over the whole stack.

Each test prints exactly one verdict line (run pytest -s to see them all)
and then asserts it. The numbers here are commitments, not snapshots:
loosening one means the machine stopped honouring a contract.
"""

import pathlib
import random
import re
import time

import pytest

from kit import CDC, build, run_both
from kpusim import codec as codecmod
from kpusim.assembler import write_image
from kpusim.check import AliasDetected, compare, engine_view, render_dump
from kpusim.codec import feistel_round
from kpusim.core import Mode
from kpusim.frontend import render_stats
from kpusim.memsys import PhysicalExhausted, TlbMap
from kpusim.oracle import interpret
from kpusim.pipeline import Engine
from kpusim.progen import generate_source

HEAD = """.mode super
.entry boot
.org 0x100
boot:
    l.addi  r31, r0, ustart
    l.mtspr r0, r31, 32
    l.rfe
.org 0x700
    l.nop   1
.org 0xC00
    l.rfe
.org 0x4000
.encrypt on
ustart:
"""

USER_HEAD = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
"""


def _report(n, ok, detail):
    print("criterion %2d: %s  %s" % (n, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def _run(image):
    engine = Engine(image, CDC)
    engine.run()
    return engine


def test_criterion_01_reference_equivalence():
    start = time.monotonic()
    programs = 0
    for seed in range(100):
        try:
            run_both(generate_source(seed, syscalls=True), seed=seed)
        except AssertionError as failure:
            _report(1, False, "seed %d: %s" % (seed, failure))
        programs += 1
    elapsed = time.monotonic() - start
    _report(1, programs >= 100 and elapsed < 60.0,
            "%d generated programs matched the reference in %.1fs"
            % (programs, elapsed))


def test_criterion_02_block_cipher_soundness():
    rng = random.Random(2024)
    trips = 0
    for _ in range(100_000):
        block = rng.getrandbits(64)
        if CDC.decrypt(CDC.encrypt(block)) != block:
            _report(2, False, "round trip broke on 0x%016x" % block)
        trips += 1
    composed_ok = True
    for _ in range(200):
        block = rng.getrandbits(64)
        forward = block
        for k in CDC.round_keys:
            forward = feistel_round(forward, k)
        composed_ok = composed_ok and forward == CDC.encrypt(block)
    _report(2, trips == 100_000 and composed_ok,
            "%d round trips exact, per-round composition equals the block op"
            % trips)


def test_criterion_03_immediate_expansion_and_prefix_fault():
    image = build(USER_HEAD + "    l.addi r1, r0, 42\n    l.nop  1\n")
    words = sorted(image.text)
    three_wide = words == [0x4000, 0x4004, 0x4008, 0x400C]

    engine = _run(build(HEAD + """    l.addi r1, r0, 3
    .word  0x9C42FFFF
"""))
    trapped = (engine.halted and engine.state.mode is Mode.SUPERVISOR
               and engine.state.epcr == 0x400C)
    _report(3, three_wide and trapped,
            "encrypted addi spans 3 words; a bare body word traps to 0x700")


def test_criterion_04_ciphertext_containment():
    engine = _run(build(HEAD + """    l.addi r1, r0, 7
    l.addi r2, r1, 35
    .word  0x9C42FFFF
"""))
    st = engine.state
    checked = 0
    for i in range(1, 32):
        shadow = st.shadow[i]
        if shadow == 0 or codecmod.is_decrypted_address(shadow):
            continue
        if st.regs[i] == shadow or CDC.decrypt(st.regs[i]) != shadow:
            _report(4, False, "r%d leaks plaintext into the real bank" % i)
        checked += 1
    _report(4, checked >= 2,
            "%d flushed registers hold ciphertext that decrypts to the shadow"
            % checked)


def test_criterion_05_flag_protocol():
    engine, _ = run_both(HEAD.replace(".org 0xC00\n    l.rfe",
                                     """.org 0xC00
    l.addi  r30, r0, 1
    l.sfeq  r30, r0
    l.rfe""") + """    l.addi r20, r0, 1234
    l.sfeq r0, r0
    l.sys  0
    l.bf   good
    l.addi r20, r0, 0
good:
    l.add  r3, r20, r0
    l.nop  2
    l.nop  1
""")
    _report(5, engine.outputs == [1234],
            "flags and registers survive the trap round trip (outputs %r)"
            % engine.outputs)


def test_criterion_06_load_use_gaps():
    dep, _ = run_both(HEAD + """    l.addi r1, r0, 5
    l.sw   0(r0), r1
    l.lwz  r2, 0(r0)
    l.add  r3, r2, r2
    l.nop  1
""")
    ind, _ = run_both(HEAD + """    l.addi r1, r0, 5
    l.sw   0(r0), r1
    l.lwz  r2, 0(r0)
    l.add  r3, r1, r1
    l.nop  1
""")
    miss, _ = run_both(HEAD + """    l.addi r1, r0, 5
    l.sw   0(r0), r1
    l.lwz  r2, 256(r0)
    l.add  r3, r2, r2
    l.nop  1
""")
    hit_gap = (dep.stats.mode(Mode.USER).cycles
               - ind.stats.mode(Mode.USER).cycles)
    miss_gap = (miss.stats.mode(Mode.USER).cycles
                - ind.stats.mode(Mode.USER).cycles)
    _report(6, hit_gap == 2 and miss_gap == 12,
            "load-use gap: %d cycles on a cache hit, %d on a miss"
            % (hit_gap, miss_gap))


def test_criterion_07_benchmark_profile():
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    source = (bench / "is_add_test.s").read_text()
    engine = _run(build(source))

    user = engine.stats.mode(Mode.USER)
    sup = engine.stats.mode(Mode.SUPERVISOR)
    user_cpi = user.cycles / user.instructions
    super_cpi = sup.cycles / sup.instructions

    closure = engine.stats.closes() and all(
        ms.instructions + ms.stalls + ms.refills == ms.cycles
        for ms in (user, sup))

    pcts = [float(m) for m in
            re.findall(r"mode \w+ : \d+ cycles \((\d+\.\d)%\)",
                       render_stats(engine))]
    pct_sum = sum(pcts)

    ok = (super_cpi <= 1.15 and 1.4 <= user_cpi <= 2.2
          and closure and abs(pct_sum - 100.0) <= 0.2
          and engine.outputs == [64, 64])
    _report(7, ok,
            "bench CPI user %.4f super %.4f, accounting closes, "
            "mode shares sum to %.1f%%" % (user_cpi, super_cpi, pct_sum))


def test_criterion_08_alias_detection():
    image = build(USER_HEAD + """    l.addi r1, r0, 100
    l.addi r2, r0, 1
    l.sw   0(r1), r2
    l.addi r3, r0, 100
    l.addi r4, r0, 2
    l.sw   0(r3), r4
    l.nop  1
""")
    view = engine_view(_run(image))
    cells = len(view.tlb)
    result = interpret(image, CDC)
    raised = False
    try:
        compare(view, result, CDC)
    except AliasDetected:
        raised = True
    _report(8, cells == 2 and raised,
            "one logical address spread over %d physical cells and the "
            "checker refused it" % cells)


def test_criterion_09_determinism():
    source = HEAD + """    l.addi r1, r0, 7
    l.addi r2, r1, 35
    l.sw   0(r0), r2
    l.lwz  r3, 0(r0)
    l.nop  2
    l.nop  1
"""
    snapshots = []
    for _ in range(2):
        image = build(source)
        engine = _run(image)
        snapshots.append((write_image(image),
                          render_dump(engine_view(engine)),
                          render_stats(engine)))
    _report(9, snapshots[0] == snapshots[1],
            "image, dump and stats are byte-identical across rebuilds")


def test_criterion_10_physical_memory_discipline():
    tlb = TlbMap(1000, 8)
    order = [tlb.translate(c) for c in (0x500, 0x30, 0x7FF0, 0x500, 0x30)]
    fcfs = order == [1000, 1001, 1002, 1000, 1001]

    image = build(USER_HEAD + """    l.addi r1, r0, 0
    l.sw   0(r1), r1
    l.sw   4(r1), r1
    l.sw   8(r1), r1
    l.sw   12(r1), r1
    l.sw   16(r1), r1
    l.nop  1
""")
    engine = Engine(image, CDC, user_words=4)
    with pytest.raises(PhysicalExhausted):
        engine.run()
    _report(10, fcfs,
            "cells are handed out first-come first-served and the range "
            "exhausts loudly")
