"""Reference interpreter semantics and the machine/reference diff."""

import random

import pytest

from kit import CDC, build, run_both
from kpusim import alu, isa
from kpusim.assembler import Image
from kpusim.check import (AliasDetected, compare, engine_view, parse_sim_dump,
                          render_dump)
from kpusim.core import BudgetExhausted, Mode
from kpusim.isa import InstrClass
from kpusim.oracle import Interpreter, interpret
from kpusim.pipeline import Engine
from kpusim.progen import generate_source

SUPER_HEAD = """.mode super
.entry start
.org 0x100
start:
"""

USER_HEAD = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
"""


def run_super(body):
    return interpret(build(SUPER_HEAD + body), CDC)


def run_user(body):
    return interpret(build(USER_HEAD + body), CDC)


# -------------------------------------------------------------------- alu --

def test_add_sub_flags():
    assert alu.execute(alu.OP_ADD, 0xFFFFFFFF, 1) == (0, {"cy": True, "ov": False})
    assert alu.execute(alu.OP_ADD, 0x7FFFFFFF, 1) == (0x80000000,
                                                      {"cy": False, "ov": True})
    assert alu.execute(alu.OP_SUB, 0, 1) == (0xFFFFFFFF,
                                             {"cy": True, "ov": False})
    assert alu.execute(alu.OP_SUB, 0x80000000, 1) == (0x7FFFFFFF,
                                                      {"cy": False, "ov": True})


def test_mul_flags():
    assert alu.execute(alu.OP_MUL, 3, 4) == (12, {"cy": False, "ov": False})
    assert alu.execute(alu.OP_MUL, 1 << 16, 1 << 16) == (0, {"cy": True, "ov": True})
    # (-1) * (-1) overflows unsigned but not signed
    assert alu.execute(alu.OP_MUL, 0xFFFFFFFF, 0xFFFFFFFF) == (
        1, {"cy": True, "ov": False})


def test_divu_convention():
    assert alu.execute(alu.OP_DIVU, 7, 2) == (3, {"ov": False})
    assert alu.execute(alu.OP_DIVU, 7, 0) == (0xFFFFFFFF, {"ov": True})


def test_logic_and_shifts_leave_flags_alone():
    assert alu.execute(alu.OP_AND, 0xF0F0, 0xFF00) == (0xF000, {})
    assert alu.execute(alu.OP_SLL, 1, 33) == (2, {})      # amount mod 32
    assert alu.execute(alu.OP_SRL, 0x80000000, 31) == (1, {})
    assert alu.execute(alu.OP_SRA, 0x80000000, 31) == (0xFFFFFFFF, {})
    assert alu.execute(alu.OP_ADDR, 0xFFFFFFFF, 2) == (1, {})


def test_compare_flag_is_signed():
    flag = alu.flag_kernel
    assert flag(alu.SF_EQ)(5, 5)
    assert flag(alu.SF_NE)(5, 6)
    assert not flag(alu.SF_GTS)(0xFFFFFFFF, 1)      # -1 > 1 is false
    assert flag(alu.SF_LTS)(0xFFFFFFFF, 1)          # -1 < 1
    assert flag(alu.SF_GES)(7, 7)
    assert flag(alu.SF_LES)(0x80000000, 0)          # INT_MIN <= 0


# ----------------------------------------------------------- interpreter --

def test_straight_line_program():
    res = run_super("""    l.addi r5, r0, 7
    l.addi r5, r5, 35
    l.nop  1
""")
    assert res.regs[5] == 42
    assert res.steps == 3


def test_wraparound_sets_carry():
    res = run_super("""    l.addi r5, r0, -1
    l.addi r5, r5, 1
    l.nop  1
""")
    assert res.regs[5] == 0
    assert res.flags["cy"] is True


def test_divide_by_zero_in_a_program():
    res = run_super("""    l.addi r1, r0, 9
    l.divu r3, r1, r0
    l.nop  1
""")
    assert res.regs[3] == 0xFFFFFFFF
    assert res.flags["ov"] is True


def test_signed_branching():
    res = run_super("""    l.addi r1, r0, -5
    l.addi r2, r0, 3
    l.sflts r1, r2
    l.bf   less
    l.addi r4, r0, 0
    l.nop  1
less:
    l.addi r4, r0, 1
    l.nop  1
""")
    assert res.regs[4] == 1


def test_xori_sign_extends():
    res = run_super("""    l.addi r1, r0, 5
    l.xori r2, r1, -1
    l.nop  1
""")
    assert res.regs[2] == (5 ^ 0xFFFFFFFF)


def test_andi_ori_use_raw_bits():
    res = run_super("""    l.addi r1, r0, -1
    l.andi r2, r1, 0xFF00
    l.ori  r3, r0, 0x8000
    l.nop  1
""")
    assert res.regs[2] == 0xFF00
    assert res.regs[3] == 0x8000


def test_user_memory_map():
    res = run_user("""    l.addi r1, r0, 100
    l.addi r2, r0, 1234
    l.sw   0(r1), r2
    l.sw   8(r1), r2
    l.lwz  r3, 0(r1)
    l.nop  1
""")
    assert res.user_mem == {100: 1234, 108: 1234}
    assert res.regs[3] == 1234


def test_uninitialized_user_load_reads_the_blank_pattern():
    engine, res = run_both(USER_HEAD + """    l.lwz  r3, 0(r0)
    l.add  r3, r3, r0
    l.nop  2
    l.nop  1
""")
    blank = CDC.decrypt(0) & 0xFFFFFFFF
    assert res.regs[3] == blank
    assert engine.outputs == [blank]


def test_class64_truncates_to_the_oracle_domain():
    res = run_super("""    l.addi r1, r0, -1
    l.addi r2, r0, 1
    l.add64 r3, r1, r2
    l.addi r10, r0, 0x800
    l.sd   0(r10), r1
    l.ld   r4, 0(r10)
    l.nop  1
""")
    assert res.regs[3] == 0          # 32-bit wrap, not a 64-bit sum
    assert res.regs[4] == 0xFFFFFFFF
    assert res.super_cells[0x800 // 8] == 0xFFFFFFFF


def test_user_class64_traps():
    image = build(USER_HEAD + """    l.add64 r3, r1, r2
    l.nop  1
""")
    image.text[0x700] = image.text[max(image.text)]      # plant l.nop 1
    itp = Interpreter(image, CDC)
    itp.run()
    assert itp.mode is Mode.SUPERVISOR
    assert itp.epcr == 0x4000


def test_missing_prefix_traps():
    image = build(USER_HEAD + """    l.addi r1, r0, 3
    .word  0x9C42FFFF
    l.nop  1
""")
    image.text[0x700] = image.text[max(image.text)]
    itp = Interpreter(image, CDC)
    itp.run()
    assert itp.mode is Mode.SUPERVISOR
    assert itp.epcr == 0x400C


def test_syscall_saves_and_restores_flags():
    source = """.mode super
.entry boot
.org 0x100
boot:
    l.addi  r31, r0, ustart
    l.mtspr r0, r31, 32
    l.rfe
.org 0xC00
    l.addi  r30, r0, 1     # scratch work that would disturb flags
    l.sfeq  r30, r0
    l.rfe
.org 0x4000
.encrypt on
ustart:
    l.addi r20, r0, 1234
    l.sfeq r0, r0
    l.sys  0
    l.bf   good
    l.addi r20, r0, 0
good:
    l.add  r3, r20, r0
    l.nop  2
    l.nop  1
"""
    res = interpret(build(source), CDC)
    assert res.outputs == [1234]
    assert res.regs[20] == 1234


def test_max_steps_guard():
    with pytest.raises(BudgetExhausted):
        interpret(build(SUPER_HEAD + "    l.j start\n"), CDC, max_steps=100)


SEALED_PAIR = USER_HEAD + """    l.addi  r1, r0, 3       # prefix, prefix, immediate at 0x4000..0x4008
    l.addi  r2, r1, 4       # and again at 0x400c..0x4014
    l.add   r3, r2, r1
    l.nop   2
    l.nop   1
"""


@pytest.mark.parametrize("limit, pc, regs", [
    (1, 0x400C, [3, 0, 0]),     # stops before the second pair
    (2, 0x4018, [3, 7, 0]),     # stops right after the pair's immediate
])
def test_step_limit_after_a_prefix_pair(limit, pc, regs):
    itp = Interpreter(build(SEALED_PAIR), CDC)
    with pytest.raises(BudgetExhausted,
                       match="^no exit within a budget of %d$" % limit):
        itp.run(max_steps=limit)
    # the prefixes ran but are not steps, and left the latch empty
    assert itp.steps == limit
    assert itp.pc == pc
    assert itp.regs[1:4] == regs
    assert itp.latch.p0 is None and itp.latch.p1 is None


@pytest.mark.parametrize("mode", ["super", "user"])
def test_every_decodable_class_dispatches_to_a_handler(mode):
    # one word of each row, alone at 0x4000: the interpreter steps it (a
    # prefix is no step of its own), and a row user mode may not run traps
    # to the illegal-instruction vector in both machines
    covered = set()
    for row in isa.TABLE:
        word = isa.encode_fields(row, {name: 0 for name, *_ in row.fields})
        ins = isa.decode(word)
        image = Image(entry=0x4000, mode=mode, text={0x4000: word})
        itp = Interpreter(image, CDC)
        itp.step()
        assert itp.steps == (ins.cls is not InstrClass.PREFIX), row.mnemonic
        covered.add(ins.cls)
        if mode == "user" and isa.user_illegal(ins):
            engine = Engine(image, CDC)
            while engine.stats.instructions == 0:
                engine.step()
            for state in (itp, engine.state):
                assert (state.mode, state.pc, state.epcr) == \
                    (Mode.SUPERVISOR, 0x700, 0x4000), row.mnemonic
    assert covered == set(InstrClass)


def test_steps_count_logical_instructions():
    engine, res = run_both(USER_HEAD + """    l.addi r1, r0, 7
    l.addi r2, r1, 35
    l.sw   0(r0), r2
    l.lwz  r3, 0(r0)
    l.nop  2
    l.nop  1
""")
    prefixes = sum(engine.stats.mode(m).completions[InstrClass.PREFIX]
                   for m in Mode)
    assert prefixes == 4
    assert res.steps == 6
    assert engine.stats.instructions - prefixes == res.steps


def test_the_pc_wraps_from_the_last_word_to_0():
    # the successor of the word at 0xfffffffc is pc 0, which is a pc like
    # any other and not "no successor"
    def word(mnemonic, **fields):
        return isa.encode_fields(isa.MNEMONICS[mnemonic], fields)
    text = {0xFFFFFFF8: word("l.addi", rd=3, ra=0, imm=5),
            0xFFFFFFFC: word("l.addi", rd=3, ra=3, imm=2),
            0x0: word("l.nop", imm=2), 0x4: word("l.nop", imm=1)}
    image = Image(entry=0xFFFFFFF8, mode="super", text=text)
    # step() runs one record a call, so four calls reach the exit; a 0 taken
    # for "no successor" would leave the pc at 0xfffffffc, and no budget
    # ends a run whose steps do not count
    itp = Interpreter(image, CDC)
    for _ in range(4):
        itp.step()
    assert itp.halted and itp.outputs == [7]
    engine, res = run_both(image)
    assert engine.outputs == res.outputs == [7]
    assert res.steps == 4


# ---------------------------------------------------------------- compare --

def test_compare_clean_then_perturbed():
    engine, res = run_both(USER_HEAD + """    l.addi r1, r0, 100
    l.addi r2, r0, 55
    l.sw   0(r1), r2
    l.nop  1
""")
    view = engine_view(engine)

    res.regs[2] ^= 1
    problems = compare(view, res, CDC)
    assert len(problems) == 1 and problems[0].startswith("r2:")
    res.regs[2] ^= 1

    res.user_mem[100] ^= 0xFF
    problems = compare(view, res, CDC)
    assert len(problems) == 1 and problems[0].startswith("memory 0x00000064:")
    res.user_mem[100] ^= 0xFF

    res.user_mem[0x500] = 7
    problems = compare(view, res, CDC)
    assert any("missing from machine" in p for p in problems)
    del res.user_mem[0x500]

    res.outputs.append(1)
    problems = compare(view, res, CDC)
    assert any(p.startswith("outputs:") for p in problems)


def test_divergent_pads_raise_alias():
    image = build(USER_HEAD + """    l.addi r1, r0, 100
    l.addi r2, r0, 1
    l.sw   0(r1), r2
    l.addi r3, r0, 100
    l.addi r4, r0, 2
    l.sw   0(r3), r4
    l.nop  1
""")
    engine = Engine(image, CDC)
    engine.run()
    view = engine_view(engine)
    assert len(view.tlb) == 2        # same logical address, two cells
    with pytest.raises(AliasDetected):
        compare(view, interpret(image, CDC), CDC)


def test_same_value_alias_is_benign():
    engine, _ = run_both(USER_HEAD + """    l.addi r1, r0, 100
    l.addi r2, r0, 9
    l.sw   0(r1), r2
    l.addi r3, r0, 100
    l.sw   0(r3), r2
    l.nop  1
""")
    assert len(engine_view(engine).tlb) == 2


def test_dump_round_trip():
    engine, res = run_both(USER_HEAD + """    l.addi r1, r0, 64
    l.sw   0(r1), r1
    l.add  r3, r1, r1
    l.nop  2
    l.nop  1
""")
    view = engine_view(engine)
    text = render_dump(view)
    back = parse_sim_dump(text)
    assert back.mode == view.mode
    assert back.regs_real == view.regs_real
    assert back.regs_shadow == view.regs_shadow
    assert back.cells == view.cells
    assert back.tlb == view.tlb
    assert back.outputs == view.outputs
    assert compare(back, res, CDC) == []


def test_generated_programs_match_the_machine():
    rng = random.Random(77)
    for _ in range(6):
        seed = rng.randrange(1 << 12)
        run_both(generate_source(seed, syscalls=True), seed=seed)


@pytest.mark.parametrize("machine", [Engine, Interpreter])
def test_an_image_runs_in_user_or_super_mode_only(machine):
    # both machines take the image's mode as a Mode; there is no fallback
    with pytest.raises(ValueError):
        machine(Image(mode="kernel"), CDC)
