"""alu's kernels against reference copies written with signed
conversions.

The add and sub overflow flags are computed from sign bits, and the signed
comparisons from flipped sign bits. The references below state every
operation the long way, through to_signed, and every ALU kernel, every
set-flag kernel and alu.execute must agree with them for edge operands
crossed with each other and for seeded random pairs.
"""

import random

import pytest

from kpusim import alu
from kpusim.codec import MASK32

EDGES = (0, 1, 2, 0x7FFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001,
         0xFFFFFFFE, 0xFFFFFFFF, 0x0000FFFF, 0x00010000, 31, 32, 33)

OPS = (alu.OP_ADD, alu.OP_SUB, alu.OP_AND, alu.OP_OR, alu.OP_XOR,
       alu.OP_MUL, alu.OP_DIVU, alu.OP_SLL, alu.OP_SRL, alu.OP_SRA,
       alu.OP_ADDR)


def to_signed(x):
    return x - (1 << 32) if x & alu.SIGN32 else x


def reference_execute(op, a, b):
    s = to_signed
    a &= MASK32
    b &= MASK32
    effects = {}
    if op == alu.OP_ADD or op == alu.OP_ADDR:
        full = a + b
        res = full & MASK32
        if op == alu.OP_ADD:
            effects["cy"] = full > MASK32
            effects["ov"] = (s(a) + s(b)) != s(res)
    elif op == alu.OP_SUB:
        res = (a - b) & MASK32
        effects["cy"] = a < b
        effects["ov"] = (s(a) - s(b)) != s(res)
    elif op == alu.OP_AND:
        res = a & b
    elif op == alu.OP_OR:
        res = a | b
    elif op == alu.OP_XOR:
        res = a ^ b
    elif op == alu.OP_MUL:
        full = a * b
        res = full & MASK32
        effects["cy"] = full > MASK32
        effects["ov"] = not (-(1 << 31) <= s(a) * s(b) < (1 << 31))
    elif op == alu.OP_DIVU:
        if b == 0:
            res = MASK32
            effects["ov"] = True
        else:
            res = a // b
            effects["ov"] = False
    elif op == alu.OP_SLL:
        res = (a << (b & 31)) & MASK32
    elif op == alu.OP_SRL:
        res = a >> (b & 31)
    else:
        res = (s(a) >> (b & 31)) & MASK32
    return res, effects


def pairs():
    rng = random.Random(20150)
    yield from ((a, b) for a in EDGES for b in EDGES)
    for _ in range(3000):
        yield rng.getrandbits(32), rng.getrandbits(32)


@pytest.mark.parametrize("op", OPS)
def test_execute_equals_the_reference(op):
    kernel = alu.kernel(op)
    high = random.Random(op)
    for a, b in pairs():
        got = kernel(a, b)
        want = reference_execute(op, a, b)
        # bool flags, not 0/1: the oracle's flags dict is compared whole
        assert got == want and all(type(v) is bool for v in got[1].values()), \
            (op, hex(a), hex(b), got, want)
        # execute takes wider operands and masks them to 32 bits
        assert alu.execute(op, high.getrandbits(32) << 32 | a,
                           high.getrandbits(32) << 32 | b) == got


@pytest.mark.parametrize("op", [-1, alu.OP_MFSPR, 12])
def test_kernel_rejects_an_unknown_code(op):
    # OP_MFSPR is a padding provenance code only: no operation runs under it
    with pytest.raises(ValueError, match=r"^unknown ALU op %d$" % op):
        alu.kernel(op)
    with pytest.raises(ValueError, match=r"^unknown ALU op %d$" % op):
        alu.execute(op, 1, 2)


def test_overflow_needs_both_signs_wrong():
    add, sub = alu.kernel(alu.OP_ADD), alu.kernel(alu.OP_SUB)
    assert add(0x80000000, 0x80000000) == (0, {"cy": True, "ov": True})
    assert add(0x7FFFFFFF, 0x80000000) == (MASK32, {"cy": False, "ov": False})
    assert sub(0x7FFFFFFF, 0xFFFFFFFF) == (0x80000000,
                                          {"cy": True, "ov": True})
    assert sub(0xFFFFFFFF, 0x7FFFFFFF) == (0x80000000,
                                          {"cy": False, "ov": False})


SF_REFERENCE = {
    alu.SF_EQ: lambda a, b: a == b,
    alu.SF_NE: lambda a, b: a != b,
    alu.SF_GTS: lambda a, b: to_signed(a) > to_signed(b),
    alu.SF_GES: lambda a, b: to_signed(a) >= to_signed(b),
    alu.SF_LTS: lambda a, b: to_signed(a) < to_signed(b),
    alu.SF_LES: lambda a, b: to_signed(a) <= to_signed(b),
}


@pytest.mark.parametrize("sub", sorted(SF_REFERENCE))
def test_compare_flag_equals_the_reference(sub):
    kernel, want = alu.flag_kernel(sub), SF_REFERENCE[sub]
    for a, b in pairs():
        got = kernel(a, b)
        assert got is want(a, b), (sub, hex(a), hex(b), got)


@pytest.mark.parametrize("sub", [-1, 6, 7])
def test_compare_flag_rejects_an_unknown_code(sub):
    with pytest.raises(ValueError, match="unknown set-flag sub-op %d" % sub):
        alu.flag_kernel(sub)


def test_flag_effects_are_shared_and_read_only():
    # the kernels hand every caller the same mapping for the same flags, so
    # a caller that could write one would change what the next add reports
    _, effects = alu.kernel(alu.OP_ADD)(1, 2)
    assert alu.kernel(alu.OP_SUB)(3, 1)[1] is effects
    _, empty = alu.kernel(alu.OP_AND)(1, 2)
    writes = [lambda e: e.__setitem__("cy", True),
              lambda e: e.__delitem__("cy"), lambda e: e.clear(),
              lambda e: e.pop("cy"), lambda e: e.popitem(),
              lambda e: e.setdefault("f", True),
              lambda e: e.update(cy=True), lambda e: e.__ior__({"cy": True})]
    for shared in (effects, empty):
        for write in writes:
            with pytest.raises(TypeError, match="shared and read-only"):
                write(shared)
    assert alu.kernel(alu.OP_ADD)(1, 2) == (3, {"cy": False, "ov": False})
    assert alu.kernel(alu.OP_XOR)(1, 2) == (3, {})
    # a caller's own flags take them as from any dict
    flags = {"f": True, "cy": True, "ov": True}
    flags.update(effects)
    assert flags == {"f": True, "cy": False, "ov": False}
