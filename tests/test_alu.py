"""alu.execute against a reference copy written with signed conversions.

The add and sub overflow flags are computed from sign bits. The reference
below states every operation the long way, through to_signed, and both
must agree on every op for edge operands crossed with each other and for
seeded random pairs.
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


def reference_execute(op, a, b):
    s = alu.to_signed
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
    for a, b in pairs():
        got = alu.execute(op, a, b)
        want = reference_execute(op, a, b)
        # bool flags, not 0/1: the oracle's flags dict is compared whole
        assert got == want and all(type(v) is bool for v in got[1].values()), \
            (op, hex(a), hex(b), got, want)


def test_overflow_needs_both_signs_wrong():
    assert alu.execute(alu.OP_ADD, 0x80000000, 0x80000000) == (
        0, {"cy": True, "ov": True})
    assert alu.execute(alu.OP_ADD, 0x7FFFFFFF, 0x80000000) == (
        MASK32, {"cy": False, "ov": False})
    assert alu.execute(alu.OP_SUB, 0x7FFFFFFF, 0xFFFFFFFF) == (
        0x80000000, {"cy": True, "ov": True})
    assert alu.execute(alu.OP_SUB, 0xFFFFFFFF, 0x7FFFFFFF) == (
        0x80000000, {"cy": False, "ov": False})
