"""32-bit operation semantics shared by the pipeline and the reference
interpreter, so both sides pin identical flag and corner-case conventions.

Each operation and each set-flag comparison is one kernel over 32-bit
operands, the only place its result and flag rule is written. A machine
looks a kernel up by its code once, when it makes the record of a pc,
and calls it directly from then on; a caller that holds wider values
(the engine's padded blocks and 64-bit supervisor registers) masks them
to 32 bits first."""

from operator import eq, ne

from .codec import MASK32

# Operation ids; also the provenance codes mixed into result paddings. The
# first ten are the funct codes of isa's register-register ALU rows.
OP_ADD, OP_SUB, OP_AND, OP_OR, OP_XOR = 0, 1, 2, 3, 4
OP_MUL, OP_DIVU, OP_SLL, OP_SRL, OP_SRA = 5, 6, 7, 8, 9
OP_ADDR = 10    # effective-address computation
OP_MFSPR = 11   # special-register read materialized in user mode

# Set-flag comparisons (signed where it matters); isa's set-flag rows
# hold them as their sub-operation.
SF_EQ, SF_NE, SF_GTS, SF_GES, SF_LTS, SF_LES = 0, 1, 2, 3, 4, 5

SIGN32 = 0x80000000


class Effects(dict):
    """Flag effects, read-only as every caller shares them; a dict to read."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("flag effects are shared and read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = \
        setdefault = update = _read_only


# What a kernel returns: NO_EFFECTS, CY_OV[cy][ov] or, for divu, OV[ov],
# indexed by ints, as a bool index misses CPython's tuple fast path.
NO_EFFECTS = Effects()
CY_OV = tuple(tuple(Effects(cy=cy, ov=ov) for ov in (False, True))
              for cy in (False, True))
OV = (Effects(ov=False), Effects(ov=True))


# ALU kernels: kernel(a, b) -> (result, effects) for 32-bit a and b, where
# effects, a shared read-only Effects, holds only the flags the operation
# writes, keyed "cy"/"ov". Conventions pinned here:
#   add/sub   set CY (carry/borrow out) and OV (signed overflow)
#   mul       sets CY on unsigned overflow, OV on signed overflow
#   divu      by zero yields 0xFFFFFFFF and sets OV; otherwise clears OV
#   logic and shifts leave flags alone
#   address arithmetic (OP_ADDR) is an add with no flag effects

def _add(a, b):
    full = a + b
    res = full & MASK32
    # carry out; operands of one sign, result of the other
    return res, CY_OV[full >> 32][((a ^ res) & (b ^ res)) >> 31]


def _sub(a, b):
    res = (a - b) & MASK32
    # borrow; operands of opposite signs, result not of the minuend's
    return res, CY_OV[(a - b) >> 32 & 1][((a ^ b) & (a ^ res)) >> 31]


def _mul(a, b):
    full = a * b
    # carry; overflow: the signed product plus 2**31 leaves [0, 2**32)
    signed = ((a ^ SIGN32) - SIGN32) * ((b ^ SIGN32) - SIGN32) + SIGN32
    return full & MASK32, CY_OV[full >> 32 and 1][signed >> 32 and 1]


def _divu(a, b):
    return (MASK32, OV[1]) if b == 0 else (a // b, OV[0])


_KERNELS = {
    OP_ADD: _add, OP_SUB: _sub, OP_MUL: _mul, OP_DIVU: _divu,
    OP_AND: lambda a, b: (a & b, NO_EFFECTS),
    OP_OR: lambda a, b: (a | b, NO_EFFECTS),
    OP_XOR: lambda a, b: (a ^ b, NO_EFFECTS),
    OP_SLL: lambda a, b: ((a << (b & 31)) & MASK32, NO_EFFECTS),
    OP_SRL: lambda a, b: (a >> (b & 31), NO_EFFECTS),
    # a 32-bit value less 2**32 where its sign bit is set: its signed value
    OP_SRA: lambda a, b: ((((a ^ SIGN32) - SIGN32) >> (b & 31)) & MASK32,
                          NO_EFFECTS),
    OP_ADDR: lambda a, b: ((a + b) & MASK32, NO_EFFECTS),
}

# Set-flag kernels: flag(a, b) -> bool for 32-bit a and b. The signed ones
# flip the sign bit, which keeps the signed order, and compare.
_FLAG_KERNELS = {
    SF_EQ: eq, SF_NE: ne,
    SF_GTS: lambda a, b: a ^ SIGN32 > b ^ SIGN32,
    SF_GES: lambda a, b: a ^ SIGN32 >= b ^ SIGN32,
    SF_LTS: lambda a, b: a ^ SIGN32 < b ^ SIGN32,
    SF_LES: lambda a, b: a ^ SIGN32 <= b ^ SIGN32,
}


def kernel(op):
    """The kernel of ALU operation `op`, an OP_* id."""
    found = _KERNELS.get(op)
    if found is None:
        raise ValueError("unknown ALU op %r" % op)
    return found


def flag_kernel(sub):
    """The kernel of set-flag comparison `sub`, an SF_* code."""
    found = _FLAG_KERNELS.get(sub)
    if found is None:
        raise ValueError("unknown set-flag sub-op %d" % sub)
    return found


def execute(op, a, b):
    """Apply operation `op` to a and b, masked to 32 bits, by its code.
    The machines bind kernels instead and do not call it; it is the
    by-code form for a one-off operation, and perfbench's tracer wraps it
    by this name."""
    return kernel(op)(a & MASK32, b & MASK32)
