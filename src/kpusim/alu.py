"""32-bit operation semantics shared by the pipeline and the reference
interpreter, so both sides pin identical flag and corner-case conventions."""

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


# What execute returns: NO_EFFECTS, CY_OV[cy][ov] or, for divu, OV[ov],
# indexed by ints, as a bool index misses CPython's tuple fast path.
NO_EFFECTS = Effects()
CY_OV = tuple(tuple(Effects(cy=cy, ov=ov) for ov in (False, True))
              for cy in (False, True))
OV = (Effects(ov=False), Effects(ov=True))


def to_signed(x):
    x &= MASK32
    return x - (1 << 32) if x & SIGN32 else x


def execute(op, a, b):
    """Apply one 32-bit operation.

    Returns (result, effects) where effects, a shared read-only Effects,
    holds only the flags the operation writes, keyed "cy"/"ov". Conventions
    pinned here:
      add/sub   set CY (carry/borrow out) and OV (signed overflow)
      mul       sets CY on unsigned overflow, OV on signed overflow
      divu      by zero yields 0xFFFFFFFF and sets OV; otherwise clears OV
      logic and shifts leave flags alone
      address arithmetic (OP_ADDR) is an add with no flag effects
    """
    a &= MASK32
    b &= MASK32
    if op == OP_ADD:
        full = a + b
        res = full & MASK32
        # carry out; operands of one sign, result of the other
        return res, CY_OV[full >> 32][((a ^ res) & (b ^ res)) >> 31]
    if op == OP_ADDR:
        return (a + b) & MASK32, NO_EFFECTS
    if op == OP_SUB:
        res = (a - b) & MASK32
        # borrow; operands of opposite signs, result not of the minuend's
        return res, CY_OV[(a - b) >> 32 & 1][((a ^ b) & (a ^ res)) >> 31]
    if op == OP_AND:
        res = a & b
    elif op == OP_OR:
        res = a | b
    elif op == OP_XOR:
        res = a ^ b
    elif op == OP_MUL:
        full = a * b
        # carry; overflow: the signed product plus 2**31 leaves [0, 2**32)
        signed = to_signed(a) * to_signed(b) + SIGN32
        return full & MASK32, CY_OV[full >> 32 and 1][signed >> 32 and 1]
    elif op == OP_DIVU:
        return (MASK32, OV[1]) if b == 0 else (a // b, OV[0])
    elif op == OP_SLL:
        res = (a << (b & 31)) & MASK32
    elif op == OP_SRL:
        res = a >> (b & 31)
    elif op == OP_SRA:
        res = (to_signed(a) >> (b & 31)) & MASK32
    else:
        raise ValueError("unknown ALU op %r" % op)
    return res, NO_EFFECTS


def compare_flag(sub, a, b):
    """Set-flag comparisons; sub is an SF_* code. The signed ones flip the
    sign bit of the low 32 bits, which keeps their order, and compare."""
    if sub == SF_EQ:
        return a == b
    if sub == SF_NE:
        return a != b
    a, b = (a & MASK32) ^ SIGN32, (b & MASK32) ^ SIGN32
    if sub == SF_GTS:
        return a > b
    if sub == SF_GES:
        return a >= b
    if sub == SF_LTS:
        return a < b
    if sub == SF_LES:
        return a <= b
    raise ValueError("unknown set-flag sub-op %d" % sub)
