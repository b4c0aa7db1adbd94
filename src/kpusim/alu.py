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


def to_signed(x):
    x &= MASK32
    return x - (1 << 32) if x & 0x80000000 else x


def execute(op, a, b):
    """Apply one 32-bit operation.

    Returns (result, effects) where effects holds only the flags the
    operation writes, keyed "f"/"cy"/"ov". Conventions pinned here:
      add/sub   set CY (carry/borrow out) and OV (signed overflow)
      mul       sets CY on unsigned overflow, OV on signed overflow
      divu      by zero yields 0xFFFFFFFF and sets OV; otherwise clears OV
      logic and shifts leave flags alone
      address arithmetic (OP_ADDR) is an add with no flag effects
    """
    a &= MASK32
    b &= MASK32
    effects = {}
    if op == OP_ADD or op == OP_ADDR:
        full = a + b
        res = full & MASK32
        if op == OP_ADD:
            effects["cy"] = full > MASK32
            # operands of one sign, result of the other
            effects["ov"] = ((a ^ res) & (b ^ res)) >> 31 == 1
    elif op == OP_SUB:
        res = (a - b) & MASK32
        effects["cy"] = a < b
        # operands of opposite signs, result not of the minuend's sign
        effects["ov"] = ((a ^ b) & (a ^ res)) >> 31 == 1
    elif op == OP_AND:
        res = a & b
    elif op == OP_OR:
        res = a | b
    elif op == OP_XOR:
        res = a ^ b
    elif op == OP_MUL:
        full = a * b
        res = full & MASK32
        effects["cy"] = full > MASK32
        effects["ov"] = not (-(1 << 31) <= to_signed(a) * to_signed(b) < (1 << 31))
    elif op == OP_DIVU:
        if b == 0:
            res = MASK32
            effects["ov"] = True
        else:
            res = a // b
            effects["ov"] = False
    elif op == OP_SLL:
        res = (a << (b & 31)) & MASK32
    elif op == OP_SRL:
        res = a >> (b & 31)
    elif op == OP_SRA:
        res = (to_signed(a) >> (b & 31)) & MASK32
    else:
        raise ValueError("unknown ALU op %r" % op)
    return res, effects


def compare_flag(sub, a, b):
    """Set-flag comparisons; sub is an SF_* code."""
    sa, sb = to_signed(a), to_signed(b)
    if sub == SF_EQ:
        return a == b
    if sub == SF_NE:
        return a != b
    if sub == SF_GTS:
        return sa > sb
    if sub == SF_GES:
        return sa >= sb
    if sub == SF_LTS:
        return sa < sb
    if sub == SF_LES:
        return sa <= sb
    raise ValueError("unknown set-flag sub-op %d" % sub)
