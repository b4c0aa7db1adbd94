"""Checking the encrypted machine against the flat reference.

The machine's end state travels as a dump (render_dump/parse_sim_dump), the
one serialized form of an engine_view. compare() translates a finished
machine into the oracle's flat domain and diffs: the exit mode, registers
by their 32-bit values, user memory by logical address (detecting aliases,
where one logical address ended up spread over several physical cells with
different contents), debug output verbatim.

This module may read both machines; the oracle imports nothing from it, so
the answer key stays independent of what it checks.
"""

from . import isa
from .assembler import FormatError, loose_numbers, read_number, read_records
from .codec import MASK32, MASK64, word_value
from .core import open_registers
from .memsys import BLANK_CELL, blank_word


class SimView(isa.Slotted):
    """Encrypted-machine end state in serializable form."""

    __slots__ = ("mode", "regs_real", "regs_shadow", "cells", "tlb", "outputs")

    def __init__(self, mode, regs_real, regs_shadow, cells=None, tlb=None,
                 outputs=None):
        self.mode = mode
        self.regs_real = regs_real
        self.regs_shadow = regs_shadow
        self.cells = {} if cells is None else cells
        self.tlb = {} if tlb is None else tlb
        self.outputs = [] if outputs is None else outputs


def engine_view(engine):
    st = engine.state
    cells, tlb = engine.mem.physical_view()
    return SimView(st.mode.value, list(st.regs), list(st.shadow), cells, tlb,
                   list(engine.outputs))


def render_dump(view):
    lines = ["KPUDUMP 1", "MODE %s" % view.mode]
    for i in range(32):
        lines.append("REG %02d %016x %016x"
                     % (i, view.regs_real[i], view.regs_shadow[i]))
    for index in sorted(view.cells):
        if view.cells[index]:
            lines.append("PHYS %d %016x" % (index, view.cells[index]))
    for cipher, index in sorted(view.tlb.items(), key=lambda kv: kv[1]):
        lines.append("TLBMAP %016x %d" % (cipher, index))
    for value in view.outputs:
        lines.append("OUT %d" % value)
    return "\n".join(lines) + "\n"


# record -> the base of each number after the record name (MODE holds
# one word instead)
_DUMP_FIELDS = {"MODE": (None,), "REG": (10, 16, 16), "PHYS": (10, 16),
                "TLBMAP": (16, 10), "OUT": (10,)}


def _bad_number(lineno, kind, fields):
    """The error of a record whose numbers do not all read: it names the
    first field that is not an unsigned number by read_number's rule, of
    64 bits at most (an output's 32)."""
    limit = MASK32 if kind == "OUT" else MASK64
    for text, base in zip(fields[1:], _DUMP_FIELDS[kind]):
        try:
            value = read_number(text, base)
        except ValueError:
            value = -1
        if not 0 <= value <= limit:
            return FormatError(lineno, "bad number %r" % text)


def parse_sim_dump(text):
    view = SimView(mode=None, regs_real=[None] * 32, regs_shadow=[None] * 32)
    real, shadow, cells, tlb = (view.regs_real, view.regs_shadow, view.cells,
                                view.tlb)
    # parse_image's rule: one look at the whole text says whether int()
    # alone reads its numbers, or read_number must look at each
    number = read_number if loose_numbers(text) else int
    for lineno, line in read_records(text, "KPUDUMP 1", "dump"):
        fields = line.split()
        kind = fields[0]
        bases = _DUMP_FIELDS.get(kind)
        if bases is None:
            raise FormatError(lineno, "unrecognized record %r" % kind)
        if len(fields) != len(bases) + 1:
            raise FormatError(lineno, "%s takes %d fields"
                              % (kind, len(bases)))
        # render_dump writes each register, cell, cipher and the mode
        # once, so a second record for one is not a dump it wrote; a
        # record's numbers are read before its own rules are checked, and
        # x >> n is 0 for a number of n bits at most, not negative
        try:
            if kind == "REG":
                i, r, s = (number(fields[1], 10), number(fields[2], 16),
                           number(fields[3], 16))
                if (i | r | s) >> 64:
                    raise ValueError
                if i >= 32:
                    raise FormatError(lineno, "no register %d" % i)
                if real[i] is not None:
                    raise FormatError(lineno, "second REG %02d record" % i)
                real[i], shadow[i] = r, s
            elif kind == "PHYS":
                index, value = number(fields[1], 10), number(fields[2], 16)
                if (index | value) >> 64:
                    raise ValueError
                if index in cells:
                    raise FormatError(lineno, "second PHYS record for cell %d"
                                      % index)
                cells[index] = value
            elif kind == "TLBMAP":
                cipher, index = number(fields[1], 16), number(fields[2], 10)
                if (cipher | index) >> 64:
                    raise ValueError
                if cipher in tlb:
                    raise FormatError(lineno, "second TLBMAP record for %016x"
                                      % cipher)
                tlb[cipher] = index
            elif kind == "OUT":
                value = number(fields[1], 10)
                if value >> 32:
                    raise ValueError
                view.outputs.append(value)
            else:
                if fields[1] not in ("user", "super"):
                    raise FormatError(lineno, "mode must be user or super")
                if view.mode is not None:
                    raise FormatError(lineno, "second MODE record")
                view.mode = fields[1]
        except ValueError:
            raise _bad_number(lineno, kind, fields) from None
    # render_dump writes the mode and every register, so a dump without
    # one was cut short; it is not a machine whose registers all hold 0
    if view.mode is None:
        raise FormatError(len(text.splitlines()), "no MODE record")
    if None in real:
        raise FormatError(len(text.splitlines()),
                          "no REG %02d record" % real.index(None))
    return view


class AliasDetected(Exception):
    """One logical address is spread over physical cells that disagree."""


def compare(view, result, cdc):
    """Diff an encrypted-machine view against a finished Interpreter.

    Returns a list of human-readable mismatch lines; empty means the two
    agree. Raises AliasDetected if the encrypted machine's memory holds
    several inconsistent physical copies of one logical address.
    """
    problems = []
    if view.mode != result.mode.value:
        problems.append("mode: machine %s, reference %s"
                        % (view.mode, result.mode.value))
    regs = (view.regs_shadow if view.mode == "user"
            else open_registers(cdc, view.regs_real))
    for i in range(32):
        sim, ref = regs[i] & MASK32, result.regs[i] & MASK32
        if sim != ref:
            problems.append("r%d: machine 0x%08x, reference 0x%08x"
                            % (i, sim, ref))

    # every TLB key and the cell it maps to, decrypted in one batch; the
    # dump leaves out a cell that holds 0, as a blank one does
    tlb = view.tlb
    blocks = cdc.decrypt_many([*tlb, *[view.cells.get(index, BLANK_CELL)
                                       for index in tlb.values()]])
    logical = {}
    for ea_block, value in zip(blocks, blocks[len(tlb):]):
        logical.setdefault(word_value(ea_block), []).append(word_value(value))
    for addr, values in sorted(logical.items()):
        seen = set(values)
        if len(seen) > 1:
            raise AliasDetected(
                "logical address 0x%08x maps to %d cells with values %s"
                % (addr, len(values),
                   ", ".join("0x%08x" % v for v in sorted(seen))))
    blank = blank_word(cdc)
    for addr in sorted(logical.keys() | result.user_mem.keys()):
        values = logical.get(addr)
        ref = result.user_mem.get(addr)
        if values is None:
            problems.append("memory 0x%08x: missing from machine, "
                            "reference 0x%08x" % (addr, ref))
        elif ref is None:
            if values[0] != blank:
                problems.append("memory 0x%08x: machine 0x%08x, missing "
                                "from reference" % (addr, values[0]))
        elif values[0] != ref & MASK32:
            problems.append("memory 0x%08x: machine 0x%08x, reference 0x%08x"
                            % (addr, values[0], ref & MASK32))

    if view.outputs != [v & MASK32 for v in result.outputs]:
        problems.append("outputs: machine %r, reference %r"
                        % (view.outputs, result.outputs))
    return problems
