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
from .assembler import FormatError, read_number, read_records
from .codec import MASK32, MASK64, word_value
from .core import open_register
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


# record -> field count, the record name included
_DUMP_FIELDS = {"MODE": 2, "REG": 4, "PHYS": 3, "TLBMAP": 3, "OUT": 2}


def _dump_number(lineno, text, base, limit):
    """A dump field: an unsigned number by read_number's rule, at most
    `limit`."""
    try:
        value = read_number(text, base)
    except ValueError:
        value = -1
    if not 0 <= value <= limit:
        raise FormatError(lineno, "bad number %r" % text)
    return value


def parse_sim_dump(text):
    view = SimView(mode=None, regs_real=[None] * 32, regs_shadow=[None] * 32)
    for lineno, line in read_records(text, "KPUDUMP 1", "dump"):
        fields = line.split()
        kind = fields[0]
        if kind not in _DUMP_FIELDS:
            raise FormatError(lineno, "unrecognized record %r" % kind)
        if len(fields) != _DUMP_FIELDS[kind]:
            raise FormatError(lineno, "%s takes %d fields"
                              % (kind, _DUMP_FIELDS[kind] - 1))
        # render_dump writes each register, cell, cipher and the mode
        # once, so a second record for one is not a dump it wrote
        if kind == "MODE":
            if fields[1] not in ("user", "super"):
                raise FormatError(lineno, "mode must be user or super")
            if view.mode is not None:
                raise FormatError(lineno, "second MODE record")
            view.mode = fields[1]
        elif kind == "REG":
            i = _dump_number(lineno, fields[1], 10, MASK64)
            if i >= 32:
                raise FormatError(lineno, "no register %d" % i)
            real = _dump_number(lineno, fields[2], 16, MASK64)
            shadow = _dump_number(lineno, fields[3], 16, MASK64)
            if view.regs_real[i] is not None:
                raise FormatError(lineno, "second REG %02d record" % i)
            view.regs_real[i], view.regs_shadow[i] = real, shadow
        elif kind == "PHYS":
            index = _dump_number(lineno, fields[1], 10, MASK64)
            value = _dump_number(lineno, fields[2], 16, MASK64)
            if index in view.cells:
                raise FormatError(lineno, "second PHYS record for cell %d"
                                  % index)
            view.cells[index] = value
        elif kind == "TLBMAP":
            cipher = _dump_number(lineno, fields[1], 16, MASK64)
            index = _dump_number(lineno, fields[2], 10, MASK64)
            if cipher in view.tlb:
                raise FormatError(lineno, "second TLBMAP record for %016x"
                                  % cipher)
            view.tlb[cipher] = index
        else:
            view.outputs.append(_dump_number(lineno, fields[1], 10, MASK32))
    # render_dump writes the mode and every register, so a dump without
    # one was cut short; it is not a machine whose registers all hold 0
    if view.mode is None:
        raise FormatError(len(text.splitlines()), "no MODE record")
    if None in view.regs_real:
        raise FormatError(len(text.splitlines()),
                          "no REG %02d record" % view.regs_real.index(None))
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
    user = view.mode == "user"
    for i in range(32):
        sim = (view.regs_shadow[i] & MASK32 if user
               else word_value(open_register(cdc, view.regs_real[i])))
        ref = result.regs[i] & MASK32
        if sim != ref:
            problems.append("r%d: machine 0x%08x, reference 0x%08x"
                            % (i, sim, ref))

    logical = {}
    for cipher, index in view.tlb.items():
        ea_block = cdc.decrypt(cipher)
        addr = word_value(ea_block)
        # the dump leaves out a cell that holds 0, as a blank one does
        value = word_value(cdc.decrypt(view.cells.get(index, BLANK_CELL)))
        logical.setdefault(addr, []).append(value)
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
