"""Two-pass assembler producing loadable machine images.

Inside a ``.encrypt on`` region every immediate-class instruction carries a
64-bit encrypted immediate: the assembler pads the 32-bit literal with a
deterministic padding word, encrypts the block, and emits the ciphertext as
two prefix instructions (24-bit payloads each) followed by the instruction
itself holding the final 16 bits. Shift immediates keep their 2-bit
sub-operation inside that final segment, so for them the assembler retries
padding candidates until the ciphertext happens to land the right sub-op
bits; the search is deterministic, a few tries on average.

The pass structure is: pass one fixes every instruction's address (sizes
never depend on operand values, an encrypted immediate-class line is always
three words), so `.org` and `.space` take only labels defined above them.
Pass two resolves `.word` and `.dword`, and alone turns operand text into
instruction fields, which each statement keeps for the lint; it encodes
against every label and assigns padding ordinals in program order.

A small lint pass flags source patterns that break the pad-provenance
discipline encrypted programs rely on: arithmetic performed on a register
holding a return address, and register jumps through values that were
computed or loaded as data.
"""

import re

from . import isa
from .codec import MASK32, MASK64, make_padding

MAX_PAD_ATTEMPTS = 4096


class ParseError(Exception):
    def __init__(self, lineno, msg):
        self.lineno = lineno
        super().__init__("line %d: %s" % (lineno, msg))


class UndefinedLabel(ParseError):
    pass


class CryptoSafetyError(Exception):
    """Strict-mode lint failure."""


class FormatError(Exception):
    """Malformed image text."""

    def __init__(self, lineno, msg):
        self.lineno = lineno
        super().__init__("line %d: %s" % (lineno, msg))


class Image(isa.Slotted):
    """A loadable program: entry pc, start mode, and the text words and
    data blocks by address."""

    __slots__ = ("entry", "mode", "text", "data")

    def __init__(self, entry=0x100, mode="super", text=None, data=None):
        self.entry = entry
        self.mode = mode
        self.text = {} if text is None else text
        self.data = {} if data is None else data


# ------------------------------------------------------------ image files --

def write_image(image):
    lines = ["KPUIMG 1", "ENTRY 0x%08x" % image.entry, "MODE %s" % image.mode]
    for addr in sorted(image.text):
        lines.append("TEXT 0x%08x %08x" % (addr, image.text[addr]))
    for addr in sorted(image.data):
        lines.append("DATA 0x%08x %016x" % (addr, image.data[addr]))
    return "\n".join(lines) + "\n"


def read_records(text, magic, what):
    """The records of an image or dump text, as (line number, line) pairs.

    A '#' starts a comment and blank lines are skipped. The first record
    must be the `magic` header, which is not returned; a text with no
    record at all is an empty `what`.
    """
    records = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            records.append((lineno, line))
    if not records:
        raise FormatError(1, "empty %s" % what)
    lineno, line = records[0]
    if line.split() != magic.split():
        raise FormatError(lineno, "expected %s header" % magic)
    return records[1:]


def parse_image(text):
    image = Image(text={}, data={})
    for lineno, line in read_records(text, "KPUIMG 1", "image"):
        fields = line.split()
        kind = fields[0]
        # int() takes a sign: every number must be unsigned and fit its field
        try:
            if kind == "ENTRY" and len(fields) == 2:
                image.entry = int(fields[1], 16)
                if not 0 <= image.entry <= MASK32:
                    raise FormatError(lineno, "bad entry record")
            elif kind == "MODE" and len(fields) == 2:
                if fields[1] not in ("user", "super"):
                    raise FormatError(lineno, "mode must be user or super")
                image.mode = fields[1]
            elif kind == "TEXT" and len(fields) == 3:
                addr = int(fields[1], 16)
                word = int(fields[2], 16)
                if addr % 4 or not 0 <= addr <= MASK32 \
                        or not 0 <= word <= MASK32:
                    raise FormatError(lineno, "bad text record")
                image.text[addr] = word
            elif kind == "DATA" and len(fields) == 3:
                addr = int(fields[1], 16)
                value = int(fields[2], 16)
                if not 0 <= addr <= MASK32 or not 0 <= value <= MASK64:
                    raise FormatError(lineno, "bad data record")
                image.data[addr] = value
            else:
                raise FormatError(lineno, "unrecognized record %r" % kind)
        except ValueError:
            raise FormatError(lineno, "bad number in %r" % line) from None
    return image


# ---------------------------------------------------------------- parsing --

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_REG_RE = re.compile(r"^[rR]([0-9]|[12][0-9]|3[01])$")
_MEM_RE = re.compile(r"^(.*)\(([rR][0-9]+)\)$")

_REGISTERS = ("rd", "ra", "rb")
_C = isa.InstrClass


def _mnemonics(keep):
    return {mn for mn, row in isa.MNEMONICS.items() if keep(row)}


# mnemonics whose immediate a `.encrypt on` region turns into a prefix pair
# plus the instruction
_ENCRYPTED = _mnemonics(lambda row: row.cls is _C.IMMEDIATE)


def _parse_reg(tok, lineno):
    m = _REG_RE.match(tok.strip())
    if not m:
        raise ParseError(lineno, "expected register, got %r" % tok.strip())
    return int(m.group(1))


class _Item(isa.Slotted):
    """One source statement bound to an address during pass one, `sealed`
    if a `.encrypt on` region seals its immediate. Pass two parses the
    operand text `ops` into instruction `fields`, which the lint reads."""

    __slots__ = ("lineno", "mnemonic", "ops", "addr", "encrypted", "labeled",
                 "sealed", "fields")

    def __init__(self, lineno, mnemonic, ops, addr, encrypted, labeled,
                 sealed, fields=None):
        self.lineno = lineno
        self.mnemonic = mnemonic
        self.ops = ops
        self.addr = addr
        self.encrypted = encrypted
        self.labeled = labeled
        self.sealed = sealed
        self.fields = fields


class Assembler:
    def __init__(self, cdc, seed=0):
        self.codec = cdc
        self.seed = seed

    # public entry point
    def assemble(self, source, strict=False):
        items, labels, image, values = self._pass_one(source)
        self._pass_two(items, labels, image, values)
        diagnostics = lint(items)
        if strict and diagnostics:
            raise CryptoSafetyError("\n".join(diagnostics))
        return image, diagnostics

    # ------------------------------------------------------------ pass 1 --

    def _pass_one(self, source):
        loc = 0x100
        encrypted = False
        labels = {}
        items = []
        # (lineno, a .word's address or None for a .dword, expressions)
        values = []
        image = Image(text={}, data={})
        entry = None

        for lineno, raw in enumerate(source.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            labeled = False
            while m := _LABEL_RE.match(line):
                name = m.group(1)
                if name in labels:
                    raise ParseError(lineno, "duplicate label %r" % name)
                labels[name] = loc
                labeled = True
                line = line[m.end():].strip()
            if not line:
                continue

            head, *rest = line.split(None, 1)
            rest = rest[0] if rest else ""

            if head == ".org":
                loc = self._expr(rest, labels, lineno)
                if loc % 4:
                    raise ParseError(lineno, ".org address not word aligned")
            elif head == ".encrypt":
                if rest not in ("on", "off"):
                    raise ParseError(lineno, ".encrypt takes on or off")
                encrypted = rest == "on"
            elif head == ".entry":
                entry = lineno, rest
            elif head == ".mode":
                if rest not in ("user", "super"):
                    raise ParseError(lineno, ".mode takes user or super")
                image.mode = rest
            elif head == ".word":
                values.append((lineno, loc, [rest]))
                loc += 4
            elif head == ".space":
                n = self._expr(rest, labels, lineno)
                if n < 0 or n % 4:
                    raise ParseError(lineno, ".space takes a multiple of 4")
                loc += n
            elif head == ".dword":
                parts = rest.split(",")
                if len(parts) != 2:
                    raise ParseError(lineno, ".dword takes address, value")
                values.append((lineno, None, parts))
            elif head.startswith("."):
                raise ParseError(lineno, "unknown directive %s" % head)
            else:
                sealed = encrypted and head in _ENCRYPTED
                items.append(_Item(lineno, head, rest, loc, encrypted, labeled,
                                   sealed))
                loc += 12 if sealed else 4   # a prefix pair precedes it

        if entry is not None:
            image.entry = self._expr(entry[1], labels, entry[0])
            if not 0 <= image.entry <= MASK32:
                raise ParseError(entry[0], ".entry address %d does not fit "
                                 "32 bits" % image.entry)
        return items, labels, image, values

    # ------------------------------------------------------------ pass 2 --

    def _pass_two(self, items, labels, image, values):
        for lineno, addr, exprs in values:
            resolved = [self._expr(text, labels, lineno) for text in exprs]
            if addr is None:             # .dword address, value
                image.data[resolved[0] & MASK32] = resolved[1] & MASK64
            elif -(1 << 31) <= resolved[0] <= MASK32:
                self._put_word(image, addr, resolved[0] & MASK32, lineno)
            else:
                raise ParseError(lineno, ".word value %d does not fit 32 bits"
                                 % resolved[0])
        ordinal = 0
        for item in items:
            try:
                encoded = self._encode_item(item, labels, ordinal)
            except isa.OperandOutOfRange as exc:
                raise ParseError(item.lineno, str(exc)) from None
            if item.sealed:
                ordinal += 1
            for offset, word in enumerate(encoded):
                self._put_word(image, item.addr + 4 * offset, word, item.lineno)

    def _put_word(self, image, addr, word, lineno):
        addr &= MASK32
        if addr in image.text:
            raise ParseError(lineno, "text overlap at 0x%08x" % addr)
        image.text[addr] = word

    def _expr(self, text, labels, lineno):
        s = text.strip()
        if not s:
            raise ParseError(lineno, "empty expression")
        try:
            return int(s, 0)
        except ValueError:
            pass
        m = re.match(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*\d+)?$", s)
        if m:
            name = m.group(1)
            if name not in labels:
                raise UndefinedLabel(lineno, "undefined label %r" % name)
            value = labels[name]
            if m.group(2):
                value += int(m.group(2).replace(" ", ""), 0)
            return value
        raise ParseError(lineno, "cannot parse expression %r" % s)

    def _operands(self, item, row, labels):
        """Instruction fields of an item's operand text, by the row's
        syntax."""
        lineno = item.lineno
        tokens = row.syntax.split(",") if row.syntax else []
        parts = [p.strip() for p in item.ops.split(",")] if item.ops else []
        if not parts and tokens == ["imm?"]:
            return {"imm": 0}
        if len(parts) != len(tokens):
            raise ParseError(lineno, "%s takes %d operands"
                             % (item.mnemonic, len(tokens)))
        # plain registers first, then the operands that may name labels
        fields = {token: _parse_reg(text, lineno)
                  for token, text in zip(tokens, parts) if token in _REGISTERS}
        for token, text in zip(tokens, parts):
            if token in _REGISTERS:
                continue
            if token == "imm(ra)":
                m = _MEM_RE.match(text)
                if not m:
                    raise ParseError(lineno, "expected offset(reg), got %r"
                                     % text)
                fields["imm"] = self._expr(m.group(1), labels, lineno)
                fields["ra"] = _parse_reg(m.group(2), lineno)
            elif token == "@imm":
                delta = self._expr(text, labels, lineno) - item.addr
                if delta % 4:
                    raise ParseError(lineno, "branch target not word aligned")
                fields["imm"] = delta // 4
            else:
                fields[token.rstrip("?")] = self._expr(text, labels, lineno)
        return fields

    def _encode_item(self, item, labels, ordinal):
        row = isa.MNEMONICS.get(item.mnemonic)
        if row is None:
            raise ParseError(item.lineno, "unknown mnemonic %r" % item.mnemonic)
        fields = item.fields = self._operands(item, row, labels)
        if item.sealed:
            return self._encode_encrypted(row, fields, ordinal, item.lineno)
        return [isa.encode(isa.instruction(item.mnemonic, **fields))]

    def _encode_encrypted(self, row, fields, ordinal, lineno):
        literal = fields["imm"]
        if not -(1 << 31) <= literal <= MASK32:
            raise ParseError(lineno, "immediate %d does not fit 32 bits" % literal)
        body = isa.encode(isa.instruction(row.mnemonic, rd=fields["rd"],
                                          ra=fields["ra"], imm=0))
        # bits of the final 16 outside the immediate field (a shift's
        # sub-op) must come out of the ciphertext as the row fixes them
        keep = 0xFFFF & ~row.masks["imm"]
        value = literal & MASK32
        for attempt in range(MAX_PAD_ATTEMPTS):
            pad = make_padding(self.seed, ordinal, attempt)
            cipher = self.codec.encrypt((pad << 32) | value)
            if not (cipher ^ body) & keep:
                break
        else:
            raise ParseError(lineno, "no padding fits shift sub-op")
        p0 = isa.instruction("l.prefix", prefix_idx=0,
                             prefix_payload=(cipher >> 40) & 0xFFFFFF)
        p1 = isa.instruction("l.prefix", prefix_idx=1,
                             prefix_payload=(cipher >> 16) & 0xFFFFFF)
        return [isa.encode(p0), isa.encode(p1), body | (cipher & 0xFFFF)]


def assemble(source, cdc, seed=0, strict=False):
    """Convenience wrapper returning just the image."""
    image, _ = Assembler(cdc, seed).assemble(source, strict=strict)
    return image


# ------------------------------------------------------------------- lint --

PROG, DATA, UNKNOWN = "prog", "data", "unknown"

# register and immediate ALU operations
_ARITHMETIC = _mnemonics(lambda row: row.cls is _C.IMMEDIATE
                         or row.syntax == "rd,ra,rb")
_REGISTER_JUMPS = _mnemonics(lambda row: row.syntax == "rb")
_BLOCK_ENDERS = _mnemonics(lambda row: row.cls in (_C.JUMP, _C.BRANCH,
                                                    _C.SYSTRAP))


def lint(items):
    """Pad-provenance diagnostics over encrypted regions.

    Within each straight-line block the link register is assumed to hold a
    return address and loads mark their destination as data; arithmetic on
    an address-tainted register, or a register jump through a data-tainted
    one, would desynchronize padding between runs of the same logical
    program, so both get flagged.
    """
    diags = []
    taint = None
    for item in items:
        if not item.encrypted:
            taint = None
            continue
        if taint is None or item.labeled:
            taint = {9: PROG}
        mn, fields = item.mnemonic, item.fields
        if mn in _ARITHMETIC:
            for src in (fields["ra"], fields.get("rb")):
                if taint.get(src, UNKNOWN) == PROG:
                    diags.append(
                        "line %d: arithmetic on a program address in r%d"
                        % (item.lineno, src))
        # whatever writes rd (arithmetic, a load, an SPR read) leaves data
        rd = fields.get("rd")
        if rd:
            taint[rd] = DATA
        elif mn in _REGISTER_JUMPS:
            rb = fields["rb"]
            if taint.get(rb, UNKNOWN) == DATA:
                diags.append(
                    "line %d: register jump through a data value in r%d"
                    % (item.lineno, rb))
        if mn in _BLOCK_ENDERS:
            taint = None
    return diags
