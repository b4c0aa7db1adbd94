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
against every label and assigns padding ordinals in program order. What
depends only on the mnemonic is worked out once at import: each row's
operand plan, the register names and the prefix words' fixed bits, so a
statement costs its own operands and one isa.encode_fields call.

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
    # addresses are unique keys, so (address, value) pairs sort by address
    lines = ["KPUIMG 1", "ENTRY 0x%08x" % image.entry, "MODE %s" % image.mode]
    lines += ["TEXT 0x%08x %08x" % pair for pair in sorted(image.text.items())]
    lines += ["DATA 0x%08x %016x" % pair for pair in sorted(image.data.items())]
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


def read_number(text, base, signed=False):
    """`text` as a number by the rule of images, dumps and the command
    line: ASCII digits of `base` alone, no '_', and a sign only where
    `signed` (as in a source); ValueError where it is no such number."""
    digits = text[1:] if signed and text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isalnum()):
        raise ValueError("not a number: %r" % text)
    return int(text, base)


def parse_image(text):
    image = Image(text={}, data={})
    # int() also takes a '+', '_' and non-ASCII digits, so a record holding
    # one has no number; only a text that holds one needs a look per record
    odd = "+" in text or "_" in text or not text.isascii()
    for lineno, line in read_records(text, "KPUIMG 1", "image"):
        fields = line.split()
        kind = fields[0]
        # a '-' fails the range checks: every number is unsigned
        try:
            if odd and kind in ("ENTRY", "TEXT", "DATA") and (
                    "+" in line or "_" in line or not line.isascii()):
                raise ValueError
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
_MEM_RE = re.compile(r"^(.*)\(([rR][0-9]+)\)$")

# register names: r0..r31 in either case, without leading zeros
_REGISTER = {"%s%d" % (r, i): i for r in "rR" for i in range(32)}
_C = isa.InstrClass


def _mnemonics(keep):
    return {mn for mn, row in isa.MNEMONICS.items() if keep(row)}


# mnemonics whose immediate a `.encrypt on` region turns into a prefix pair
# plus the instruction
_ENCRYPTED = _mnemonics(lambda row: row.cls is _C.IMMEDIATE)

# operand kinds: a plain register, offset(reg), a pc-relative target, and
# an expression that may name a label, the kind of every other token
_REG, _MEM, _PC, _VALUE = range(4)
_KINDS = {"rd": ("rd", _REG), "ra": ("ra", _REG), "rb": ("rb", _REG),
          "imm(ra)": ("imm", _MEM), "@imm": ("imm", _PC)}

# mnemonic -> (row, its operand plan: (position, field, kind) per token,
# plain registers first, as they are read before any operand that may name
# a label)
_PLANS = {mn: (row, tuple(sorted(
    ((i,) + _KINDS.get(token, (token.rstrip("?"), _VALUE))
     for i, token in enumerate(row.tokens)), key=lambda step: step[2] != _REG)))
    for mn, row in isa.MNEMONICS.items()}

# the two prefix words with an empty payload; the payload is the low 24 bits
_PREFIX = isa.MNEMONICS["l.prefix"]
_PAYLOAD = _PREFIX.masks["prefix_payload"]
_P0, _P1 = (isa.encode_fields(_PREFIX, {"prefix_idx": idx, "prefix_payload": 0})
            for idx in (0, 1))


def _expr(text, labels, lineno):
    s = text.strip()
    # a label never parses as a number, so looking it up first is safe
    value = labels.get(s)
    if value is not None:
        return value
    if not s:
        raise ParseError(lineno, "empty expression")
    # int() also takes '_' and non-ASCII digits, which no number holds
    if s.isascii() and "_" not in s:
        try:
            return int(s, 0)
        except ValueError:
            pass
    m = re.match(r"^([A-Za-z_.$][\w.$]*)\s*([+-]\s*[0-9]+)?$", s)
    if m:
        name = m.group(1)
        if name not in labels:
            raise UndefinedLabel(lineno, "undefined label %r" % name)
        # a defined name alone was looked up above, so an offset follows;
        # one with a leading zero is no number, as it is not on its own
        try:
            return labels[name] + int(m.group(2).replace(" ", ""), 0)
        except ValueError:
            pass
    raise ParseError(lineno, "cannot parse expression %r" % s)


def _register(text, lineno):
    reg = _REGISTER.get(text)
    if reg is None:
        raise ParseError(lineno, "expected register, got %r" % text)
    return reg


def _place(text, addr, words, lineno):
    """Put consecutive words into an image's text from `addr` on."""
    for word in words:
        addr &= MASK32
        if addr in text:
            raise ParseError(lineno, "text overlap at 0x%08x" % addr)
        text[addr] = word
        addr += 4


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

        for lineno, line in enumerate(source.splitlines(), 1):
            if "#" in line:
                line = line.split("#", 1)[0]
            line = line.strip()
            labeled = False
            # a label needs its colon
            while ":" in line and (m := _LABEL_RE.match(line)):
                name = m.group(1)
                if name in labels:
                    raise ParseError(lineno, "duplicate label %r" % name)
                labels[name] = loc
                labeled = True
                line = line[m.end():].strip()
            if not line:
                continue

            parts = line.split(None, 1)
            head = parts[0]
            rest = parts[1] if len(parts) > 1 else ""

            if head[0] != ".":
                sealed = encrypted and head in _ENCRYPTED
                items.append(_Item(lineno, head, rest, loc, encrypted, labeled,
                                   sealed))
                loc += 12 if sealed else 4   # a prefix pair precedes it
            elif head == ".org":
                loc = _expr(rest, labels, lineno)
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
                n = _expr(rest, labels, lineno)
                if n < 0 or n % 4:
                    raise ParseError(lineno, ".space takes a multiple of 4")
                loc += n
            elif head == ".dword":
                parts = rest.split(",")
                if len(parts) != 2:
                    raise ParseError(lineno, ".dword takes address, value")
                values.append((lineno, None, parts))
            else:
                raise ParseError(lineno, "unknown directive %s" % head)

        if entry is not None:
            image.entry = _expr(entry[1], labels, entry[0])
            if not 0 <= image.entry <= MASK32:
                raise ParseError(entry[0], ".entry address %d does not fit "
                                 "32 bits" % image.entry)
        return items, labels, image, values

    # ------------------------------------------------------------ pass 2 --

    def _pass_two(self, items, labels, image, values):
        text = image.text
        for lineno, addr, exprs in values:
            resolved = [_expr(expr, labels, lineno) for expr in exprs]
            if addr is None:             # .dword address, value
                image.data[resolved[0] & MASK32] = resolved[1] & MASK64
            elif -(1 << 31) <= resolved[0] <= MASK32:
                _place(text, addr, (resolved[0] & MASK32,), lineno)
            else:
                raise ParseError(lineno, ".word value %d does not fit 32 bits"
                                 % resolved[0])
        ordinal = 0
        for item in items:
            lineno = item.lineno
            plan = _PLANS.get(item.mnemonic)
            if plan is None:
                raise ParseError(lineno, "unknown mnemonic %r" % item.mnemonic)
            row, steps = plan
            fields = item.fields = self._operands(item, row, steps, labels)
            if item.sealed:
                words = self._seal(row, fields, ordinal, lineno)
                ordinal += 1
            else:
                try:
                    words = (isa.encode_fields(row, fields),)
                except isa.OperandOutOfRange as exc:
                    raise ParseError(lineno, str(exc)) from None
            _place(text, item.addr, words, lineno)

    def _operands(self, item, row, steps, labels):
        """Instruction fields of an item's operand text, by the row's
        operand plan `steps`."""
        lineno = item.lineno
        parts = item.ops.split(",") if item.ops else []
        if len(parts) != len(steps):
            if not parts and row.tokens == ("imm?",):
                return {"imm": 0}
            raise ParseError(lineno, "%s takes %d operands"
                             % (item.mnemonic, len(steps)))
        fields = {}
        for i, name, kind in steps:
            text = parts[i].strip()
            if kind == _REG:
                fields[name] = _register(text, lineno)
            elif kind == _VALUE:
                fields[name] = _expr(text, labels, lineno)
            elif kind == _PC:
                delta = _expr(text, labels, lineno) - item.addr
                if delta % 4:
                    raise ParseError(lineno, "branch target not word aligned")
                fields["imm"] = delta // 4
            else:
                m = _MEM_RE.match(text)
                if not m:
                    raise ParseError(lineno, "expected offset(reg), got %r"
                                     % text)
                fields["imm"] = _expr(m.group(1), labels, lineno)
                fields["ra"] = _register(m.group(2), lineno)
        return fields

    def _seal(self, row, fields, ordinal, lineno):
        """The prefix pair and the instruction word of a sealed immediate."""
        literal = fields["imm"]
        if not -(1 << 31) <= literal <= MASK32:
            raise ParseError(lineno, "immediate %d does not fit 32 bits" % literal)
        body = isa.encode_fields(row, dict(fields, imm=0))
        # bits of the final 16 outside the immediate field (a shift's
        # sub-op) must come out of the ciphertext as the row fixes them
        keep = 0xFFFF & ~row.masks["imm"]
        value = literal & MASK32
        encrypt = self.codec.encrypt
        for attempt in range(MAX_PAD_ATTEMPTS):
            pad = make_padding(self.seed, ordinal, attempt)
            cipher = encrypt((pad << 32) | value)
            if not (cipher ^ body) & keep:
                break
        else:
            raise ParseError(lineno, "no padding fits shift sub-op")
        return (_P0 | (cipher >> 40) & _PAYLOAD, _P1 | (cipher >> 16) & _PAYLOAD,
                body | (cipher & 0xFFFF))


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
