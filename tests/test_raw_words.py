"""Raw instruction streams leave every kpu command with a documented exit
code, never a traceback.

Each image is a short run of words at 0x4000: words encoded from random
rows of the instruction table (every row turns up across the seed list)
mixed with random 32-bit words, taken in both modes, with and without an
exit no-op on the illegal-instruction vector 0x700. `kpu run` and
`kpu oracle` must end in 0 (finished) or 1 (the program faulted or ran out
of budget), and `kpu compare` on a finished run's dump in 0, 1 or 3.
Whether the two machines agree is not asserted here.
"""

import random

import pytest

from kpusim import isa
from kpusim.frontend import main

SEEDS = range(100)
NOP_EXIT = isa.encode_fields(isa.MNEMONICS["l.nop"], {"imm": 1})
NOP_PRINT = isa.encode_fields(isa.MNEMONICS["l.nop"], {"imm": 2})


def _operand(rng, row, name, low, high):
    if name in ("rd", "ra", "rb"):
        return rng.randrange(32)
    if row.syntax == "@imm":
        return rng.randrange(-4, 8)     # a target near the stream
    if row.mnemonic == "l.nop":
        return rng.choice((0, 1, 2, rng.randrange(low, high)))
    return rng.randrange(low, high)


def _word(rng, rows):
    if rng.random() < 0.3:
        return rng.getrandbits(32)
    row = rng.choice(isa.TABLE)
    rows.add(row.mnemonic)
    fields = {name: _operand(rng, row, name, low, high)
              for name, _, _, _, low, high, _ in row.fields}
    return isa.encode_fields(row, fields)


def _image(rng, mode, vector, rows):
    text = {0x4000 + 4 * i: _word(rng, rows)
            for i in range(rng.randrange(4, 16))}
    text[0x4000 + 4 * rng.randrange(len(text))] = NOP_PRINT
    text[0x4000 + 4 * len(text)] = NOP_EXIT
    if vector:
        text[0x700] = NOP_EXIT
    lines = ["KPUIMG 1", "ENTRY 0x00004000", "MODE %s" % mode]
    lines += ["TEXT 0x%08x %08x" % (addr, text[addr]) for addr in sorted(text)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("vector", [True, False], ids=["vector", "no-vector"])
@pytest.mark.parametrize("mode", ["user", "super"])
def test_raw_words_end_in_documented_exit_codes(mode, vector, tmp_path,
                                                capsys):
    image, dump = tmp_path / "raw.img", tmp_path / "raw.dump"
    rows, finished = set(), 0
    for seed in SEEDS:
        rng = random.Random(seed)
        image.write_text(_image(rng, mode, vector, rows))
        dump.unlink(missing_ok=True)
        run = main(["run", str(image), "--max-cycles", "3000",
                    "--dump", str(dump)])
        assert run in (0, 1), seed
        assert main(["oracle", str(image), "--max-steps", "3000"]) in (0, 1)
        if run == 0:
            finished += 1
            assert main(["compare", str(image), str(dump),
                         "--max-steps", "3000"]) in (0, 1, 3), seed
        capsys.readouterr()
    assert rows == set(isa.MNEMONICS)
    assert 0 < finished < len(SEEDS)
