"""Byte-for-byte gate on what the kpu commands write.

Each shipped program, and the stage-path program below, is assembled with
``--seed 0`` and taken through ``kpu run --trace --stats FILE --dump FILE``
and ``kpu oracle``, and ``kpu compare`` must find no mismatch. The exact
bytes of the run's stdout (trace then outputs), the stats file, the dump
file and the oracle's stdout are frozen as sha256 digests, next to the
cycle count, so a change meant only to speed the engine up cannot move a
single trace line, counter or register.
"""

import hashlib
from pathlib import Path

import pytest

from kpusim.frontend import main

ROOT = Path(__file__).resolve().parent.parent

# The paths each pipeline stage takes by class and mode, none of which the
# shipped programs reach: a user-mode sweep of 72 cells, 8 more than the
# data cache holds, so every store misses and the first 8 loads miss (the
# 12-cycle load-use gap); link writes from l.jal and l.jalr in both modes;
# a user-mode l.ld, an illegal carrier, trapped and stepped over; a system
# call; serialized SPR moves in both modes; supervisor l.ld/l.sd; mispredict
# flushes at every loop exit; and l.nop 2 in both modes. The supervisor only
# prints registers it wrote itself, and no user load reads a blank cell.
STAGE_PATHS = """\
.mode super
.entry boot

.org 0x100
boot:
    l.ori   r12, r0, ufunc      # user subroutine, reached by l.jalr
    l.ori   r13, r0, sfunc
    l.addi  r3, r0, 11
    l.jal   sfunc               # supervisor link writes
    l.jalr  r13
    l.nop   2                   # 13
    l.sd    8(r0), r3
    l.ld    r14, 8(r0)
    l.add64 r3, r14, r14
    l.nop   2                   # 26
    l.mfspr r15, r0, 20         # serialized SPR moves
    l.mtspr r0, r15, 40
    l.mfspr r3, r0, 40
    l.nop   2                   # the CONFIG id
    l.ori   r31, r0, ustart
    l.mtspr r0, r31, 32         # EPCR: l.rfe drops to user mode there
    l.rfe
sfunc:
    l.addi  r3, r3, 1
    l.jr    r9

.org 0x700                      # illegal instruction: step over it
    l.mfspr r20, r0, 32
    l.addi  r20, r20, 4
    l.mtspr r0, r20, 32
    l.rfe

.org 0xc00                      # system call: count it, print the count
    l.sd    1000(r0), r3        # park the caller's r3 whole
    l.ld    r3, 992(r0)
    l.addi  r3, r3, 1
    l.sd    992(r0), r3
    l.nop   2
    l.ld    r3, 1000(r0)
    l.rfe

.org 0x2000
.encrypt on
ustart:
    l.addi  r5, r0, 8           # one stride, so both sweeps pad alike
    l.addi  r2, r0, 72          # 72 cells: 8 more than the data cache
    l.add   r1, r0, r0
ustore:
    l.sw    0(r1), r2           # write miss on every cell
    l.add   r1, r1, r5
    l.addi  r2, r2, -1
    l.sfne  r2, r0
    l.bf    ustore
    l.addi  r2, r0, 72
    l.add   r1, r0, r0
    l.add   r3, r0, r0
uload:
    l.lwz   r7, 0(r1)           # the first 8 cells were evicted: read miss
    l.add   r3, r3, r7          # load-use
    l.add   r1, r1, r5
    l.addi  r2, r2, -1
    l.sfne  r2, r0
    l.bf    uload
    l.nop   2                   # 72 + 71 + ... + 1 = 2628
    l.addi  r8, r0, 100
    l.jal   ufunc               # user link writes
    l.jalr  r12
    l.add   r3, r8, r0
    l.nop   2                   # 110
    l.mfspr r3, r0, 20          # CONFIG is readable in user mode
    l.mtspr r0, r3, 40          # and ignored
    l.nop   2
    l.sys   0                   # the handler prints 1
    l.ld    r3, 0(r0)           # illegal in user mode: trapped, skipped
    l.nop   2
    l.nop   1
ufunc:
    l.addi  r8, r8, 5
    l.jr    r9
"""

# program -> (cycles, run stdout, stats file, dump file, oracle stdout)
GOLDEN = {
    "programs/encrypted_sum.s": (
        200,
        "9edae20ee249606a0c9a6fb4accf6759271e22b90bf5f7ed9bb114ef68adce49",
        "c58cbe0c609153da3cce5bb962cc6af46bd5920b3bbd9c5bf3273caa70221c34",
        "ac7ed35fc3a4582df33cffe340cc5f326a7b3e9fa9b67c2f9287c74f79895be7",
        "f24f6d9e5a024d56bc8e5e5ee0b0bab387527ab8128a4a2c486ca825d20191cd"),
    "programs/syscall_ticks.s": (
        108,
        "8419c7c6fbc5e0aa99c655c44ba0c0fbb37a3398b1cf8ebab647b181fe208197",
        "a2f14e8dcd11c1f47c10659e3be0bafaa9688ac147c014ce8903396ff446dff9",
        "f4b50d03dab5af6885e2a6c985c3aca02faa08b02290ee484616d4fbeafac0fd",
        "7c5e127b7979535fe1745d6d99ebabbb5bfa60360bffb4e1ecf2740640483eef"),
    "stage paths": (
        2951,
        "5ccd16a769499d4de87c3f19a6b3d3d03eeffd9a40abc8800306c42ce121aaab",
        "009efac7fe0bdb019c093583f16156cc72dbf4b2f4195bf3a8a6802650ef0997",
        "6e6a5edda414eb38e7f5df23cc2d5f0075638851acf775b43b9bc802ed327b4b",
        "72ff5dbf75d4001b216b1f0fab9999f1cfb8ef9e52558b7b17535befdc05bd78"),
    "bench/is_add_test.s": (
        2357,
        "590bde6f112fa1ce3dce413ff6151e085f7a487b4bd730a85dd963d6a59bf30c",
        "867714134aad7c136b77dcf10f091c8edc11e933a2bdbf58ea701ce966736db5",
        "78e3e3a1383738ad80d0ed989f758811ad9478a53362a58982196dc919591945",
        "e6daa7eef17326558e7864e06f8e3a092f545ffee186d42e5da2bf0582f7e4c5"),
}


def _sha(data):
    return hashlib.sha256(data.encode()).hexdigest()


def source_file(program, tmp_path):
    """A shipped program's path, or a source held here written out."""
    if program not in SOURCES:
        return ROOT / program
    source = tmp_path / "prog.s"
    source.write_text(SOURCES[program])
    return source


def golden_run(program, tmp_path, capsys):
    img = tmp_path / "prog.img"
    stats = tmp_path / "prog.stats"
    dump = tmp_path / "prog.dump"
    assert main(["asm", str(source_file(program, tmp_path)), "-o", str(img),
                 "--seed", "0", "--quiet"]) == 0
    capsys.readouterr()
    assert main(["run", str(img), "--trace", "--stats", str(stats),
                 "--dump", str(dump)]) == 0
    run_out = capsys.readouterr().out
    assert main(["oracle", str(img)]) == 0
    oracle_out = capsys.readouterr().out
    assert main(["compare", str(img), str(dump)]) == 0
    assert capsys.readouterr().out.endswith("MISMATCHES 0\n")
    stats_text = stats.read_text()
    cycles = int(stats_text.split()[3].rstrip(","))
    return (cycles, _sha(run_out), _sha(stats_text), _sha(dump.read_text()),
            _sha(oracle_out))


@pytest.mark.parametrize("program", sorted(GOLDEN))
def test_run_and_oracle_bytes_are_frozen(program, tmp_path, capsys):
    assert golden_run(program, tmp_path, capsys) == GOLDEN[program]


# Every mnemonic once, with a pc-relative target, optional and explicit
# operands, negative offsets and both immediate signednesses.
EVERY_MNEMONIC = """
{label}:
    l.j {label}
    l.jal {label}
    l.bnf {label}
    l.bf {label}
    l.nop
    l.nop 3
    l.prefix 0,0x123456
    l.prefix 1,0xabcdef
    l.sys
    l.sys 7
    l.rfe
    l.jr r9
    l.jalr r3
    l.lwz r4,-8(r2)
    l.addi r5,r4,-3
    l.andi r5,r4,0xfff0
    l.ori r6,r5,0x8001
    l.xori r7,r6,-1
    l.muli r8,r7,300
    l.slli r9,r8,3
    l.srli r10,r9,31
    l.srai r11,r10,2
    l.mfspr r12,r1,17
    l.mtspr r1,r12,0x8001
    l.sw -4(r2),r12
    l.add r1,r2,r3
    l.sub r2,r3,r4
    l.and r3,r4,r5
    l.or r4,r5,r6
    l.xor r5,r6,r7
    l.mul r6,r7,r8
    l.divu r7,r8,r9
    l.sll r8,r9,r10
    l.srl r9,r10,r11
    l.sra r10,r11,r12
    l.sfeq r1,r2
    l.sfne r2,r3
    l.sfgts r3,r4
    l.sfges r4,r5
    l.sflts r5,r6
    l.sfles r6,r7
    l.ld r13,-16(r2)
    l.sd 24(r2),r13
    l.add64 r14,r13,r12
"""

ALL_MNEMONICS_SOURCE = (".org 0x100\n" + EVERY_MNEMONIC.format(label="plain")
                        + ".org 0x1000\n.encrypt on\n"
                        + EVERY_MNEMONIC.format(label="sealed"))

# sources held in this file rather than shipped
SOURCES = {"every mnemonic": ALL_MNEMONICS_SOURCE,
           "stage paths": STAGE_PATHS}

# source -> sha256 of the image `kpu asm --seed 0` writes
IMAGE_GOLDEN = {
    "bench/is_add_test.s":
        "9b0b943ddf3f3857e7d3804bd6d78a8dc74b2e9a225f19f79f45fc2f2a2f0354",
    "every mnemonic":
        "6ac582dcc0e83cf1cff2de94c0556348b962dae50f50fae9805928e22bad9fdf",
    "programs/encrypted_sum.s":
        "ec103d29d15a67b85df535ab2b92f4f5461f75e652f647c4380aac0e66d0524c",
    "programs/syscall_ticks.s":
        "a19d3bf62a04b46700a9d7556386df9c7348b027247882dac8a66b706fbbb82e",
}


@pytest.mark.parametrize("program", sorted(IMAGE_GOLDEN))
def test_assembled_image_bytes_are_frozen(program, tmp_path, capsys):
    img = tmp_path / "prog.img"
    assert main(["asm", str(source_file(program, tmp_path)), "-o", str(img),
                 "--seed", "0", "--quiet"]) == 0
    assert _sha(img.read_text()) == IMAGE_GOLDEN[program]
