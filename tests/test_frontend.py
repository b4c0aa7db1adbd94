"""End-to-end checks of the command line tools."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kpusim
from kpusim.check import SimView, render_dump
from kpusim.frontend import asm_entry, main, oracle_entry

ROOT = Path(__file__).resolve().parent.parent

SOURCE = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r1, r0, 7
    l.addi r2, r1, 35
    l.sw   0(r0), r2
    l.lwz  r3, 0(r0)
    l.nop  2
    l.nop  1
"""

ALIAS_SOURCE = """.mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r1, r0, 100
    l.addi r2, r0, 1
    l.sw   0(r1), r2
    l.addi r3, r0, 100
    l.addi r4, r0, 2
    l.sw   0(r3), r4
    l.nop  1
"""

STATS_GOLDEN = """@exit  : cycles 36, instructions 10
mode user : 36 cycles (100.0%)
  immediate :   5.6%
  load      :   2.8%
    (cached):   2.8%
  store     :   2.8%
    (cached):   0.0%
  no-op     :   5.6%
  prefix    :  11.1%
  stalls    :  27.8%
  refills   :  44.4%
BPB: 0 hits (0% right), 0 misses (0% right)
User Data Cache: 1 reads (100% hits), 1 writes (0% hits)
"""


@pytest.fixture
def built(tmp_path):
    src = tmp_path / "p.s"
    img = tmp_path / "p.img"
    src.write_text(SOURCE)
    assert main(["asm", str(src), "-o", str(img)]) == 0
    return tmp_path, img


def test_asm_run_compare_round_trip(built, capsys):
    tmp, img = built
    dump = tmp / "p.dump"
    assert main(["run", str(img), "--dump", str(dump)]) == 0
    out = capsys.readouterr()
    assert out.out == "42\n"
    assert "@exit  : cycles 36, instructions 10" in out.err

    assert main(["compare", str(img), str(dump)]) == 0
    out = capsys.readouterr()
    assert out.out == "MISMATCHES 0\n"


def test_stats_file_golden(built, capsys):
    tmp, img = built
    stats = tmp / "p.stats"
    assert main(["run", str(img), "--stats", str(stats)]) == 0
    capsys.readouterr()
    assert stats.read_text() == STATS_GOLDEN


def test_doctored_dump_mismatch(built, capsys):
    tmp, img = built
    dump = tmp / "p.dump"
    main(["run", str(img), "--dump", str(dump)])
    capsys.readouterr()

    doctored = []
    for line in dump.read_text().splitlines():
        if line.startswith("REG 02"):
            line = line[:-1] + ("b" if line[-1] == "a" else "a")
        doctored.append(line)
    bad = tmp / "bad.dump"
    bad.write_text("\n".join(doctored) + "\n")

    rc = main(["compare", str(img), str(bad)])
    out = capsys.readouterr()
    assert rc == 3
    lines = out.out.splitlines()
    assert lines[0] == "MISMATCHES 1"
    assert lines[1].startswith("r2: machine 0x")


def test_alias_dump_fails_compare(tmp_path, capsys):
    src = tmp_path / "a.s"
    img = tmp_path / "a.img"
    dump = tmp_path / "a.dump"
    src.write_text(ALIAS_SOURCE)
    assert main(["asm", str(src), "-o", str(img)]) == 0
    assert main(["run", str(img), "--dump", str(dump)]) == 0
    capsys.readouterr()

    rc = main(["compare", str(img), str(dump)])
    out = capsys.readouterr()
    assert rc == 3
    assert "maps to 2 cells" in out.err


def test_runtime_fault_exit_code(built, capsys):
    tmp, img = built
    rc = main(["run", str(img), "--max-cycles", "3"])
    out = capsys.readouterr()
    assert rc == 1
    assert "fault" in out.err


def test_usage_and_format_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frotz"])
    assert exc.value.code == 2
    capsys.readouterr()

    junk = tmp_path / "junk.img"
    junk.write_text("not an image\n")
    assert main(["run", str(junk)]) == 2
    assert main(["run", str(tmp_path / "absent.img")]) == 2

    bad_src = tmp_path / "bad.s"
    bad_src.write_text("    l.frobnicate r1, r2\n")
    assert main(["asm", str(bad_src), "-o", str(tmp_path / "x.img")]) == 2
    capsys.readouterr()


def test_unwritable_outputs_exit_2(built, capsys):
    tmp, img = built
    nowhere = str(tmp / "absent" / "x")
    assert main(["asm", str(tmp / "p.s"), "-o", nowhere]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kpu asm: ") and err.count("\n") == 1
    for flag in ("--dump", "--stats"):
        assert main(["run", str(img), flag, nowhere]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("kpu run: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("option, value", [("--bpb-entries", "0"),
                                           ("--cache-entries", "0"),
                                           ("--cache-entries", "-1")])
def test_size_options_must_be_positive(built, capsys, option, value):
    tmp, img = built
    with pytest.raises(SystemExit) as exc:
        main(["run", str(img), option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "kpu run: error: argument %s: must be positive" % option in err


def test_strict_assembly_rejects_tainted_source(tmp_path, capsys):
    src = tmp_path / "taint.s"
    src.write_text(""".mode user
.entry start
.org 0x4000
.encrypt on
start:
    l.addi r9, r9, 4
    l.nop  1
""")
    img = tmp_path / "taint.img"
    assert main(["asm", str(src), "-o", str(img)]) == 0
    warn = capsys.readouterr().err
    assert "arithmetic on a program address" in warn

    assert main(["asm", str(src), "-o", str(img), "--quiet"]) == 0
    assert capsys.readouterr().err == ""

    assert main(["asm", str(src), "-o", str(img), "--strict"]) == 2
    capsys.readouterr()


def test_oracle_output_shape(built, capsys):
    tmp, img = built
    assert oracle_entry([str(img)]) == 0
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0] == "42"
    regs = [l for l in lines if l.startswith("r")]
    assert len(regs) == 32
    assert regs[0] == "r00 0x00000000"
    assert regs[2] == "r02 0x0000002a"
    mems = [l for l in lines if l.startswith("mem ")]
    assert mems == ["mem 0x00000000 0x0000002a"]
    assert out.err == "@exit  : steps 6\n"


def test_entry_point_shorthands(tmp_path, capsys):
    src = tmp_path / "p.s"
    img = tmp_path / "p.img"
    src.write_text(SOURCE)
    assert asm_entry([str(src), "-o", str(img)]) == 0
    assert oracle_entry([str(img)]) == 0
    capsys.readouterr()


def test_byte_identical_reruns(built, capsys):
    tmp, img = built
    first = img.read_bytes()
    img2 = tmp / "p2.img"
    assert main(["asm", str(tmp / "p.s"), "-o", str(img2)]) == 0
    assert img2.read_bytes() == first

    blobs = []
    for tag in ("one", "two"):
        dump = tmp / ("%s.dump" % tag)
        stats = tmp / ("%s.stats" % tag)
        assert main(["run", str(img), "--dump", str(dump),
                     "--stats", str(stats)]) == 0
        blobs.append(dump.read_bytes() + stats.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_trace_flag_prints_occupancy(built, capsys):
    tmp, img = built
    assert main(["run", str(img), "--trace"]) == 0
    out = capsys.readouterr()
    trace = [l for l in out.out.splitlines() if l.startswith("cycle")]
    assert trace, "expected per-cycle lines"
    assert any(":0x00004000:" in l for l in trace)
    assert any(" W:" in l for l in trace)


def test_trace_is_printed_ahead_of_a_fault(built, capsys):
    tmp, img = built
    assert main(["run", str(img), "--trace", "--max-cycles", "5"]) == 1
    out = capsys.readouterr()
    assert [l.split(" |")[0] for l in out.out.splitlines()] == \
        ["cycle %d" % n for n in range(5)]
    assert out.err == "kpu run: fault: no exit after 5 cycles\n"


def test_successive_calls_parse_their_own_options(built, capsys):
    # the parser is built once; each call's flags must still be its own
    tmp, img = built
    for trace in (True, False, True):
        assert main(["run", str(img)] + (["--trace"] if trace else [])) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(l.startswith("cycle ") for l in lines) is trace
        assert lines[-1] == "42"
    assert main(["run", str(img), "--max-cycles", "5"]) == 1
    assert main(["run", str(img)]) == 0
    assert "no exit after 5 cycles" in capsys.readouterr().err


@pytest.mark.parametrize("command, option, value, rule", [
    ("run", "--max-cycles", "0", "positive"),
    ("run", "--max-cycles", "-3", "positive"),
    ("run", "--user-words", "-5", "non-negative"),
    ("oracle", "--max-steps", "0", "positive"),
    ("compare", "--max-steps", "-1", "positive"),
])
def test_run_limits_out_of_range_are_usage_errors(built, capsys, command,
                                                  option, value, rule):
    tmp, img = built
    files = [str(img)] + ([str(tmp / "p.dump")] if command == "compare" else [])
    with pytest.raises(SystemExit) as exc:
        main([command] + files + [option, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "kpu %s: error: argument %s: must be %s, not %s" % (
        command, option, rule, value) in err


def test_a_limit_that_is_no_integer_is_a_usage_error(built, capsys):
    tmp, img = built
    with pytest.raises(SystemExit) as exc:
        main(["run", str(img), "--max-cycles", "abc"])
    assert exc.value.code == 2
    assert ("kpu run: error: argument --max-cycles: 'abc' is not an integer"
            in capsys.readouterr().err)


def test_zero_user_words_is_a_program_fault_not_a_usage_error(built, capsys):
    tmp, img = built
    assert main(["run", str(img), "--user-words", "0"]) == 1
    assert "kpu run: fault: " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_unloadable_data_record_is_a_program_fault(tmp_path, capsys, command):
    img = tmp_path / "d.img"
    img.write_text("KPUIMG 1\nENTRY 0x00000100\nMODE super\n"
                   "TEXT 0x00000100 15000001\n"
                   "DATA 0x00000004 0000000000000001\n")
    assert main([command, str(img)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kpu %s: fault: " % command)
    assert err.count("\n") == 1 and "Traceback" not in err


# ROADMAP item 1(d): a supervisor l.ld/l.sd just past the supervisor region
SUPER_PAST_REGION = """.mode super
    l.addi r1, r0, 1
    l.slli r1, r1, 20
    l.ld   r3, 0(r1)
    l.sd   8(r1), r1
    l.nop  2
    l.nop  1
"""


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_supervisor_access_past_the_region_faults_in_both_machines(
        tmp_path, capsys, command):
    src, img = tmp_path / "past.s", tmp_path / "past.img"
    src.write_text(SUPER_PAST_REGION)
    assert main(["asm", str(src), "-o", str(img)]) == 0
    capsys.readouterr()
    assert main([command, str(img)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("kpu %s: fault: address 0x100000" % command)
    assert err.count("\n") == 1 and "Traceback" not in err


# ROADMAP item 1(b): r3 = 0 / 0 is data, not a program address
JUMP_TO_DATA = """.mode user
.entry start
.org 0x700
    l.nop  2
    l.nop  1
.org 0x4000
start:
    l.divu r3, r0, r4
    l.jr   r3
"""


def _jump_to_data(tmp_path, capsys):
    src, img = tmp_path / "jump.s", tmp_path / "jump.img"
    src.write_text(JUMP_TO_DATA)
    assert main(["asm", str(src), "-o", str(img)]) == 0
    capsys.readouterr()
    return img


def test_register_jump_to_data_is_a_machine_fault(tmp_path, capsys):
    assert main(["run", str(_jump_to_data(tmp_path, capsys))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("kpu run: fault: jump target at pc 0x00004004: "
                   "0x7fd88dc0ffffffff is not a program address\n")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1(b): the oracle jumps "
                   "to the data value, prints 4294967295 and exits 0")
def test_register_jump_to_data_is_a_reference_fault(tmp_path, capsys):
    assert main(["oracle", str(_jump_to_data(tmp_path, capsys))]) == 1


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_data_record_past_the_region_is_a_program_fault(tmp_path, capsys,
                                                        command):
    img = tmp_path / "d.img"
    img.write_text("KPUIMG 1\nENTRY 0x00000100\nMODE super\n"
                   "TEXT 0x00000100 15000001\n"
                   "DATA 0x000ffff8 0000000000000001\n"
                   "DATA 0x00100000 0000000000000002\n")
    assert main([command, str(img)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kpu %s: fault: address 0x100000" % command)


def test_run_and_oracle_load_data_records_in_address_order(tmp_path,
                                                          capsys):
    # two unloadable records, the higher address first in the file: both
    # machines load them in address order and fault on the lower one
    img = tmp_path / "d.img"
    img.write_text("KPUIMG 1\nENTRY 0x00000100\nMODE super\n"
                   "TEXT 0x00000100 15000001\n"
                   "DATA 0x00100000 0000000000000001\n"
                   "DATA 0x00000004 0000000000000002\n")
    faults = []
    for command in ("run", "oracle"):
        assert main([command, str(img)]) == 1
        prefix = "kpu %s: fault: " % command
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        faults.append(err[len(prefix):])
    assert faults == ["address 0x4 not 8-aligned\n"] * 2


SUPER_UNALIGNED = """.mode super
    l.lwz  r3, 4(r0)
    l.nop  2
    l.nop  1
"""


@pytest.mark.parametrize("source", [SUPER_UNALIGNED, SUPER_PAST_REGION],
                         ids=["unaligned", "past the region"])
def test_run_and_oracle_word_a_supervisor_fault_alike(tmp_path, capsys,
                                                       source):
    # both machines map supervisor data by the one memsys.super_index
    src, img = tmp_path / "f.s", tmp_path / "f.img"
    src.write_text(source)
    assert main(["asm", str(src), "-o", str(img)]) == 0
    capsys.readouterr()
    faults = []
    for command in ("run", "oracle"):
        assert main([command, str(img)]) == 1
        prefix = "kpu %s: fault: " % command
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        faults.append(err[len(prefix):])
    assert faults[0] == faults[1]


@pytest.mark.parametrize("record", [
    "REG 40 0 0", "REG 01", "MODE", "MODE bogus", "PHYS 5", "OUT",
    # every number unsigned and within its field
    "REG 07 1ffffffffffffffff 0", "REG 07 0 -1", "REG -1 0 0", "OUT -55",
    "OUT 4294967296", "PHYS -3 5", "PHYS 3 -5", "TLBMAP -1 4", "TLBMAP 1 -4",
    "REG 01 zz 0"])
def test_malformed_dump_is_a_format_error(built, capsys, record):
    tmp, img = built
    dump = tmp / "bad.dump"
    dump.write_text("KPUDUMP 1\n%s\n" % record)
    assert main(["compare", str(img), str(dump)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kpu compare: line 2: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_empty_dump_is_a_format_error(tmp_path, capsys):
    # an empty dump, or one cut short after its header or a register, is
    # not an all-zero supervisor state, which this image would match
    src, img, dump = (tmp_path / name for name in ("t.s", "t.img", "e.dump"))
    src.write_text(".mode super\nl.nop 1\n")
    assert main(["asm", str(src), "-o", str(img)]) == 0
    full = render_dump(SimView("super", [0] * 32, [0] * 32))
    no_r17 = "".join(line for line in full.splitlines(True)
                     if not line.startswith("REG 17 "))
    assert no_r17.count("\n") == 33
    for text, err in (("", "line 1: empty dump"),
                      ("KPUDUMP 1\n", "line 1: no MODE record"),
                      (no_r17, "line 33: no REG 17 record")):
        dump.write_text(text)
        assert main(["compare", str(img), str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "kpu compare: %s\n" % err
    dump.write_text(full)
    assert main(["compare", str(img), str(dump)]) == 0


def test_compare_loads_the_image_before_the_dump(tmp_path, capsys):
    img = tmp_path / "bad.img"
    img.write_text("KPUIMG 1\nTEXT -0x4 15000001\n")
    assert main(["compare", str(img), str(tmp_path / "missing.dump")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kpu compare: line 2: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# Outputs are written in place and cut to length, so what an existing file
# held before must never show through, and the file itself stays the same
# inode (a symlink stays a symlink).

def _outputs(img, tmp, tag):
    """Run `img`, writing its dump and stats under `tag`; their paths."""
    dump, stats = tmp / (tag + ".dump"), tmp / (tag + ".stats")
    assert main(["run", str(img), "--dump", str(dump),
                 "--stats", str(stats)]) == 0
    return dump, stats


def test_outputs_over_longer_files_equal_fresh_writes(built, capsys):
    tmp, img = built
    fresh_dump, fresh_stats = _outputs(img, tmp, "fresh")
    old = {}
    for name in ("over.img", "over.dump", "over.stats"):
        path = tmp / name
        path.write_text("stale line that must not survive\n" * 2000)
        path.chmod(0o640)
        old[name] = path.stat().st_ino
    over_img = tmp / "over.img"
    assert main(["asm", str(tmp / "p.s"), "-o", str(over_img)]) == 0
    assert over_img.read_bytes() == img.read_bytes()
    dump, stats = _outputs(img, tmp, "over")
    capsys.readouterr()
    assert dump.read_bytes() == fresh_dump.read_bytes()
    assert stats.read_bytes() == fresh_stats.read_bytes() == \
        STATS_GOLDEN.encode()
    for name, inode in old.items():
        assert (tmp / name).stat().st_ino == inode
        assert (tmp / name).stat().st_mode & 0o777 == 0o640


def test_symlinked_output_is_written_through(built, capsys):
    tmp, img = built
    target, link = tmp / "target.img", tmp / "link.img"
    target.write_text("x" * 10000)
    link.symlink_to(target)
    assert main(["asm", str(tmp / "p.s"), "-o", str(link)]) == 0
    capsys.readouterr()
    assert link.is_symlink()
    assert target.read_bytes() == img.read_bytes()


def test_outputs_to_dev_null_exit_0(built, capsys):
    tmp, img = built
    assert main(["run", str(img), "--dump", os.devnull,
                 "--stats", os.devnull]) == 0
    out = capsys.readouterr()
    assert out.out == "42\n" and out.err == ""


def test_dump_to_a_pipe(built):
    tmp, img = built
    src = str(Path(kpusim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "kpusim.frontend", "run", str(img),
         "--dump", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "OUT 42" in proc.stdout.splitlines()


@pytest.mark.parametrize("command, flag", [("asm", "-o"), ("run", "--dump"),
                                           ("run", "--stats")])
def test_directory_as_output_exits_2(built, capsys, command, flag):
    tmp, img = built
    first = str(tmp / "p.s") if command == "asm" else str(img)
    # the table goes to stderr unless it has a file of its own
    quiet = ["--stats", os.devnull] if flag == "--dump" else []
    assert main([command, first, flag, str(tmp)] + quiet) == 2
    err = capsys.readouterr().err
    assert err == "kpu %s: [Errno 21] Is a directory: %r\n" % (command,
                                                                str(tmp))


@pytest.mark.parametrize("command", ["asm", "run", "oracle", "compare",
                                     "compare dump"])
def test_missing_input_names_its_command(built, capsys, command):
    tmp, img = built
    missing = str(tmp / "missing")
    argv = {"asm": ["asm", missing, "-o", str(tmp / "x.img")],
            "run": ["run", missing],
            "oracle": ["oracle", missing],
            "compare": ["compare", missing, str(tmp / "p.dump")],
            "compare dump": ["compare", str(img), missing]}[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "kpu %s: [Errno 2] No such file or directory: %r\n" % (
        argv[0], missing)


@pytest.mark.parametrize("command", ["asm", "run", "oracle", "compare",
                                     "compare dump"])
def test_input_that_is_not_utf8_is_a_format_error(built, capsys, command):
    tmp, img = built
    binary = tmp / "binary"
    binary.write_bytes(b"KPUIMG 1\n\xff\xfe\x00\x80\n")
    assert main(["run", str(img), "--dump", str(tmp / "p.dump"),
                 "--stats", os.devnull]) == 0
    capsys.readouterr()
    argv = {"asm": ["asm", str(binary), "-o", str(tmp / "x.img")],
            "run": ["run", str(binary)],
            "oracle": ["oracle", str(binary)],
            "compare": ["compare", str(binary), str(tmp / "p.dump")],
            "compare dump": ["compare", str(img), str(binary)]}[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "kpu %s: not utf-8 text (invalid start byte at byte 9): " \
        "%r\n" % (argv[0], str(binary))


@pytest.mark.parametrize("command", ["asm", "run", "oracle", "compare"])
@pytest.mark.parametrize("key, rule", [
    ("zz", "key must be hexadecimal"),
    ("1" + "0" * 32, "key wider than 128 bits"),
])
def test_bad_key_is_a_usage_error(built, capsys, command, key, rule):
    tmp, img = built
    files = {"asm": [str(tmp / "p.s"), "-o", str(tmp / "x.img")],
             "compare": [str(img), str(tmp / "p.dump")]}.get(command,
                                                              [str(img)])
    with pytest.raises(SystemExit) as exc:
        main([command] + files + ["--key", key])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("kpu %s: error: argument --key: %s\n" % (command,
                                                                 rule))


def test_a_non_default_key_round_trips(tmp_path, capsys):
    key = ["--key", "0f1e2d3c4b5a69788796a5b4c3d2e1f0"]
    img, dump = tmp_path / "sum.img", tmp_path / "sum.dump"
    source = str(ROOT / "programs" / "encrypted_sum.s")
    assert main(["asm", source, "-o", str(img)] + key) == 0
    assert main(["run", str(img), "--dump", str(dump)] + key) == 0
    assert capsys.readouterr().out == "55\n"
    assert main(["compare", str(img), str(dump)] + key) == 0
    assert capsys.readouterr().out == "MISMATCHES 0\n"
    # the image is sealed under that key alone
    assert main(["asm", source, "-o", str(tmp_path / "default.img")]) == 0
    assert (tmp_path / "default.img").read_text() != img.read_text()


@pytest.mark.parametrize("command, name, text, error", [
    ("asm", "n.s", "l.addi r3, r0, 1_0\n", "line 1: cannot parse expression '1_0'"),
    ("run", "n.img", "KPUIMG 1\nENTRY +0x00000100\n",
     "line 2: bad number in 'ENTRY +0x00000100'"),
])
def test_a_number_with_a_sign_or_underscore_exits_2(tmp_path, capsys, command,
                                                    name, text, error):
    path = tmp_path / name
    path.write_text(text)
    argv = [command, str(path)] + (["-o", str(tmp_path / "n.img")]
                                   if command == "asm" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == "kpu %s: %s\n" % (command, error)
