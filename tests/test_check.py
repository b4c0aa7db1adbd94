"""The checker: what compare() reports, and the one record reader behind
the image and dump formats."""

from pathlib import Path

import pytest

from kpusim.assembler import FormatError, assemble, parse_image
from kpusim.check import (SimView, compare, engine_view, parse_sim_dump,
                          render_dump)
from kpusim.codec import Codec
from kpusim.oracle import interpret
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF
ROOT = Path(__file__).resolve().parent.parent


def encrypted_sum():
    """A finished user-mode machine on programs/encrypted_sum.s, and the
    reference's result for it."""
    c = Codec(KEY)
    image = assemble((ROOT / "programs" / "encrypted_sum.s").read_text(), c)
    engine = Engine(image, c)
    engine.run()
    return engine, interpret(image, c), c


def block(pad, word):
    return (pad << 32) | word


def test_compare_reports_an_address_only_the_machine_holds():
    engine, res, c = encrypted_sum()
    assert compare(engine_view(engine), res, c) == []
    engine.mem.user_store(block(0x1234, 0x9000), block(0x5678, 42))
    assert compare(engine_view(engine), res, c) == [
        "memory 0x00009000: machine 0x0000002a, missing from reference"]


def test_compare_passes_a_machine_only_address_left_blank():
    # a cell the machine mapped but never wrote reads as the reference's
    # never-written cell does
    engine, res, c = encrypted_sum()
    view = engine_view(engine)
    view.tlb[c.encrypt(block(0x1234, 0x9000))] = 1 << 20
    assert compare(view, res, c) == []


def test_compare_reports_an_exit_mode_mismatch():
    engine, res, c = encrypted_sum()
    view = engine_view(engine)
    assert view.mode == "user"
    view.mode = "super"
    assert compare(view, res, c)[0] == "mode: machine super, reference user"


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment\n   \n"])
@pytest.mark.parametrize("parse, what", [(parse_image, "image"),
                                         (parse_sim_dump, "dump")])
def test_a_file_with_no_records_is_empty(parse, what, text):
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == "line 1: empty %s" % what


@pytest.mark.parametrize("parse, magic", [(parse_image, "KPUIMG 1"),
                                          (parse_sim_dump, "KPUDUMP 1")])
def test_the_first_record_must_be_the_header(parse, magic):
    with pytest.raises(FormatError) as info:
        parse("# comment\n\nMODE user\n%s\n" % magic)
    assert str(info.value) == "line 3: expected %s header" % magic
    # a dump also needs its mode and every register after the header
    rest = "" if parse is parse_image else render_dump(
        SimView("super", [0] * 32, [0] * 32)).split("\n", 1)[1]
    parse("\n  %s  # header\n%s" % (magic.replace(" ", "\t"), rest))
