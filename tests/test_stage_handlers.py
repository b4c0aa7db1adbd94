"""The engine's fetch record binds each stage's work per class and mode:
an execute handler for X, a memory handler for loads and stores, and a
retire handler for what commit writes. A stage with nothing to do for a
class gets no handler, so no cycle calls one that does nothing.
"""

from collections import Counter
from pathlib import Path

import pytest

from kpusim import isa, pipeline
from kpusim.assembler import Image, assemble
from kpusim.codec import Codec
from kpusim.core import Mode
from kpusim.isa import InstrClass
from kpusim.pipeline import Engine

KEY = 0x00112233445566778899AABBCCDDEEFF
ROOT = Path(__file__).resolve().parent.parent

MEMORY_MNEMONICS = {"l.lwz", "l.sw", "l.ld", "l.sd"}


@pytest.mark.parametrize("program", ["bench/is_add_test.s",
                                     "programs/syscall_ticks.s"])
def test_memory_step_runs_once_per_load_or_store(program, monkeypatch):
    calls = Counter()

    def counted(handler):
        def wrapper(self, cell, n):
            calls[cell.record.instr.mnemonic] += 1
            return handler(self, cell, n)
        return wrapper

    for name in [name for name in vars(Engine) if name.startswith("_mem")]:
        monkeypatch.setattr(Engine, name, counted(getattr(Engine, name)))
    # the fetch table binds handlers at import: rebuild it on the wrappers
    monkeypatch.setattr(pipeline, "_FETCH", pipeline._fetch_table())
    cdc = Codec(KEY)
    engine = Engine(assemble((ROOT / program).read_text(), cdc), cdc)
    engine.run()

    assert set(calls) <= MEMORY_MNEMONICS
    assert "l.add64" not in (ROOT / program).read_text()
    retired = {cls: sum(engine.stats.mode(m).completions[cls] for m in Mode)
               for cls in (InstrClass.LOAD, InstrClass.STORE,
                           InstrClass.CLASS64)}
    assert calls["l.lwz"] == retired[InstrClass.LOAD]
    assert calls["l.sw"] == retired[InstrClass.STORE]
    assert calls["l.ld"] + calls["l.sd"] == retired[InstrClass.CLASS64]
    assert sum(calls.values()) > 0


# The handlers each class may bind, per stage; None is no work. Where a
# handler has a `_user` twin, user mode binds the twin.
FITS = {
    InstrClass.REGISTER: ({"_ex_alu", "_ex_alu_user", "_ex_set_flag"},
                          {None}, {"_retire_alu", "_retire_flag"}),
    InstrClass.IMMEDIATE: ({"_ex_immediate", "_ex_immediate_user"},
                           {None}, {"_retire_alu"}),
    InstrClass.LOAD: ({"_ex_address", "_ex_address_user"},
                      {"_mem_load", "_mem_load_user"},
                      {"_retire_write"}),
    InstrClass.STORE: ({"_ex_address", "_ex_address_user"},
                       {"_mem_store", "_mem_store_user"},
                       {None}),
    InstrClass.CLASS64: ({"_ex_address", "_ex_add64"},
                         {None, "_mem_load64", "_mem_store64"},
                         {None, "_retire_write"}),
    InstrClass.BRANCH: ({"_ex_branch"}, {None}, {None}),
    InstrClass.JUMP: ({"_ex_jump", "_ex_jump_register"}, {None},
                      {None, "_retire_link"}),
    InstrClass.SPR: ({None, "_ex_mfspr", "_ex_mfspr_user", "_ex_mtspr"},
                     {None}, {None, "_retire_write"}),
    InstrClass.NOP: ({None}, {None},
                     {None, "_retire_exit", "_retire_print"}),
    InstrClass.PREFIX: ({None}, {None}, {None}),
    InstrClass.SYSTRAP: ({None}, {None}, {"_retire_sys", "_retire_rfe"}),
}


def _record(word, mode):
    image = Image(entry=0x4000, mode=mode,
                  text={} if word is None else {0x4000: word})
    engine = Engine(image, Codec(KEY))
    return engine, engine._record(0x4000, engine.state.mode)


def _is_carrier(record):
    return (record.instr.mnemonic == "l.illegal"
            and record.execute is None and record.memory is None
            and record.retire is Engine._retire_illegal)


@pytest.mark.parametrize("mode", ["user", "super"])
def test_every_decodable_class_dispatches_to_engine_handlers(mode):
    covered = set()
    for row in isa.TABLE:
        word = isa.encode(isa.instruction(
            row.mnemonic, **{name: 0 for name, *_ in row.fields}))
        ins = isa.decode(word)
        covered.add(ins.cls)
        engine, record = _record(word, mode)
        if mode == "user" and isa.user_illegal(ins):
            assert _is_carrier(record), row.mnemonic
            continue
        assert not _is_carrier(record), row.mnemonic
        handlers = (record.execute, record.memory, record.retire)
        names = tuple(h and h.__name__ for h in handlers)
        for handler, name, fits in zip(handlers, names, FITS[ins.cls]):
            assert name in fits, row.mnemonic
            if handler is not None:
                assert handler is getattr(Engine, name), row.mnemonic
                twin = name.removesuffix("_user")
                if twin != name or hasattr(Engine, twin + "_user"):
                    assert name.endswith("_user") == (mode == "user"), name
        memory = row.mnemonic in MEMORY_MNEMONICS
        assert memory == (record.memory is not None), row.mnemonic
        x, _, m = record.positions
        assert (x >= 0) == (record.execute is not None), row.mnemonic
        assert (m >= 0) == (record.memory is not None and mode == "user")

        # the slot retires under its class; a user-mode immediate fetched
        # with no prefix pair ahead of it is a carrier
        while engine.stats.instructions == 0:
            engine.step()
        sealed = mode == "user" and ins.cls is InstrClass.IMMEDIATE
        expect = InstrClass.SYSTRAP if sealed else ins.cls
        completions = engine.stats.mode(Mode(mode)).completions
        assert completions[expect] == 1, row.mnemonic
    assert covered == set(InstrClass)


@pytest.mark.parametrize("mode", ["user", "super"])
@pytest.mark.parametrize("word", [None, 0xFFFFFFFF, 0x14000000],
                         ids=["unmapped", "no opcode", "reserved bits"])
def test_undecodable_words_fetch_as_carriers(mode, word):
    _, record = _record(word, mode)
    assert _is_carrier(record)
