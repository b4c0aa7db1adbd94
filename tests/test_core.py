"""Mode, register bank, SPR, and trap protocol checks."""

import random

import pytest

from kpusim.codec import Codec, to_decrypted_address
from kpusim.core import (CONFIG_ID, MachineState, Mode, SPR_CONFIG, SPR_EPCR,
                         SPR_SR, pack_sr, unpack_sr)

KEY = 0x00112233445566778899AABBCCDDEEFF


def fresh(mode=Mode.SUPERVISOR):
    return MachineState(Codec(KEY), mode=mode)


def test_sr_pack_unpack_round_trip():
    for bits in range(16):
        quad = (bool(bits & 1), bool(bits & 2), bool(bits & 4), bool(bits & 8))
        assert unpack_sr(pack_sr(*quad)) == quad


def test_user_writes_stay_in_the_shadow_bank():
    ms = fresh(Mode.USER)
    block = (0xCAFE0001 << 32) | 123
    ms.write_register(5, block)
    assert ms.shadow[5] == block
    assert ms.regs[5] == 0          # real bank stale until the next flush
    assert 5 in ms.stale
    assert ms.shadow[5] == block


def test_flush_encrypts_and_containment_holds():
    cdc = Codec(KEY)
    ms = MachineState(cdc, mode=Mode.USER)
    rng = random.Random(5)
    blocks = {}
    for i in range(1, 9):
        blocks[i] = ((0x40000000 + i) << 32) | rng.getrandbits(32)
        ms.write_register(i, blocks[i])
    ms.flush_shadows()
    for i in range(1, 9):
        real = ms.regs[i]
        assert real != blocks[i]                 # ciphertext at rest
        assert cdc.decrypt(real) == blocks[i]    # and it opens back up
        assert i not in ms.stale


def test_program_address_writes_keep_both_banks():
    ms = fresh(Mode.USER)
    ms.write_register(9, to_decrypted_address(0x104), program_address=True)
    assert ms.regs[9] == 0x104               # zero-filled at rest
    assert ms.shadow[9] == to_decrypted_address(0x104)
    assert 9 not in ms.stale


def test_r0_is_immutable():
    ms = fresh(Mode.USER)
    ms.write_register(0, (0x40000001 << 32) | 7)
    assert ms.shadow[0] == 0
    assert ms.regs[0] == 0 and ms.shadow[0] == 0


def test_user_spr_visibility():
    ms = fresh(Mode.USER)
    ms.flag_f = True
    assert ms.read_spr(SPR_CONFIG) == CONFIG_ID
    assert ms.read_spr(SPR_SR) == 0          # masked outside the whitelist
    assert ms.read_spr(SPR_EPCR) == 0
    ms.write_spr(SPR_EPCR, 0x555)            # silently dropped
    assert ms.epcr == 0


def test_supervisor_spr_rules():
    ms = fresh()
    assert ms.read_spr(SPR_SR) & 1           # SM bit reads back set
    ms.write_spr(SPR_SR, pack_sr(False, True, True, False))
    assert ms.mode is Mode.SUPERVISOR        # mtspr cannot clear SM
    assert ms.flag_f and ms.flag_cy and not ms.flag_ov
    ms.write_spr(SPR_CONFIG, 1)
    assert ms.read_spr(SPR_CONFIG) == CONFIG_ID
    ms.write_spr(100, 0xABCD)
    assert ms.read_spr(100) == 0xABCD


def test_trap_entry_saves_and_clears():
    ms = fresh(Mode.USER)
    ms.flag_f = ms.flag_cy = True
    block = (0x12340001 << 32) | 9
    ms.write_register(4, block)
    ms.enter_exception(0xC00, 0x2004)
    assert ms.mode is Mode.SUPERVISOR
    assert ms.pc == 0xC00
    assert ms.epcr == 0x2004
    assert not (ms.flag_f or ms.flag_cy or ms.flag_ov)
    assert unpack_sr(ms.hidden_esr) == (False, True, True, False)
    assert ms.codec.decrypt(ms.regs[4]) == block   # flushed on the way in


def test_rfe_restores_user_context():
    ms = fresh(Mode.USER)
    ms.flag_f = True
    kept = (0x23450001 << 32) | 5
    ms.write_register(4, kept)
    ms.enter_exception(0xC00, 0x2008)
    ms.flag_cy = True                        # handler clobbers flags
    handed = (0x56780002 << 32) | 77
    ms.write_register(3, ms.codec.encrypt(handed))
    ms.rfe()
    assert ms.mode is Mode.USER
    assert ms.pc == 0x2008
    assert ms.flag_f and not ms.flag_cy
    assert ms.shadow[3] == handed            # mapped in from the handler
    assert ms.shadow[4] == kept              # untouched register kept


def test_boot_rfe_drops_to_user_mode():
    # hidden_esr starts all-zero, so an early l.rfe lands in user mode
    ms = fresh()
    ms.epcr = 0x4000
    ms.rfe()
    assert ms.mode is Mode.USER
    assert ms.pc == 0x4000


def test_rfe_outside_supervisor_mode_asserts():
    ms = fresh(Mode.USER)
    with pytest.raises(AssertionError):
        ms.rfe()


def test_map_in_rules():
    cdc = Codec(KEY)
    ms = MachineState(cdc)
    block = (0x77880001 << 32) | 42
    ms.write_register(6, cdc.encrypt(block))   # ciphertext for the user
    ms.write_register(7, 0x104)                # zero-filled program address
    ms.epcr = 0x4000
    ms.rfe()
    assert ms.shadow[6] == block
    assert ms.shadow[7] == to_decrypted_address(0x104)
