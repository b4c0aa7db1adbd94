"""Block cipher, padding stream, and program-address form checks."""

import random

import pytest

from kpusim.codec import (CROSSOVER, MASK32, MASK64, Codec,
                          NotAProgramAddress, feistel_round, feistel_unround,
                          is_decrypted_address, is_encrypted_address,
                          key_schedule, make_padding, open_program_address,
                          pad_is_valid, pad_mix, rotl32, to_decrypted_address,
                          to_encrypted_address)
from kpusim.frontend import DEFAULT_KEY

KEY = 0x000102030405060708090A0B0C0D0E0F


def test_single_round_known_value():
    # one round of the all-zero block under the golden-ratio constant
    assert feistel_round(0, 0x9E3779B9) == 0x00000000B9F45688


def test_round_then_unround_is_identity():
    rng = random.Random(11)
    for _ in range(2000):
        block = rng.getrandbits(64)
        k = rng.getrandbits(32)
        assert feistel_unround(feistel_round(block, k), k) == block


def test_key_schedule_known_values():
    keys = key_schedule(KEY)
    assert len(keys) == 10
    assert keys[0] == 0x72D5556D
    assert keys[1] == 0x9DDE4CD4
    assert keys[9] == 0xCAEFE201


def test_encrypt_known_vector():
    cdc = Codec(KEY)
    assert cdc.encrypt((0x2A << 32) | 7) == 0x9CE26A1058C394E2


def test_encrypt_is_the_ten_round_composition():
    """The block routines must stay expressible as per-round passes.

    The pipeline opens an encrypted immediate by folding the single-round
    function over the reversed key schedule, so encrypt/decrypt, each one
    loop over the two halves, must equal the fold of the single-round
    functions over the key schedule, in order.
    """
    cdc = Codec(KEY)
    rng = random.Random(22)
    for _ in range(500):
        block = rng.getrandbits(64)
        forward = block
        for k in cdc.round_keys:
            forward = feistel_round(forward, k)
        assert forward == cdc.encrypt(block)
        back = forward
        for k in reversed(cdc.round_keys):
            back = feistel_unround(back, k)
        assert back == block
        assert cdc.decrypt(forward) == block


# The round as first written: f composed of two rotl32 calls, the block
# split into 32-bit halves and joined again. The flat kernels must equal it.

def _reference_f(x, k):
    return (rotl32(x ^ k, 7) + (rotl32(x, 13) ^ k)) & MASK32


def _reference_round(block, k):
    left, right = (block >> 32) & MASK32, block & MASK32
    return (right << 32) | ((left ^ _reference_f(right, k)) & MASK32)


def _reference_unround(block, k):
    left, right = (block >> 32) & MASK32, block & MASK32
    return (((right ^ _reference_f(left, k)) & MASK32) << 32) | left


EDGE_BLOCKS = (0, MASK64, 1 << 63, MASK32, MASK32 << 32)
EDGE_KEYS = (0, MASK32, 1, 1 << 31)


def _sample_blocks():
    rng = random.Random(88)
    return list(EDGE_BLOCKS) + [rng.getrandbits(64) for _ in range(3000)]


def test_round_kernels_equal_the_reference_round():
    rng = random.Random(99)
    cases = [(block, k) for block in EDGE_BLOCKS for k in EDGE_KEYS]
    cases += [(block, rng.getrandbits(32)) for block in _sample_blocks()]
    for block, k in cases:
        assert feistel_round(block, k) == _reference_round(block, k)
        assert feistel_unround(block, k) == _reference_unround(block, k)


def test_block_routines_equal_the_reference_rounds():
    cdc = Codec(DEFAULT_KEY)
    for block in _sample_blocks():
        forward = back = block
        for k in cdc.round_keys:
            forward = _reference_round(forward, k)
        for k in reversed(cdc.round_keys):
            back = _reference_unround(back, k)
        assert cdc.encrypt(block) == forward
        assert cdc.decrypt(block) == back


def _wide_and_negative_blocks():
    rng = random.Random(111)
    blocks = [1 << 64, (1 << 64) + 7, MASK64 << 3, -1, -(1 << 63),
              -(1 << 64), -(1 << 70) - 5]
    blocks += [rng.getrandbits(96) | (1 << 64) for _ in range(200)]
    blocks += [-rng.getrandbits(80) - 1 for _ in range(200)]
    return blocks


def test_block_routines_equal_the_fold_on_wide_and_negative_ints():
    # every routine reads a block as bits 63..32 and 31..0 of the int, so
    # bits above 64 and a sign read the same way in the loop and the fold
    cdc = Codec(DEFAULT_KEY)
    for block in _wide_and_negative_blocks():
        forward = back = block
        for k in cdc.round_keys:
            forward = feistel_round(forward, k)
        for k in reversed(cdc.round_keys):
            back = feistel_unround(back, k)
        assert cdc.encrypt(block) == forward
        assert cdc.decrypt(block) == back
        assert cdc.encrypt(block) == cdc.encrypt(block & MASK64)


def _assert_batches_equal_blocks(cdc, blocks):
    assert cdc.encrypt_many(blocks) == [cdc.encrypt(b) for b in blocks]
    assert cdc.decrypt_many(blocks) == [cdc.decrypt(b) for b in blocks]


@pytest.mark.parametrize("key", [KEY, DEFAULT_KEY], ids=["KEY", "DEFAULT"])
def test_batched_routines_equal_the_block_routines(key):
    cdc = Codec(key)
    _assert_batches_equal_blocks(cdc, _sample_blocks())
    _assert_batches_equal_blocks(cdc, _wide_and_negative_blocks())
    rng = random.Random(key & 0xFFFF)
    for n in (0, 1, CROSSOVER - 1, CROSSOVER, 64, 1000):
        _assert_batches_equal_blocks(cdc, [rng.getrandbits(64)
                                           for _ in range(n)])


@pytest.mark.parametrize("key", [KEY, DEFAULT_KEY], ids=["KEY", "DEFAULT"])
def test_batched_lanes_keep_their_spill_and_carry(key):
    # a round's sum reaches a lane's guard bits, and its right shifts read
    # the lane above: where every lane's first round xors its half to all
    # ones (encrypt's right half, decrypt's left) or the half is all ones,
    # a right shift that kept the neighbour's bits would carry into it
    cdc = Codec(key)
    k0, k9 = cdc.round_keys[0], cdc.reversed_keys[0]
    for block in (~k0 & MASK32, (~k9 & MASK32) << 32, MASK64):
        _assert_batches_equal_blocks(cdc, [block] * 64)


def test_batched_round_trip():
    cdc = Codec(KEY)
    rng = random.Random(112)
    blocks = [rng.getrandbits(64) for _ in range(500)]
    blocks += _wide_and_negative_blocks()
    assert cdc.decrypt_many(cdc.encrypt_many(blocks)) \
        == [block & MASK64 for block in blocks]


# (block, encrypt(block), decrypt(block)) under DEFAULT_KEY, taken from the
# composed rounds before they were flattened
KNOWN_ANSWERS = [
    (0x0000000000000000, 0x0688FAB132205A91, 0x9EE35D172FAB77C5),
    (0xFFFFFFFFFFFFFFFF, 0xCC20B6E158721127, 0x6DA10CDD53AE668A),
    (0x0000002A00000007, 0x9DA7BA19CD68789E, 0xFF9568C500FD8A17),
    (0x0123456789ABCDEF, 0x89787730BDA52A6C, 0x715E54E6B6216C28),
]


@pytest.mark.parametrize("block, cipher, plain", KNOWN_ANSWERS,
                         ids=["%016x" % case[0] for case in KNOWN_ANSWERS])
def test_default_key_known_answers(block, cipher, plain):
    cdc = Codec(DEFAULT_KEY)
    assert cdc.encrypt(block) == cipher
    assert cdc.decrypt(block) == plain


def test_round_trip_random_blocks():
    cdc = Codec(KEY)
    rng = random.Random(33)
    for _ in range(10000):
        block = rng.getrandbits(64)
        assert cdc.decrypt(cdc.encrypt(block)) == block


def test_key_sensitivity():
    rng = random.Random(44)
    a = Codec(KEY)
    b = Codec(KEY ^ 1)
    for _ in range(2000):
        block = rng.getrandbits(64)
        assert a.encrypt(block) != b.encrypt(block)


def test_oversized_key_rejected():
    with pytest.raises(ValueError):
        Codec(1 << 128)


def test_padding_stream_known_value():
    assert make_padding(5, 3) == 0x5C25D135


def test_padding_determinism_and_validity():
    rng = random.Random(55)
    for _ in range(5000):
        seed = rng.getrandbits(64)
        ordinal = rng.randrange(1 << 20)
        pad = make_padding(seed, ordinal)
        assert pad == make_padding(seed, ordinal)
        assert pad_is_valid(pad)


def test_padding_attempts_walk_one_stream():
    # attempt k picks the k-th next valid candidate, all distinct
    seen = [make_padding(9, 9, attempt=a) for a in range(12)]
    assert len(set(seen)) == 12
    for pad in seen:
        assert pad_is_valid(pad)


def test_pad_validity_rules():
    assert not pad_is_valid(0)
    assert not pad_is_valid(0x7FFF0000)
    assert not pad_is_valid(0x7FFFFFFF)
    assert pad_is_valid(1)
    assert pad_is_valid(0x7FFE0000)
    assert pad_is_valid(0x80000000)


def test_pad_mix_known_value():
    assert pad_mix(1, 2, 0) == 0x9E15


def test_pad_mix_is_deterministic_and_valid():
    rng = random.Random(66)
    for _ in range(20000):
        a = rng.getrandbits(32)
        b = rng.getrandbits(32)
        op = rng.randrange(12)
        mixed = pad_mix(a, b, op)
        assert mixed == pad_mix(a, b, op)
        assert pad_is_valid(mixed)


def _reference_pad_mix(pad_a, pad_b, op_id):
    mixed = (rotl32(pad_a, 5) ^ pad_b ^ ((0x9E37 << op_id) & MASK32)) & MASK32
    if not pad_is_valid(mixed):
        mixed ^= 0x40000001
    return mixed


def test_pad_mix_equals_the_reference():
    rng = random.Random(67)
    fixups = {"zero": 0, "tag": 0}
    for op in range(12):
        cases = [(rng.getrandbits(32), rng.getrandbits(32))
                 for _ in range(300)]
        # pads a caller has not masked: wider than 32 bits, or negative
        cases += [(rng.getrandbits(40), -rng.getrandbits(36))
                  for _ in range(50)]
        for _ in range(20):
            # a zero mix, and a mix whose top half is the 0x7fff tag
            a = rng.getrandbits(32)
            zero = rotl32(a, 5) ^ ((0x9E37 << op) & MASK32)
            cases += [(a, zero),
                      (a, zero ^ (0x7FFF << 16) ^ rng.getrandbits(16))]
        for a, b in cases:
            raw = (rotl32(a, 5) ^ b ^ ((0x9E37 << op) & MASK32)) & MASK32
            if raw == 0:
                fixups["zero"] += 1
            elif raw >> 16 == 0x7FFF:
                fixups["tag"] += 1
            assert pad_mix(a, b, op) == _reference_pad_mix(a, b, op)
    assert fixups["zero"] >= 12 and fixups["tag"] >= 12


def test_pad_mix_fixup_branch():
    # craft operands whose raw mix collapses to zero for op 0
    a = 0x12345678
    b = rotl32(a, 5) ^ 0x9E37
    assert pad_mix(a, b, 0) == 0x40000001


def test_program_address_forms():
    assert to_encrypted_address(0x104) == 0x0000000000000104
    assert to_decrypted_address(0x104) == 0x7FFF000000000104
    assert is_encrypted_address(0x104)
    assert is_decrypted_address(0x7FFF000000000104)
    assert not is_decrypted_address(0x7FFF000100000104)
    assert open_program_address(0x104) == 0x104
    assert open_program_address(0x7FFF000000000104) == 0x104
    with pytest.raises(NotAProgramAddress):
        open_program_address(0x1122334455667788)


def test_padded_data_never_looks_like_a_program_address():
    rng = random.Random(77)
    for _ in range(2000):
        pad = make_padding(3, rng.randrange(4096))
        block = (pad << 32) | rng.getrandbits(32)
        assert not is_encrypted_address(block)
        assert not is_decrypted_address(block)
        with pytest.raises(NotAProgramAddress):
            open_program_address(block)
