"""Block codec and the plaintext-domain word conventions.

User-mode state is kept as 64-bit ciphertext blocks. The plaintext domain
behind them uses two disjoint shapes:

  padded data word     (pad << 32) | value32, where the pad avoids the two
                       program-address patterns below
  program address      "encrypted" form: zero-filled to 64 bits
                       "decrypted" form: top 16 bits forced to 0x7fff

The cipher is a 10-round balanced Feistel on 64-bit blocks, one round per
codec pipeline stage. Each block routine is one loop of ten rounds over the
two 32-bit halves, with no call and no repack between rounds. The one-round
kernels (feistel_round, feistel_unround) serve the stages C1..C10, which
the pipeline folds when it opens an encrypted immediate at fetch, and the
tests, which hold the block routines equal to that fold. It is
deliberately lightweight and pluggable; nothing here claims cryptographic
strength, only bijectivity and determinism.
"""


MASK16 = 0xFFFF
MASK32 = 0xFFFFFFFF
MASK64 = 0xFFFFFFFFFFFFFFFF

GOLDEN = 0x9E3779B9  # 32-bit golden-ratio constant used by the key fold

ROUNDS = 10

# Decrypted program-address marker in the top 16 bits.
ADDR_TAG = 0x7FFF


class ProgramFault(Exception):
    """The program did something its machine cannot continue from; each
    machine's faults derive from this, and a kpu command exits 1 on one."""


class NotAProgramAddress(Exception):
    """64-bit value is in neither program-address form."""


def rotl32(x, n):
    n &= 31
    x &= MASK32
    return ((x << n) | (x >> (32 - n))) & MASK32 if n else x


def key_schedule(key):
    """Fold a 128-bit master key into the ten 32-bit round keys."""
    if not 0 <= key <= (1 << 128) - 1:
        raise ValueError("master key must be a 128-bit integer")
    words = [(key >> (96 - 32 * i)) & MASK32 for i in range(4)]
    ks = []
    for i in range(ROUNDS):
        mixed = words[i % 4] ^ (((i + 1) * GOLDEN) & MASK32)
        mixed = (mixed * GOLDEN) & MASK32
        ks.append(rotl32(mixed, (7 * i) % 32) ^ words[(i + 1) % 4])
    return ks


# A round maps the halves (L, R) to (R, L ^ f(R, k)), where
#     f(x, k) = (rotl32(x ^ k, 7) + (rotl32(x, 13) ^ k)) mod 2**32
# mixes rotate, xor and 32-bit add so that differences both shift and
# propagate through carries. The rotates are written out in place, here
# and in the block routines' loops. A rotate's bits above 32 are left in;
# the sum's low 32 bits do not see them.

def feistel_round(block, k):
    """One forward Feistel round."""
    left = (block >> 32) & MASK32
    right = block & MASK32
    x = (right ^ k) & MASK32
    f = (((x << 7) | (x >> 25)) + (((right << 13) | (right >> 19)) ^ k)) & MASK32
    return (right << 32) | (left ^ f)


def feistel_unround(block, k):
    """Inverse of feistel_round with the same round key."""
    left = (block >> 32) & MASK32
    right = block & MASK32
    x = (left ^ k) & MASK32
    f = (((x << 7) | (x >> 25)) + (((left << 13) | (left >> 19)) ^ k)) & MASK32
    return ((right ^ f) << 32) | left


class Codec:
    """Encrypt/decrypt 64-bit blocks under a fixed 128-bit key."""

    def __init__(self, key):
        self.key = key
        self.round_keys = key_schedule(key)
        self._reversed = list(reversed(self.round_keys))

    def encrypt(self, block):
        left = (block >> 32) & MASK32
        right = block & MASK32
        for k in self.round_keys:
            x = right ^ k
            f = ((x << 7) | (x >> 25)) + (((right << 13) | (right >> 19)) ^ k)
            left, right = right, left ^ (f & MASK32)
        return (left << 32) | right

    def decrypt(self, block):
        left = (block >> 32) & MASK32
        right = block & MASK32
        for k in self._reversed:
            x = left ^ k
            f = ((x << 7) | (x >> 25)) + (((left << 13) | (left >> 19)) ^ k)
            left, right = right ^ (f & MASK32), left
        return (left << 32) | right


# ---------------------------------------------------------------- padding --

def pad_is_valid(pad):
    """Pads may not collide with either program-address top half."""
    pad &= MASK32
    return pad != 0 and (pad >> 16) != ADDR_TAG


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return x, z ^ (z >> 31)


def make_padding(seed, ordinal, attempt=0):
    """Deterministic 32-bit pad for assembly-time constant number `ordinal`.

    Invalid candidates are skipped, so the result always satisfies
    pad_is_valid. `attempt` selects later candidates from the same stream;
    the assembler uses it when a ciphertext must land on fixed bits.
    """
    state = (seed & MASK64) ^ ((ordinal * 0xD1B54A32D192ED03) & MASK64)
    remaining = attempt
    while True:
        state, out = _splitmix64(state)
        pad = out & MASK32
        if pad_is_valid(pad):
            if remaining == 0:
                return pad
            remaining -= 1


def pad_mix(pad_a, pad_b, op_id):
    """Pad provenance for a runtime ALU result.

    Deterministic in the operand pads and the operation, so recomputing a
    value recomputes its padding (and therefore its ciphertext) exactly.
    Only each pad's low 32 bits count: a caller may pass a block >> 32.
    """
    a = pad_a & MASK32
    mixed = (((a << 5) | (a >> 27)) ^ pad_b ^ (0x9E37 << op_id)) & MASK32
    if not mixed or mixed >> 16 == ADDR_TAG:     # not pad_is_valid(mixed)
        mixed ^= 0x40000001
    return mixed


def word_value(block):
    """Low 32 bits of a plaintext-domain block."""
    return block & MASK32


# -------------------------------------------------- program-address forms --

def is_encrypted_address(block):
    """Zero-filled form: how program addresses travel in encrypted storage."""
    return (block >> 32) == 0


def is_decrypted_address(block):
    """0x7fff-tagged form: how program addresses look inside the ALU."""
    return (block >> 48) == ADDR_TAG and ((block >> 32) & MASK16) == 0


def to_encrypted_address(pc):
    return pc & MASK32


def to_decrypted_address(pc):
    return (ADDR_TAG << 48) | (pc & MASK32)


def open_program_address(block):
    """Recover the 32-bit pc from either program-address form."""
    if is_encrypted_address(block) or is_decrypted_address(block):
        return block & MASK32
    raise NotAProgramAddress("0x%016x is not a program address" % block)
