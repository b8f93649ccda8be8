"""Tests for the almost-universal hash families and one-time MACs.

Oracles come first: a term-by-term polynomial evaluator and an explicit
Toeplitz matrix-vector product over GF(2). Frozen values were computed by
hand from the definitions and are asserted against both oracle and
implementation.
"""

import hashlib
import random
import time

import pytest

from itstore.entropy import SeededEntropy
from itstore.errors import ConfigurationError, SingleUseError
from itstore.mac import (
    MacTag,
    au2_hash,
    check_k,
    make_seed,
    polyeval_hash_bytes,
    POLY_CHUNK,
    polyeval_modulus,
    polyeval_powers,
    polyeval_tag_blocks,
    recompute_tag,
    seed_from_bytes,
    seed_to_bytes,
    toeplitz_tag_bits,
)
from itstore.spss import split_blocks
from oracles import bits_drawn


# ------------------------------------------------------------------ oracles

def polyeval_oracle(r, blocks, q):
    """sum_{i>=1} blocks[i-1] * r^i mod q, one term at a time."""
    return sum(b * pow(r, i, q) for i, b in enumerate(blocks, start=1)) % q


def horner_oracle(r, blocks, q):
    """The same sum by Horner's rule, one block and one reduction a step."""
    acc = 0
    for b in reversed(blocks):
        acc = (acc * r + b) % q
    return acc * r % q


def marked_blocks(message, step):
    """Byte-hash blocks cut one by one, each behind its 0x01 marker."""
    return [int.from_bytes(b"\x01" + message[i:i + step], "big")
            for i in range(0, len(message), step)]


def toeplitz_matrix(seed_bits, k, length):
    """The k x length matrix with T[i][j] = seed_bits[i - j + length - 1]."""
    assert len(seed_bits) == k + length - 1
    return [[seed_bits[i - j + length - 1] for j in range(length)]
            for i in range(k)]


def toeplitz_oracle(seed_bits, message_bits, k):
    length = len(message_bits)
    t = toeplitz_matrix(seed_bits, k, length)
    return [sum(t[i][j] * message_bits[j] for j in range(length)) % 2
            for i in range(k)]


def seed_bits_to_int(bits):
    """Seed bit p lives at integer bit p."""
    return sum(b << p for p, b in enumerate(bits))


def message_bits_to_int(bits):
    """Message bit j (wire order) lives at integer bit (L - 1 - j)."""
    length = len(bits)
    return sum(b << (length - 1 - j) for j, b in enumerate(bits))


def tag_int_to_bits(value, k):
    return [(value >> (k - 1 - i)) & 1 for i in range(k)]


def split_blocks_oracle(message, width):
    """Cut the message's bit string, zero-padded to whole blocks."""
    bits = "".join(format(byte, "08b") for byte in message)
    bits += "0" * (-len(bits) % width)
    return [int(bits[i:i + width], 2) for i in range(0, len(bits), width)]


# ----------------------------------------------------------------- polyeval

def test_polyeval_toy_frozen():
    # q = 7, r = 2, blocks (3, 5): 3*2 + 5*4 = 26 = 5 mod 7
    assert polyeval_oracle(2, [3, 5], 7) == 5
    assert polyeval_tag_blocks(2, [3, 5], 7) == 5


def test_polyeval_edge_cases():
    assert polyeval_tag_blocks(3, [], 7) == 0
    assert polyeval_tag_blocks(3, [0, 0, 0], 7) == 0
    # single block: b * r
    assert polyeval_tag_blocks(4, [6], 7) == 6 * 4 % 7


def test_polyeval_matches_oracle_randomized():
    rng = random.Random(0x1701)
    q = 251
    for _ in range(60):
        r = rng.randrange(q)
        blocks = [rng.randrange(q) for _ in range(rng.randrange(1, 9))]
        assert polyeval_tag_blocks(r, blocks, q) == polyeval_oracle(r, blocks, q)


@pytest.mark.parametrize("tag_bits", [16, 24, 256])
def test_chunked_byte_hash_equals_horner_oracle_at_every_length(tag_bits):
    # Every message length from 0 to three chunks of blocks plus a byte,
    # so each chunk edge is crossed with full, short and missing last
    # blocks; the keys include 0, 1 and q - 1.
    q = polyeval_modulus(tag_bits)
    step = (q.bit_length() - 2) // 8
    rng = random.Random(tag_bits)
    message = rng.randbytes(3 * POLY_CHUNK * step + 1)
    keys = (0, 1, q - 1, rng.randrange(q))
    for n in range(len(message) + 1):
        blocks = marked_blocks(message[:n], step)
        r = keys[n % len(keys)]
        powers = polyeval_powers(r, q)
        want = horner_oracle(r, blocks, q)
        assert polyeval_hash_bytes(r, message[:n], q) == want, n
        assert polyeval_hash_bytes(r, message[:n], q, powers) == want, n


@pytest.mark.parametrize("tag_bits", [16, 256])
def test_the_byte_hash_read_a_chunk_at_a_time_equals_the_whole_block_list(
        tag_bits):
    # polyeval_hash_bytes cuts and folds POLY_CHUNK blocks at a time, last
    # chunk first; its value is polyeval_tag_blocks over every marked
    # block at once, at the edges of a block, of a chunk and past several
    # chunks with a short last block
    q = polyeval_modulus(tag_bits)
    step = (q.bit_length() - 2) // 8
    chunk = POLY_CHUNK * step
    rng = random.Random(0xB10C + tag_bits)
    lengths = (0, 1, step - 1, step, chunk - 1, chunk, chunk + 1,
               5 * chunk + 3 * step + step // 2 + 1)
    for n in lengths:
        message = rng.randbytes(n)
        blocks = marked_blocks(message, step)
        for r in (0, 1, q - 1, rng.randrange(q)):
            want = polyeval_tag_blocks(r, blocks, q)
            assert polyeval_hash_bytes(r, message, q) == want, n
            assert polyeval_hash_bytes(r, message, q,
                                       polyeval_powers(r, q)) == want, n


def test_chunked_evaluator_equals_horner_oracle_around_chunk_edges():
    q = polyeval_modulus(256)
    rng = random.Random(0xC4)
    edges = {POLY_CHUNK * c + d for c in range(4) for d in (-1, 0, 1)}
    for n in sorted(e for e in edges if e >= 0):
        blocks = [rng.randrange(q) for _ in range(n)]
        r = rng.randrange(q)
        marker = rng.randrange(1 << 248)
        want = horner_oracle(r, blocks, q)
        assert polyeval_tag_blocks(r, blocks, q) == want, n
        assert polyeval_tag_blocks(r, blocks, q, polyeval_powers(r, q)) == want
        assert polyeval_tag_blocks(r, blocks, q, marker=marker) == \
            horner_oracle(r, [b + marker for b in blocks], q), n


def test_polyeval_powers_are_the_key_powers():
    q = polyeval_modulus(256)
    r = 0x1234567 ** 9
    assert polyeval_powers(r, q) == [pow(r, i, q) for i in range(1, POLY_CHUNK + 1)]
    assert polyeval_powers(r, q, 3) == [pow(r, i, q) for i in (1, 2, 3)]


def test_polyeval_modulus_values():
    assert polyeval_modulus(2) == 3
    assert polyeval_modulus(4) == 13
    assert polyeval_modulus(8) == 251
    assert polyeval_modulus(16) == 65521
    with pytest.raises(ConfigurationError):
        polyeval_modulus(1)


def test_split_blocks_frozen():
    # 0xab = 10101011 into 6-bit blocks: 101010 | 11 + four pad zeros
    blocks, nbits = split_blocks(b"\xab", 6)
    assert nbits == 8
    assert blocks == [0b101010, 0b110000]
    assert split_blocks(b"", 6) == ([], 0)


def test_split_blocks_reassembles():
    rng = random.Random(7)
    for _ in range(40):
        msg = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 12)))
        width = rng.randrange(1, 17)
        blocks, nbits = split_blocks(msg, width)
        big = 0
        for b in blocks:
            big = (big << width) | b
        big >>= len(blocks) * width - nbits
        assert big == int.from_bytes(msg, "big")
        assert all(0 <= b < (1 << width) for b in blocks)


SPLIT_WIDTHS = [1, 7, 8, 126, 2202]


@pytest.mark.parametrize("width", SPLIT_WIDTHS)
def test_split_blocks_matches_bit_string_oracle(width):
    rng = random.Random(width)
    messages = [rng.randbytes(n) for n in range(41)]
    messages.append(rng.randbytes(100 * 1024))
    for msg in messages:
        blocks, nbits = split_blocks(msg, width)
        assert nbits == 8 * len(msg)
        assert blocks == split_blocks_oracle(msg, width)


def test_registration_tags_are_pinned():
    # The tag of a fixed 1001-byte message may not move: polyeval_hash_bytes
    # over 31-byte marked blocks.
    msg = hashlib.shake_256(b"registration tag pin").digest(1001)
    seed = make_seed(256, SeededEntropy(11, "tag-pin"))
    assert au2_hash(seed, msg).to_bytes().hex() == (
        "b9c2a85e12e89b664fcbd683c21510fd063faeecaddca43ca7a8687fbe5ac858")


# ----------------------------------------------------------------- toeplitz

def test_toeplitz_toy_frozen():
    # k = 2, message [1, 1, 0], seed [1, 0, 1, 1] -> tag [1, 0]
    seed_bits = [1, 0, 1, 1]
    msg_bits = [1, 1, 0]
    assert toeplitz_oracle(seed_bits, msg_bits, 2) == [1, 0]
    value = toeplitz_tag_bits(seed_bits_to_int(seed_bits),
                              message_bits_to_int(msg_bits), 3, 2)
    assert tag_int_to_bits(value, 2) == [1, 0]


def test_toeplitz_matches_oracle_exhaustive_small():
    k, length = 2, 3
    for seed in range(1 << (k + length - 1)):
        seed_bits = [(seed >> p) & 1 for p in range(k + length - 1)]
        for msg in range(1 << length):
            msg_bits = [(msg >> (length - 1 - j)) & 1 for j in range(length)]
            want = toeplitz_oracle(seed_bits, msg_bits, k)
            got = toeplitz_tag_bits(seed, msg, length, k)
            assert tag_int_to_bits(got, k) == want


def test_toeplitz_matches_oracle_randomized():
    rng = random.Random(0x7e0)
    k, length = 8, 24
    for _ in range(50):
        seed_bits = [rng.randrange(2) for _ in range(k + length - 1)]
        msg_bits = [rng.randrange(2) for _ in range(length)]
        want = toeplitz_oracle(seed_bits, msg_bits, k)
        got = toeplitz_tag_bits(seed_bits_to_int(seed_bits),
                                message_bits_to_int(msg_bits), length, k)
        assert tag_int_to_bits(got, k) == want


def test_toeplitz_is_linear():
    rng = random.Random(0x109)
    k, length = 8, 32
    for _ in range(40):
        seed = rng.getrandbits(k + length - 1)
        m1 = rng.getrandbits(length)
        m2 = rng.getrandbits(length)
        t1 = toeplitz_tag_bits(seed, m1, length, k)
        t2 = toeplitz_tag_bits(seed, m2, length, k)
        t3 = toeplitz_tag_bits(seed, m1 ^ m2, length, k)
        assert t3 == t1 ^ t2
    assert toeplitz_tag_bits(rng.getrandbits(k + length - 1), 0, length, k) == 0


def toeplitz_unmasked(seed, message, message_bits, k):
    """Reference tag that shifts the whole seed on every row."""
    if message_bits:
        message &= (1 << message_bits) - 1
    out = 0
    for i in range(k):
        out = (out << 1) | (((seed >> i) & message).bit_count() & 1)
    return out


@pytest.mark.parametrize("message_bits", [0, 1, 64, 8256])
def test_toeplitz_ignores_seed_bits_beyond_the_message(message_bits):
    # channel seeds grow to the longest message, so most tags are taken
    # with a seed much wider than message_bits + k - 1
    rng = random.Random(0x5eed + message_bits)
    for k in (1, 8, 256):
        need = message_bits + k - 1
        for extra in (1, 64, 3 * need + 1000):
            seed = rng.getrandbits(need + extra) | (1 << (need + extra - 1))
            message = rng.getrandbits(max(message_bits, 64)) | 1
            assert toeplitz_tag_bits(seed, message, message_bits, k) == \
                toeplitz_unmasked(seed, message, message_bits, k)


def test_toeplitz_collision_fraction_exhaustive():
    # Over all seeds, distinct equal-length messages collide on exactly
    # a 2^-k fraction (the tag of the difference is uniform).
    k, length = 2, 3
    nseeds = 1 << (k + length - 1)
    for m1 in range(1 << length):
        for m2 in range(m1 + 1, 1 << length):
            hits = sum(
                toeplitz_tag_bits(s, m1, length, k) ==
                toeplitz_tag_bits(s, m2, length, k)
                for s in range(nseeds))
            assert hits / nseeds == pytest.approx(2 ** -k)


# ------------------------------------------------- universality with framing

def framed_polyeval_blocks(message, q):
    # split_blocks' bit blocks plus an explicit length block: a second
    # framing of the PolyEval family, narrow enough for exhaustive k = 8
    # censuses (polyeval_hash_bytes needs k >= 10)
    width = q.bit_length() - 2
    blocks, nbits = split_blocks(message, width)
    blocks.append(nbits & ((1 << width) - 1))
    return blocks


def test_framed_collision_census_k8():
    # For fixed distinct 3-byte messages, the fraction of PolyEval seeds
    # producing a tag collision stays under 2^-k times the message bit
    # length. Exhaustive over all 251 seeds.
    q = polyeval_modulus(8)
    bound = 24 * 2 ** -8
    rng = random.Random(0xce11)
    worst = 0.0
    for _ in range(100):
        m1 = rng.getrandbits(24).to_bytes(3, "big")
        m2 = rng.getrandbits(24).to_bytes(3, "big")
        if m1 == m2:
            continue
        b1 = framed_polyeval_blocks(m1, q)
        b2 = framed_polyeval_blocks(m2, q)
        hits = sum(polyeval_tag_blocks(r, b1, q) == polyeval_tag_blocks(r, b2, q)
                   for r in range(q))
        worst = max(worst, hits / q)
    assert worst <= bound


def test_universality_bound_sweep():
    # Collision fraction <= 2^-k * log2(domain size) at several widths.
    # The k = 2 leg uses the Toeplitz family, whose 2^-k bound holds at
    # any width; PolyEval covers k = 4 and k = 8.
    rng = random.Random(0xa0a0)

    k, length = 2, 4
    nseeds = 1 << (k + length - 1)
    for _ in range(30):
        m1, m2 = rng.getrandbits(length), rng.getrandbits(length)
        if m1 == m2:
            continue
        hits = sum(
            toeplitz_tag_bits(s, m1, length, k) ==
            toeplitz_tag_bits(s, m2, length, k)
            for s in range(nseeds))
        assert hits / nseeds <= 2 ** -k * length

    for k, nbytes in ((4, 1), (8, 3)):
        q = polyeval_modulus(k)
        bound = 2 ** -k * (8 * nbytes)
        for _ in range(60):
            m1 = bytes(rng.randrange(256) for _ in range(nbytes))
            m2 = bytes(rng.randrange(256) for _ in range(nbytes))
            if m1 == m2:
                continue
            b1 = framed_polyeval_blocks(m1, q)
            b2 = framed_polyeval_blocks(m2, q)
            hits = sum(
                polyeval_tag_blocks(r, b1, q) == polyeval_tag_blocks(r, b2, q)
                for r in range(q))
            assert hits / q <= bound


def test_framing_separates_zero_padded_messages():
    # b"\x2a" and b"\x2a\x00" share leading blocks after padding; the
    # length block must keep them apart for almost every seed.
    q = polyeval_modulus(8)
    b1 = framed_polyeval_blocks(b"\x2a", q)
    b2 = framed_polyeval_blocks(b"\x2a\x00", q)
    assert b1 != b2
    hits = sum(polyeval_tag_blocks(r, b1, q) == polyeval_tag_blocks(r, b2, q)
               for r in range(q))
    assert hits / q <= 6 / q


def test_byte_hash_blocks_are_marked_slices():
    # 2^256 - 189: 31-byte blocks, each read behind a 0x01 byte
    q = polyeval_modulus(256)
    message = bytes(range(70))
    blocks = [int.from_bytes(b"\x01" + message[i:i + 31], "big")
              for i in (0, 31, 62)]
    assert all(0 < b < q for b in blocks)
    for r in (0, 1, 2, q - 1, 0x1234567 ** 9 % q):
        assert polyeval_hash_bytes(r, message, q) == \
            polyeval_oracle(r, blocks, q)
    assert polyeval_hash_bytes(5, b"", q) == 0


def test_byte_hash_difference_bound_exhaustive():
    # q = 1021 cuts 1-byte blocks. For distinct messages of at most L
    # blocks, h_r(m1) - h_r(m2) hits any one difference for at most L of
    # the q keys: the AU bound the channel MAC's forgery bound rests on.
    # Trailing and leading zero bytes are in the set on purpose.
    q = polyeval_modulus(10)
    alphabet = (b"\x00", b"\x01", b"\xff")
    messages = [b""]
    for _ in range(3):
        messages += [m + c for m in messages if len(m) == len(messages[-1])
                     for c in alphabet]
    messages = sorted(set(messages))
    assert len(messages) == 1 + 3 + 9 + 27
    table = {m: [polyeval_hash_bytes(r, m, q) for r in range(q)]
             for m in messages}
    rng = random.Random(0xd1ff)
    for i, m1 in enumerate(messages):
        for m2 in messages[i + 1:]:
            limit = max(len(m1), len(m2))
            for delta in (0, rng.randrange(1, q)):
                hits = sum((a - b - delta) % q == 0
                           for a, b in zip(table[m1], table[m2]))
                assert hits <= limit, (m1, m2, delta)


# ------------------------------------------------------------ seed handling

def test_au2_single_use_and_recompute():
    rng = SeededEntropy(b"single-use")
    seed = make_seed(16, rng)
    tag = au2_hash(seed, b"hello")
    assert seed.consumed
    with pytest.raises(SingleUseError):
        au2_hash(seed, b"hello")
    assert recompute_tag(seed, b"hello") == tag
    assert recompute_tag(seed, b"hello") == tag
    with pytest.raises(ConfigurationError):
        recompute_tag(seed, b"")


def test_au2_rejects_empty_message():
    rng = SeededEntropy(b"empty")
    seed = make_seed(16, rng)
    with pytest.raises(ConfigurationError):
        au2_hash(seed, b"")


def test_make_seed_properties():
    rng = SeededEntropy(b"seed-props")
    pe = make_seed(16, rng)
    assert 0 < pe.value < polyeval_modulus(16)
    assert pe.k == 16 and pe.byte_count == 2
    # determinism: a fresh source with the same master replays the draw
    again = make_seed(16, SeededEntropy(b"seed-props"))
    assert again.value == pe.value


def test_make_seed_redraws_key_zero_and_keys_past_q():
    # key 0 tags every message 0, and a zeroed calculator record reads as
    # key 0, so it is never drawn
    q = polyeval_modulus(16)

    class Draws:
        def __init__(self, values):
            self.values = list(values)

        def take_bits(self, nbits):
            assert nbits == 16
            return self.values.pop(0)

    draws = Draws([0, q, 0xffff, 7])
    assert make_seed(16, draws).value == 7 and draws.values == []


def test_registration_polyeval_is_the_channel_hash():
    # one PolyEval hash: the registration tag of (t1 || data) is
    # polyeval_hash_bytes under the seed, for every length around a block
    rng = SeededEntropy(b"one-hash")
    message = bytes(range(256)) * 2
    for n in (1, 30, 31, 32, 62, 63, 500):
        seed = make_seed(256, rng)
        assert recompute_tag(seed, message[:n]).value == \
            polyeval_hash_bytes(seed.value, message[:n], seed.q_u)


def test_polyeval_needs_k_of_16():
    for k in (2, 8, 15):
        with pytest.raises(ConfigurationError, match="k >= 16"):
            make_seed(k, SeededEntropy(b"narrow"))
    assert make_seed(16, SeededEntropy(b"narrow")).k == 16
    with pytest.raises(ConfigurationError, match="multiple of 8"):
        make_seed(20, SeededEntropy(b"narrow"))


@pytest.mark.parametrize("k", [520, 4096, 1 << 16])
def test_polyeval_refuses_k_above_512_before_any_modulus_search(k):
    # the modulus search scans down from 2^k: 0.16 s at k = 512, 10.7 s at
    # 2,048 and 103 s at 4,096, so a wider k would stall the first tag
    rng = SeededEntropy(b"wide")
    started = time.process_time()
    with pytest.raises(ConfigurationError) as info:
        make_seed(k, rng)
    assert str(info.value) == (
        "PolyEval needs k <= 512 for a prompt modulus search, got %d" % k)
    assert time.process_time() - started < 1.0
    assert bits_drawn(rng) == 0
    check_k(512)


def test_seed_serialization_roundtrip():
    rng = SeededEntropy(b"serialize")
    pe = make_seed(16, rng)
    raw = seed_to_bytes(pe)
    assert len(raw) == 2
    back = seed_from_bytes(raw, 16)
    assert back.value == pe.value and back.q_u == pe.q_u
    assert back.consumed
    msg = b"\x01\x02\x03\x04"
    assert recompute_tag(back, msg) == recompute_tag(pe, msg)


def test_mac_tag_bits_and_bytes():
    assert MacTag(0b1011, 4).value == 0b1011
    with pytest.raises(ConfigurationError):
        MacTag(16, 4)
    t16 = MacTag(0xbeef, 16)
    assert MacTag.from_bytes(t16.to_bytes()) == t16


# ------------------------------------------------------------ Wegman-Carter

def wc_tag_value(r, pad, message, q):
    """Wegman-Carter tag of the channel MAC: (h_r(message) + pad) mod q."""
    return (polyeval_hash_bytes(r, message, q) + pad) % q


def test_wc_round_trip_and_reuse():
    # One constant hash key r, a fresh additive pad per message.
    rng = SeededEntropy(b"wc-basic")
    q = polyeval_modulus(16)
    r = rng.take_bits(16) % q
    pad = rng.take_bits(16) % q
    msg = b"eight by"
    tag = wc_tag_value(r, pad, msg, q)
    assert tag >> 8  # so truncating it to 8 bits changes it
    # verification recomputes and never consumes: it holds every time
    assert wc_tag_value(r, pad, msg, q) == tag
    assert wc_tag_value(r, pad, msg, q) == tag
    assert wc_tag_value(r, pad, b"eight bY", q) != tag
    assert wc_tag_value(r, pad, msg, q) != tag ^ 1
    assert wc_tag_value(r, pad, msg, q) != tag & 0xff
    # the key r is reused; the pad is not: the next message's fresh pad
    # moves its tag by exactly the pad difference
    pad2 = rng.take_bits(16) % q
    assert pad2 != pad
    assert wc_tag_value(r, pad2, msg, q) == (tag - pad + pad2) % q


def test_wc_polyeval_scheme_round_trip():
    rng = SeededEntropy(b"wc-pe")
    q = polyeval_modulus(16)
    r = rng.take_bits(16) % q
    pad = rng.take_bits(16) % q
    assert r  # r = 0 would hash every message to 0
    tag = wc_tag_value(r, pad, b"12345678", q)
    assert wc_tag_value(r, pad, b"12345678", q) == tag
    assert wc_tag_value(r, pad, b"12345679", q) != tag
