"""Almost-universal hashing and one-time MACs.

Two hash families:

  PolyEval  -- message blocks as coefficients of a polynomial evaluated at
               the seed over F_{q_u}, q_u the largest prime <= 2^k.
               Collision fraction for fixed distinct messages <= l / q_u.
  Toeplitz  -- GF(2) matrix-vector product where the k x L matrix has
               constant diagonals filled from a (k + L - 1)-bit seed.
               XOR-universal with collision fraction exactly 2^-k.

Both key the registration MAC (au2_hash). PolyEval is the default: its key
is one k-bit element of F_{q_u}, so the calculator keeps 32 bytes per
secret at k = 256 whatever the payload size. Its hash is
polyeval_hash_bytes, the same byte-string hash the key network's channels
pad into Wegman-Carter tags: 31-byte blocks at k = 256, each read behind a
0x01 marker, so messages of every length hash to distinct polynomials and
no separate length block is needed.

Registration bound. For a registered (t1, data) and any other claim, the
two tags agree for at most l of the q_u keys, l the block count of the
longer message; a forgery attempt succeeds with probability <= l / q_u.
A 100 KB payload is about 3,300 blocks, so at k = 256 the bound is below
2^-244; Toeplitz gives 2^-256. Both are negligible.

That bound assumes no forger sees the registered tag. Once tag and data
are both known, the key is narrowed to the <= l roots of one polynomial,
so the tag is confined to the calculator -> verifier messages (tag-report,
check-tag, refute-tag) and never reaches the owner or the end user.
Toeplitz keeps its 2^-k bound even for a forger who has seen a registered
tag, at the price of a seed as long as the framed payload and k bit-passes
over it per tag. It stays selectable (mac: {scheme: toeplitz}) for that
property.

Both PolyEval hashes run through one evaluator, polyeval_tag_blocks, which
works as Poly1305 implementations do (Bernstein, FSE 2005): a chunk of
POLY_CHUNK blocks is one dot product with the precomputed powers
[r, ..., r^POLY_CHUNK] mod q, and the chunks are joined by Horner's rule in
r^POLY_CHUNK with one reduction per chunk. The value is the same sum of
D_i * r^i the block-by-block Horner rule gives, so tags are unchanged.

Bit conventions, fixed so tags are bit-exact across platforms:
  - message bit j (wire order, MSB first) is bit (L-1-j) of the big-endian
    message integer;
  - Toeplitz seed bit p is bit p of the seed integer;
  - tag bit i is tag[i] = parity((seed >> i) & message_int), packed MSB
    first into k bits.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field as dc_field
from enum import Enum
from itertools import repeat
from operator import mul

from .errors import ConfigurationError, SingleUseError
from .field import largest_prime_at_most

__all__ = [
    "MacScheme",
    "MacTag",
    "MacSeed",
    "MIN_POLYEVAL_K",
    "check_k",
    "polyeval_modulus",
    "polyeval_powers",
    "polyeval_tag_blocks",
    "polyeval_hash_bytes",
    "split_blocks",
    "toeplitz_tag_bits",
    "au2_hash",
    "recompute_tag",
    "make_seed",
    "seed_to_bytes",
    "seed_from_bytes",
    "cr_hash",
    "DEFAULT_K",
]

DEFAULT_K = 256

POLY_CHUNK = 64  # blocks per dot product in polyeval_tag_blocks

# polyeval_hash_bytes cuts whole-byte blocks, which needs q_u >= 2^10; with
# whole-byte tags 16 is the least such k
MIN_POLYEVAL_K = 16

_LENGTH_FIELD_BITS = 64  # Toeplitz frame prefix: message bit-length, big-endian


class MacScheme(Enum):
    TOEPLITZ = "toeplitz"
    POLYEVAL = "polyeval"


_POLYEVAL_MODULI: dict = {}


def check_k(scheme: MacScheme, k: int) -> None:
    """Refuse a tag width the scheme cannot key: tags and seeds are stored
    in whole bytes, so k % 8 == 0, and PolyEval needs k >= MIN_POLYEVAL_K."""
    if scheme is MacScheme.POLYEVAL and k < MIN_POLYEVAL_K:
        raise ConfigurationError(
            "PolyEval needs k >= %d for whole-byte blocks, got %d"
            % (MIN_POLYEVAL_K, k))
    if k % 8:
        raise ConfigurationError(
            "tags are whole bytes, so k must be a multiple of 8, got %d" % k)


def polyeval_modulus(k: int) -> int:
    """Largest prime <= 2^k; Bertrand guarantees it is >= 2^k / k for k >= 2."""
    if k < 2:
        raise ConfigurationError("PolyEval needs k >= 2")
    if k not in _POLYEVAL_MODULI:
        _POLYEVAL_MODULI[k] = largest_prime_at_most(1 << k)
    return _POLYEVAL_MODULI[k]


@dataclass(frozen=True)
class MacTag:
    """A k-bit tag; value is the tag bits as an MSB-first integer."""

    value: int
    k: int

    def __post_init__(self):
        if not 0 <= self.value < (1 << self.k):
            raise ConfigurationError("tag value out of k-bit range")

    def to_bytes(self) -> bytes:
        if self.k % 8:
            raise ConfigurationError("byte serialization needs k % 8 == 0")
        return self.value.to_bytes(self.k // 8, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacTag":
        return cls(int.from_bytes(raw, "big"), len(raw) * 8)

    def bit(self, i: int) -> int:
        """Tag bit i (i = 0 is the first, most significant, bit)."""
        return (self.value >> (self.k - 1 - i)) & 1


@dataclass
class MacSeed:
    """One-time hash seed drawn from the key supply.

    PolyEval: value is one uniform element of F_{q_u}, width_bits == k.
    Toeplitz: value holds k + width_bits - 1 seed bits, where width_bits is
    the widest hashed input this seed can cover.

    consumed flips when the seed tags its one registered datum; recomputing
    the same binding for verification does not consume (see recompute_tag).
    """

    scheme: MacScheme
    k: int
    value: int
    width_bits: int
    q_u: "int | None" = None
    consumed: bool = dc_field(default=False)

    @property
    def bit_count(self) -> int:
        if self.scheme is MacScheme.TOEPLITZ:
            return self.k + self.width_bits - 1 if self.width_bits else max(self.k - 1, 0)
        return self.k

    @property
    def byte_count(self) -> int:
        return (self.bit_count + 7) // 8

    def consume(self):
        if self.consumed:
            raise SingleUseError("MAC seed already bound to a registered datum")
        self.consumed = True


def make_seed(scheme: MacScheme, k: int, randomness, width_bits: int = 0) -> MacSeed:
    """Draw a fresh seed. width_bits is the Toeplitz frame width (ignored
    for PolyEval); the registration layer passes 64 + 8*len(D)."""
    check_k(scheme, k)
    if scheme is MacScheme.POLYEVAL:
        q_u = polyeval_modulus(k)
        while True:
            v = randomness.take_bits(k)
            if v < q_u:
                return MacSeed(MacScheme.POLYEVAL, k, v, k, q_u=q_u)
    nbits = k + width_bits - 1 if width_bits else max(k - 1, 0)
    return MacSeed(MacScheme.TOEPLITZ, k, randomness.take_bits(nbits), width_bits)


def split_blocks(message: bytes, block_bits: int):
    """Message bits into block_bits-wide integers, final block zero-padded.

    Returns (blocks, original bit length). Bits are consumed MSB-first.
    Linear time: eight blocks fill exactly block_bits bytes, so each run
    of block_bits bytes is read as one integer and cut into eight blocks.
    """
    if block_bits < 1:
        raise ConfigurationError("block_bits must be >= 1")
    nbits = len(message) * 8
    if nbits == 0:
        return [], 0
    nblocks = -(-nbits // block_bits)
    step = block_bits  # bytes per group of eight blocks
    padded = message + bytes(-len(message) % step)
    mask = (1 << block_bits) - 1
    shifts = [block_bits * (7 - i) for i in range(8)]
    from_bytes = int.from_bytes
    blocks = [(group >> s) & mask
              for group in [from_bytes(padded[i:i + step], "big")
                            for i in range(0, len(padded), step)]
              for s in shifts]
    del blocks[nblocks:]
    return blocks, nbits


def polyeval_powers(r: int, q: int, count: int = POLY_CHUNK) -> list:
    """[r, r^2, ..., r^count] mod q: the key powers polyeval_tag_blocks
    takes. A channel builds them once per hash key."""
    r %= q
    powers = [r]
    for _ in range(count - 1):
        powers.append(powers[-1] * r % q)
    return powers


def polyeval_tag_blocks(r: int, blocks, q: int, powers=None,
                        marker: int = 0) -> int:
    """sum (blocks[i-1] + marker) * r^i mod q, blocks in wire order (first
    block is D_1).

    powers is polyeval_powers(r, q); it is built here when not passed. Each
    chunk of POLY_CHUNK blocks is one dot product with powers, plus marker
    times the sum of the powers it used; chunks are joined by Horner's rule
    in r^POLY_CHUNK, last chunk first, with one reduction each.
    """
    n = len(blocks)
    if not n:
        return 0
    if powers is None:
        powers = polyeval_powers(r, q, min(n, POLY_CHUNK))
    start = (n - 1) // POLY_CHUNK * POLY_CHUNK  # first block of the last chunk
    last = blocks[start:]
    acc = (sum(map(mul, last, powers))
           + marker * sum(powers[:len(last)])) % q
    if start:
        step = powers[POLY_CHUNK - 1]  # r^POLY_CHUNK
        chunk_marker = marker * sum(powers)
        for i in range(start - POLY_CHUNK, -1, -POLY_CHUNK):
            acc = (acc * step + sum(map(mul, blocks[i:i + POLY_CHUNK], powers))
                   + chunk_marker) % q
    return acc


def polyeval_hash_bytes(r: int, message: bytes, q: int, powers=None) -> int:
    """PolyEval hash of a byte string, for any message length.

    The message is cut into byte-aligned blocks of (q.bit_length() - 2) // 8
    bytes, the last one possibly shorter, and each block is read big-endian
    behind a 0x01 byte, as Poly1305 marks its blocks. The marker records
    each block's width, so every block is non-zero and below q, and distinct
    messages give distinct polynomials: an appended or dropped zero byte
    changes the hash. For distinct messages of at most L blocks,
    h_r(m) - h_r(m') takes any one value for at most L of the q keys r.

    The full blocks are cut by one regular-expression split and their
    markers enter as polyeval_tag_blocks' marker term, 2^(8 * step) per
    block; only a short last block is built with its own marker.
    """
    step = (q.bit_length() - 2) // 8
    if step < 1:
        raise ConfigurationError("modulus too small for byte blocks")
    blocks = list(map(int.from_bytes, re.findall(b".{%d}" % step, message, re.S),
                      repeat("big")))
    marker = 1 << (8 * step)
    tail = message[len(blocks) * step:]
    if tail:
        # the short block carries its own, narrower marker, so it enters
        # less the full-width one the evaluator adds to every block
        blocks.append(int.from_bytes(b"\x01" + tail, "big") - marker)
    return polyeval_tag_blocks(r, blocks, q, powers, marker)


def toeplitz_tag_bits(seed: int, message: int, message_bits: int, k: int) -> int:
    """Raw Toeplitz tag of a message_bits-wide input under a seed integer.

    The seed must carry at least k + message_bits - 1 bits of entropy; the
    caller is responsible for that budget (MacSeed paths enforce it).
    """
    if message_bits:
        message &= (1 << message_bits) - 1
        # row i reads seed bits i .. i + message_bits - 1 only, so wider
        # bits would just be shifted k times for nothing
        seed &= (1 << (message_bits + k - 1)) - 1
    out = 0
    for i in range(k):
        out = (out << 1) | (((seed >> i) & message).bit_count() & 1)
    return out


def _toeplitz_frame(message: bytes, width_bits: int) -> int:
    """[64-bit big-endian bit length || message bits], zero-padded to width."""
    nbits = len(message) * 8
    need = _LENGTH_FIELD_BITS + nbits
    if need > width_bits:
        raise ConfigurationError(
            "message needs a %d-bit frame but the seed covers %d" % (need, width_bits))
    length_value, message_width = nbits, nbits
    frame = (length_value << message_width) | int.from_bytes(message, "big")
    return frame << (width_bits - need)


def _hash_for_seed(seed: MacSeed, message: bytes) -> int:
    if seed.scheme is MacScheme.POLYEVAL:
        return polyeval_hash_bytes(seed.value, message, seed.q_u)
    frame = _toeplitz_frame(message, seed.width_bits)
    return toeplitz_tag_bits(seed.value, frame, seed.width_bits, seed.k)


def au2_hash(seed: MacSeed, message: bytes) -> MacTag:
    """Registration MAC: almost-universal hash of the message, framed so
    messages of different lengths cannot collide by padding.

    Consumes the seed; a second tagging call raises SingleUseError. The
    verification side recomputes the same binding via recompute_tag.
    """
    if not message:
        raise ConfigurationError("au2_hash requires a non-empty message")
    if seed.consumed:
        raise SingleUseError("MAC seed already used for a registration")
    tag = MacTag(_hash_for_seed(seed, message), seed.k)
    seed.consume()
    return tag


def recompute_tag(seed: MacSeed, message: bytes) -> MacTag:
    """Recompute the tag for an existing binding (integrity check, refute)."""
    if not message:
        raise ConfigurationError("recompute_tag requires a non-empty message")
    return MacTag(_hash_for_seed(seed, message), seed.k)


def seed_to_bytes(seed: MacSeed) -> bytes:
    if seed.k % 8:
        raise ConfigurationError("seed serialization needs k % 8 == 0")
    return seed.value.to_bytes(seed.byte_count, "big")


def seed_from_bytes(raw: bytes, scheme: MacScheme, k: int) -> MacSeed:
    """Rebuild a seed from storage. For Toeplitz the frame width is implied
    by the byte count: ceil((k + w - 1)/8) == (k + w)/8 when both are
    byte-aligned, so w = 8*len(raw) - k."""
    if scheme is MacScheme.POLYEVAL:
        return MacSeed(MacScheme.POLYEVAL, k, int.from_bytes(raw, "big"), k,
                       q_u=polyeval_modulus(k), consumed=True)
    width = len(raw) * 8 - k
    if width < 0:
        raise ConfigurationError("stored seed shorter than k bits")
    return MacSeed(MacScheme.TOEPLITZ, k, int.from_bytes(raw, "big"), width,
                   consumed=True)


def cr_hash(message: bytes) -> bytes:
    """Collision-resistant 512-bit digest (the computational-security mode)."""
    return hashlib.sha512(message).digest()
