"""Almost-universal hashing and one-time MACs.

One hash family keys both MACs:

  PolyEval  -- message blocks as coefficients of a polynomial evaluated at
               the key over F_{q_u}, q_u the largest prime <= 2^k.
               Collision fraction for fixed distinct messages <= l / q_u.

The registration MAC (au2_hash) is keyed by one k-bit element of F_{q_u},
so the calculator keeps 32 bytes per secret at k = 256 whatever the
payload size. Its hash is polyeval_hash_bytes, the same byte-string hash
the key network's channels pad into Wegman-Carter tags: 31-byte blocks at
k = 256, each read behind a 0x01 marker, so messages of every length hash
to distinct polynomials and no separate length block is needed.

Registration bound. For a registered (t1, data) and any other claim, the
two tags agree for at most l of the q_u - 1 keys, l the block count of the
longer message; a forgery attempt succeeds with probability
<= l / (q_u - 1).
A 100 KB payload is about 3,300 blocks, so at k = 256 the bound is below
2^-244.

That bound assumes no forger sees the registered tag. Once tag and data
are both known, the key is narrowed to the <= l roots of one polynomial,
so the tag is confined to the calculator -> verifier messages (tag-report,
check-tag, refute-tag) and never reaches the owner or the end user.

Both PolyEval hashes run through one evaluator, polyeval_tag_blocks, which
works as Poly1305 implementations do (Bernstein, FSE 2005): a chunk of
POLY_CHUNK blocks is one dot product with the precomputed powers
[r, ..., r^POLY_CHUNK] mod q, and the chunks are joined by Horner's rule in
r^POLY_CHUNK with one reduction per chunk. The value is the same sum of
D_i * r^i the block-by-block Horner rule gives, so tags are unchanged. The
byte hash hands it blocks that are cut from the message a chunk at a time.
"""

from __future__ import annotations

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
    "MAX_POLYEVAL_K",
    "check_k",
    "polyeval_modulus",
    "polyeval_powers",
    "polyeval_tag_blocks",
    "polyeval_hash_bytes",
    "toeplitz_tag_bits",
    "au2_hash",
    "recompute_tag",
    "make_seed",
    "seed_to_bytes",
    "seed_from_bytes",
    "DEFAULT_K",
]

DEFAULT_K = 256

POLY_CHUNK = 64  # blocks per dot product in polyeval_tag_blocks

# polyeval_hash_bytes cuts whole-byte blocks, which needs q_u >= 2^10; with
# whole-byte tags 16 is the least such k
MIN_POLYEVAL_K = 16
# polyeval_modulus scans down from 2^k for a prime, which takes a fraction of
# a second at k = 512 and about 10 s at k = 2048 in CPython
MAX_POLYEVAL_K = 512


class MacScheme(Enum):
    """The registration MAC, of which there is one. Kept because
    perfbench's workloads pass TpvSession(scheme=config.scheme)."""

    POLYEVAL = "polyeval"


_POLYEVAL_MODULI: dict = {}


def check_k(k: int) -> None:
    """Refuse a tag width PolyEval cannot key: tags and keys are stored in
    whole bytes, so k % 8 == 0, byte blocks need k >= MIN_POLYEVAL_K, and
    the modulus search needs k <= MAX_POLYEVAL_K to end promptly."""
    if k < MIN_POLYEVAL_K:
        raise ConfigurationError(
            "PolyEval needs k >= %d for whole-byte blocks, got %d"
            % (MIN_POLYEVAL_K, k))
    if k > MAX_POLYEVAL_K:
        raise ConfigurationError(
            "PolyEval needs k <= %d for a prompt modulus search, got %d"
            % (MAX_POLYEVAL_K, k))
    if k % 8:
        raise ConfigurationError(
            "tags are whole bytes, so k must be a multiple of 8, got %d" % k)


def polyeval_modulus(k: int) -> int:
    """Largest prime <= 2^k; Bertrand guarantees it is >= 2^k / k for k >= 2."""
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
        """k / 8 big-endian bytes: every tag takes its k from a check_k'd
        seed, or from whole bytes (from_bytes)."""
        return self.value.to_bytes(self.k // 8, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MacTag":
        return cls(int.from_bytes(raw, "big"), len(raw) * 8)


@dataclass
class MacSeed:
    """One-time registration key drawn from the key supply: value is one
    element of F_{q_u}, never 0, stored in k/8 bytes.

    consumed flips when the seed tags its one registered datum; recomputing
    the same binding for verification does not consume (see recompute_tag).
    """

    k: int
    value: int
    q_u: int
    consumed: bool = dc_field(default=False)

    @property
    def byte_count(self) -> int:
        return self.k // 8


def make_seed(k: int, randomness) -> MacSeed:
    """Draw a fresh key, uniform on [1, q_u): k-bit draws are redrawn until
    one lands there. Key 0 would tag every message 0, and a zeroed record
    reads as 0, so it is never drawn and a stored 0 is refused."""
    check_k(k)
    q_u = polyeval_modulus(k)
    while True:
        v = randomness.take_bits(k)
        if 0 < v < q_u:
            return MacSeed(k, v, q_u)


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
    in r^POLY_CHUNK, last chunk first, with one reduction each. blocks
    need only a length and slices, so they may be decoded a chunk at a
    time (_MarkedBlocks).
    """
    n = len(blocks)
    if not n:
        return 0
    if powers is None:
        powers = polyeval_powers(r, q, min(n, POLY_CHUNK))
    start = (n - 1) // POLY_CHUNK * POLY_CHUNK  # first block of the last chunk
    last = blocks[start:n]
    acc = (sum(map(mul, last, powers))
           + marker * sum(powers[:len(last)])) % q
    if start:
        step = powers[POLY_CHUNK - 1]  # r^POLY_CHUNK
        chunk_marker = marker * sum(powers)
        for i in range(start - POLY_CHUNK, -1, -POLY_CHUNK):
            acc = (acc * step + sum(map(mul, blocks[i:i + POLY_CHUNK], powers))
                   + chunk_marker) % q
    return acc


class _MarkedBlocks:
    """The blocks polyeval_hash_bytes cuts from a message, less the marker
    polyeval_tag_blocks adds to each, decoded one slice at a time: a
    slice of blocks is one regular-expression split of its bytes, and
    only a short last block is built with its own marker."""

    __slots__ = ("message", "step", "marker")

    def __init__(self, message: bytes, step: int):
        self.message = message
        self.step = step
        self.marker = 1 << (8 * step)

    def __len__(self) -> int:
        return -(-len(self.message) // self.step)

    def __getitem__(self, cut: slice) -> list:
        step = self.step
        part = self.message[cut.start * step:cut.stop * step]
        blocks = list(map(int.from_bytes,
                          re.findall(b".{%d}" % step, part, re.S),
                          repeat("big")))
        tail = part[len(blocks) * step:]
        if tail:
            # the short block carries its own, narrower marker, so it
            # enters less the full-width one the evaluator adds to every
            # block
            blocks.append(int.from_bytes(b"\x01" + tail, "big")
                          - self.marker)
        return blocks


def polyeval_hash_bytes(r: int, message: bytes, q: int, powers=None) -> int:
    """PolyEval hash of a byte string, for any message length.

    The message is cut into byte-aligned blocks of (q.bit_length() - 2) // 8
    bytes, the last one possibly shorter, and each block is read big-endian
    behind a 0x01 byte, as Poly1305 marks its blocks. The marker records
    each block's width, so every block is non-zero and below q, and distinct
    messages give distinct polynomials: an appended or dropped zero byte
    changes the hash. For distinct messages of at most L blocks,
    h_r(m) - h_r(m') takes any one value for at most L of the q keys r.

    The full blocks are cut by a regular-expression split, one chunk of
    POLY_CHUNK blocks at a time as polyeval_tag_blocks reads them
    (_MarkedBlocks), so no list of every block is built. Their markers
    enter as polyeval_tag_blocks' marker term, 2^(8 * step) per block;
    only a short last block is built with its own marker. q is the
    polyeval_modulus of a check_k'd k, so a block holds a byte or more.
    """
    blocks = _MarkedBlocks(message, (q.bit_length() - 2) // 8)
    return polyeval_tag_blocks(r, blocks, q, powers, blocks.marker)


def toeplitz_tag_bits(seed: int, message: int, message_bits: int, k: int) -> int:
    """Toeplitz tag of a message_bits-wide input under a seed integer: the
    k x message_bits GF(2) matrix with constant diagonals read from seed
    bits. Message bit j (MSB first) is bit message_bits - 1 - j of message;
    tag bit i is parity((seed >> i) & message), packed MSB first.

    Nothing in itstore tags with it since the registration MAC is PolyEval
    only; it is kept because perfbench's tracer hooks this name, here and
    as keynet's re-import.
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


def au2_hash(seed: MacSeed, message: bytes) -> MacTag:
    """Registration MAC: polyeval_hash_bytes of the message, whose marked
    blocks keep messages of different lengths from colliding by padding.

    Consumes the seed; a second tagging call raises SingleUseError. The
    verification side recomputes the same binding via recompute_tag.
    """
    if seed.consumed:
        raise SingleUseError("MAC seed already used for a registration")
    tag = recompute_tag(seed, message)
    seed.consumed = True
    return tag


def recompute_tag(seed: MacSeed, message: bytes) -> MacTag:
    """Recompute the tag for an existing binding (integrity check, refute)."""
    if not message:
        raise ConfigurationError("recompute_tag requires a non-empty message")
    return MacTag(polyeval_hash_bytes(seed.value, message, seed.q_u), seed.k)


def seed_to_bytes(seed: MacSeed) -> bytes:
    return seed.value.to_bytes(seed.byte_count, "big")


def seed_from_bytes(raw: bytes, k: int) -> MacSeed:
    """Rebuild a stored key; the caller checks it is one key in [1, q_u)."""
    return MacSeed(k, int.from_bytes(raw, "big"), polyeval_modulus(k),
                   consumed=True)

