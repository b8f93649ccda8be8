"""Randomness plumbing: deterministic PRF-backed bit sources.

Every random bit in a simulation run derives from one master seed through
keyed BLAKE2b in counter mode, so runs replay byte for byte. Real QKD
devices would hand out true random bits here; the interfaces below are the
seam where that substitution happens.

Bit order convention: the stream is a byte sequence; bit p of the stream is
bit (7 - p % 8) of byte p // 8, i.e. MSB first within each byte.
"""

from __future__ import annotations

import hashlib

__all__ = ["RandomSource", "SeededEntropy", "PrfBits", "derive_key"]

_BLOCK_BYTES = 64


def derive_key(master: "bytes | int | str", label: str) -> bytes:
    """32-byte subkey for a named stream under one master seed."""
    if isinstance(master, int):
        master = master.to_bytes((master.bit_length() + 7) // 8 or 1, "big")
    elif isinstance(master, str):
        master = master.encode()
    h = hashlib.blake2b(label.encode(), key=master[:64], digest_size=32)
    return h.digest()


class PrfBits:
    """Random-access view of an unbounded pseudorandom bit stream.

    Block i is BLAKE2b(key, i); reads may span blocks. Random access is
    what lets a receiver re-read the exact key range a sender consumed.
    The keyed hash state is built once and copied for every block, and the
    last block read is kept, so a run of small sequential reads hashes each
    block once.
    """

    __slots__ = ("_key", "_keyed", "_last")

    def __init__(self, key: bytes):
        self._key = key
        self._keyed = hashlib.blake2b(key=key, digest_size=_BLOCK_BYTES)
        self._last = (-1, b"")  # (index, bytes) of the last block read

    def _block(self, index: int) -> bytes:
        h = self._keyed.copy()
        h.update(index.to_bytes(8, "big"))
        return h.digest()

    def read_bytes(self, byte_offset: int, nbytes: int) -> bytes:
        """Stream bytes [byte_offset, byte_offset + nbytes), nbytes >= 1."""
        first = byte_offset // _BLOCK_BYTES
        last = (byte_offset + nbytes - 1) // _BLOCK_BYTES
        kept, kept_block = self._last
        chunks = [kept_block] if first == kept else []
        chunks += map(self._block, range(first + len(chunks), last + 1))
        self._last = (last, chunks[-1])
        raw = b"".join(chunks)
        start = byte_offset - first * _BLOCK_BYTES
        return raw[start:start + nbytes]

    def read_bits(self, bit_offset: int, nbits: int) -> int:
        """Integer holding stream bits [bit_offset, bit_offset + nbits)."""
        if nbits <= 0:
            return 0
        end = bit_offset + nbits
        b0 = bit_offset // 8
        b1 = (end + 7) // 8
        raw = int.from_bytes(self.read_bytes(b0, b1 - b0), "big")
        return (raw >> (b1 * 8 - end)) & ((1 << nbits) - 1)


class RandomSource:
    """Uniform bits on demand. Subclasses implement take_bits."""

    __slots__ = ()

    def take_bytes(self, nbytes: int) -> bytes:
        return self.take_bits(nbytes * 8).to_bytes(nbytes, "big") if nbytes else b""


class SeededEntropy(RandomSource):
    """Unbounded deterministic source; sequential cursor over PrfBits."""

    def __init__(self, master: "bytes | int | str", label: str = "entropy"):
        self._prf = PrfBits(derive_key(master, label))
        self._cursor = 0

    def take_bits(self, nbits: int) -> int:
        v = self._prf.read_bits(self._cursor, nbits)
        self._cursor += nbits
        return v

