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

from .errors import KeySupplyError

__all__ = ["RandomSource", "SeededEntropy", "BudgetedSource", "PrfBits", "derive_key"]

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
    The last block read is kept, so a run of small sequential reads hashes
    each block once.
    """

    __slots__ = ("_key", "_last")

    def __init__(self, key: bytes):
        self._key = key
        self._last = (-1, b"")  # (index, bytes) of the last block read

    def _block(self, index: int) -> bytes:
        return hashlib.blake2b(
            index.to_bytes(8, "big"), key=self._key, digest_size=_BLOCK_BYTES
        ).digest()

    def read_bytes(self, byte_offset: int, nbytes: int) -> bytes:
        if nbytes <= 0:
            return b""
        first = byte_offset // _BLOCK_BYTES
        last = (byte_offset + nbytes - 1) // _BLOCK_BYTES
        kept, kept_block = self._last
        chunks = [kept_block if i == kept else self._block(i)
                  for i in range(first, last + 1)]
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

    def take_bits(self, nbits: int) -> int:
        raise NotImplementedError

    def take_bytes(self, nbytes: int) -> bytes:
        return self.take_bits(nbytes * 8).to_bytes(nbytes, "big") if nbytes else b""


class SeededEntropy(RandomSource):
    """Unbounded deterministic source; sequential cursor over PrfBits."""

    def __init__(self, master: "bytes | int | str", label: str = "entropy"):
        self._prf = PrfBits(derive_key(master, label))
        self._cursor = 0

    @property
    def bits_drawn(self) -> int:
        return self._cursor

    def take_bits(self, nbits: int) -> int:
        v = self._prf.read_bits(self._cursor, nbits)
        self._cursor += nbits
        return v


class BudgetedSource(RandomSource):
    """Wraps a source with a hard bit budget.

    Raises KeySupplyError once the budget would be exceeded; the underlying
    source is not touched for a draw that cannot be honored (atomicity).
    """

    def __init__(self, inner: RandomSource, budget_bits: int):
        self._inner = inner
        self.remaining = budget_bits

    def take_bits(self, nbits: int) -> int:
        if nbits > self.remaining:
            raise KeySupplyError(
                "randomness exhausted: need %d bits, %d left" % (nbits, self.remaining))
        self.remaining -= nbits
        return self._inner.take_bits(nbits)
