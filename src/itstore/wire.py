"""Byte layouts: the protocol's message schema, its codec, and the one
strict cursor every binary reader in the package uses.

Every protocol message is a one-byte type code followed by the fields
SCHEMA lists for its kind, big-endian and without padding. Field types:

    sid      the 16-byte secret id
    u8, u32, u64
             unsigned integers
    W        one share-field element, W bytes
    tag      a k/8-byte MAC tag
    digest   a cs_tag_bits/8-byte computational digest
    bytes8, bytes16, bytes32
             bytes after a u8, u16 or u32 length
    W*, u32* a u32 count, then that many W elements or u32 ids
    run(X, field, times)
             field * times values of width X (W, or P, the commitment
             group modulus width), where field names an earlier count
             field of the message and times is a number or "degree"

The widths W, P, tag, digest and the renewal degree are the session's
(Codec's constructor takes them); none is configured separately. A value
too long for its length prefix (a password over 65,535 bytes, say) is
refused with ConfigurationError before any byte is encoded.
"""

from __future__ import annotations

from .errors import ConfigurationError, ProtocolError

__all__ = ["SID_BYTES", "SCHEMA", "Codec", "Cursor"]

SID_BYTES = 16


class Cursor:
    """Strict big-endian reader over one byte string. Reading past the end,
    or finishing with bytes unread, raises `error` naming `what`."""

    __slots__ = ("raw", "pos", "error", "what")

    def __init__(self, raw: bytes, error=ProtocolError,
                 what: str = "protocol message"):
        self.raw = raw
        self.pos = 0
        self.error = error
        self.what = what

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.raw):
            raise self.error("truncated %s" % self.what)
        out = self.raw[self.pos:end]
        self.pos = end
        return out

    def uint(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def uints(self, count: int, width: int) -> tuple:
        """count unsigned integers of one width, with one length check."""
        raw = self.take(count * width)
        return tuple([int.from_bytes(raw[i:i + width], "big")
                      for i in range(0, len(raw), width)])

    def done(self) -> None:
        if self.pos != len(self.raw):
            raise self.error("trailing bytes in %s" % self.what)


# A field type is (category, size key[, count field, times]); the size key
# names an entry of Codec.sizes.
def run(width: str, count_field: str, times) -> tuple:
    return ("run", width, count_field, times)


SID = ("raw", "sid")
TAG = ("raw", "tag")
DIGEST = ("raw", "digest")
U8 = ("int", "u8")
U32 = ("int", "u32")
U64 = ("int", "u64")
W = ("int", "W")
BYTES8 = ("bytes", "u8")
BYTES16 = ("bytes", "u16")
BYTES32 = ("bytes", "u32")
W_LIST = ("list", "W")
U32_LIST = ("list", "u32")

# kind -> (type code, ((field name, field type), ...))
SCHEMA = {
    "register-data": (0x01, (("password", BYTES16), ("data", BYTES32))),
    "shares": (0x02, (("sid", SID), ("shares", W_LIST),
                      ("password_share", W))),
    "tag-report": (0x03, (("sid", SID), ("t1", U64), ("tag", TAG))),
    "receipt": (0x04, (("sid", SID), ("t1", U64))),
    "precomp": (0x05, (("sid", SID), ("first_round", U32),
                       ("n_rounds", U32), ("contributor", U8),
                       ("r_z_pairs", run("W", "n_rounds", 2)))),
    "recon-request": (0x06, (("sid", SID), ("byte_length", U32),
                             ("password", BYTES16))),
    "avail-query": (0x07, (("sid", SID),)),
    "avail-reply": (0x08, (("sid", SID), ("n_blocks", U32),
                           ("round_ids", U32_LIST))),
    "recon-ask": (0x09, (("sid", SID), ("subset", BYTES8),
                         ("password_share", W), ("round_ids", U32_LIST))),
    "recon-response": (0x0A, (("sid", SID), ("values", W_LIST))),
    "recon-result": (0x0B, (("sid", SID), ("data", BYTES32))),
    "release": (0x0C, (("sid", SID), ("t1", U64), ("data", BYTES32))),
    "check-request": (0x0D, (("sid", SID), ("t1", U64), ("data", BYTES32))),
    "check-tag": (0x0E, (("sid", SID), ("t1", U64), ("tag", TAG))),
    "verdict": (0x0F, (("sid", SID), ("phase", U8), ("outcome", U8))),
    "refute-request": (0x10, (("sid", SID), ("t1", U64), ("data", BYTES32))),
    "refute-tag": (0x11, (("sid", SID), ("t1", U64), ("tag", TAG))),
    "cs-tag": (0x12, (("sid", SID), ("t1", U64), ("digest", DIGEST))),
    "cs-check": (0x13, (("sid", SID), ("t1", U64), ("digest", DIGEST))),
    "abort-notice": (0x14, (("sid", SID), ("reason", U8))),
    "renew-commits": (0x15, (("sid", SID), ("round", U32), ("sender", U8),
                             ("n_tracks", U32),
                             ("commitments", run("P", "n_tracks", "degree")))),
    "renew-pairs": (0x16, (("sid", SID), ("round", U32), ("sender", U8),
                           ("n_tracks", U32),
                           ("s1_s2_pairs", run("W", "n_tracks", 2)))),
}


def _length_prefix(kind: str, name: str, length: int, width: int) -> bytes:
    if length >> (8 * width):
        raise ConfigurationError(
            "%s field %s holds %d items; its %d-byte length prefix allows %d"
            % (kind, name, length, width, (1 << (8 * width)) - 1))
    return length.to_bytes(width, "big")


class Codec:
    """Encoder and decoder for the SCHEMA kinds under one session's widths:
    W share-field bytes, P commitment-modulus bytes, the tag and digest
    byte lengths, and the renewal polynomial degree."""

    def __init__(self, W: int, P: int, tag: int, digest: int, degree: int):
        self.sizes = {"sid": SID_BYTES, "u8": 1, "u16": 2, "u32": 4, "u64": 8,
                      "W": W, "P": P, "tag": tag, "digest": digest,
                      "degree": degree}

    def encode(self, kind: str, *values) -> bytes:
        """The message bytes: the kind's code, then each field in order."""
        code, fields = SCHEMA[kind]
        out = [bytes((code,))]
        for (name, (category, key, *_count)), value in zip(fields, values,
                                                           strict=True):
            width = self.sizes[key]
            if category == "int":
                out.append(value.to_bytes(width, "big"))
            elif category == "raw":
                out.append(value)
            elif category == "bytes":
                out.append(_length_prefix(kind, name, len(value), width))
                out.append(value)
            else:
                if category == "list":
                    out.append(_length_prefix(kind, name, len(value), 4))
                out.extend(v.to_bytes(width, "big") for v in value)
        return b"".join(out)

    def decode(self, kind: str, raw: bytes, expect=()) -> tuple:
        """Parse one message of this kind. Its leading fields must equal
        `expect` (the sid of the exchange first, then any header values the
        receiver knows); the remaining fields are returned in order.
        Another code, a short or long message, or a header naming anything
        else raises ProtocolError."""
        code, fields = SCHEMA[kind]
        rd = Cursor(raw)
        got = rd.uint(1)
        if got != code:
            raise ProtocolError("expected message code %#04x (%s), got %#04x"
                                % (code, kind, got))
        values = []
        for _name, (category, key, *count) in fields:
            width = self.sizes[key]
            if category == "int":
                values.append(rd.uint(width))
            elif category == "raw":
                values.append(rd.take(width))
            elif category == "bytes":
                values.append(rd.take(rd.uint(width)))
            elif category == "list":
                values.append(rd.uints(rd.uint(4), width))
            else:
                count_field, times = count
                n = values[[f[0] for f in fields].index(count_field)]
                values.append(rd.uints(
                    n * (self.sizes[times] if isinstance(times, str) else times),
                    width))
        rd.done()
        header = tuple(values[:len(expect)])
        if header != tuple(expect):
            raise ProtocolError("%s header %r, expected %r"
                                % (kind, header, tuple(expect)))
        return tuple(values[len(expect):])
