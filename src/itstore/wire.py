"""Byte layouts: the protocol's message schema, its codec, and the one
strict cursor every binary reader in the package uses.

Every protocol message is a one-byte type code followed by the fields
SCHEMA lists for its kind, big-endian and without padding. Field types:

    sid      the 16-byte secret id
    u8, u32, u64
             unsigned integers
    W        one share-field element, W bytes
    tag      a k/8-byte MAC tag
    bytes8, bytes16, bytes32
             bytes after a u8, u16 or u32 length
    W*       a u32 count, then that many W elements
    ids      one run of consecutive u32 round ids, or none, sent as a u32
             run count and then a (first, count) u32 pair per run, so
             that one id list has one encoding. A second run, an empty
             run or one past 2^32 - 1 raises ImproperRequestError (a
             ProtocolError), at encode and at decode
    run(X, field, times)
             field * times values of width X (W, or P, the commitment
             group modulus width), where field names an earlier count
             field of the message and times is a number or "degree"

A W* list or a run is given to Codec and returned by it as its byte
column: the width's bytes big-endian per element, back to back as they
are on the wire. An id list is given and returned as a list of at most
one (first, end) range, as check_runs returns it. A column must hold
whole values, and a run's exactly its count times `times` values. The
bytes are the ones an int per element would give. A holder keeps its
data shares and live ids in these forms, readers that want ints decode
where they use them, and a renewal round reads the commitment and pair
columns each holder received through Packed, a sequence view that
decodes a column only when it is read.

The widths W, P, tag and the renewal degree are the session's
(Codec's constructor takes them); none is configured separately. A value
too long for its length prefix (a password over 65,535 bytes, say), or an
integer outside its field's width (a negative t1, say), is refused with
ConfigurationError before any byte is encoded.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from itertools import repeat

from .errors import ConfigurationError, ImproperRequestError, ProtocolError

__all__ = ["SID_BYTES", "SCHEMA", "INTEGRITY_ONLY", "Codec", "Cursor",
           "Packed", "check_runs", "column", "encode_runs"]

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
        return tuple(map(int.from_bytes, re.findall(b".{%d}" % width, raw, re.S),
                         repeat("big")))

    def done(self) -> None:
        if self.pos != len(self.raw):
            raise self.error("trailing bytes in %s" % self.what)


class Packed(Sequence):
    """A byte column of `width`-byte big-endian values read as a sequence
    of items of `group` values each: item k is the int at k when group is
    1, else the tuple of values k*group .. k*group + group - 1. Iterating
    decodes the whole column once; indexing decodes one item. raw holds
    the column as it is; its length must be a whole number of items."""

    __slots__ = ("raw", "width", "group")

    def __init__(self, raw: bytes, width: int, group: int = 1):
        if len(raw) % (width * group):
            raise ConfigurationError(
                "a column of %d bytes is not whole items of %d %d-byte "
                "values" % (len(raw), group, width))
        self.raw = raw
        self.width = width
        self.group = group

    def __len__(self) -> int:
        return len(self.raw) // (self.width * self.group)

    def __getitem__(self, k: int):
        n = len(self)
        if not -n <= k < n:
            raise IndexError("column item %d of %d" % (k, n))
        size = self.width * self.group
        start = k % n * size
        item = Cursor(self.raw[start:start + size]).uints(self.group,
                                                          self.width)
        return item[0] if self.group == 1 else item

    def __iter__(self):
        values = Cursor(self.raw).uints(len(self.raw) // self.width,
                                        self.width)
        if self.group == 1:
            return iter(values)
        return zip(*[iter(values)] * self.group)


# A field type is (category, size key[, count field, times]); the size key
# names an entry of Codec.sizes.
def run(width: str, count_field: str, times) -> tuple:
    return ("run", width, count_field, times)


SID = ("raw", "sid")
TAG = ("raw", "tag")
U8 = ("int", "u8")
U32 = ("int", "u32")
U64 = ("int", "u64")
W = ("int", "W")
BYTES8 = ("bytes", "u8")
BYTES16 = ("bytes", "u16")
BYTES32 = ("bytes", "u32")
W_LIST = ("list", "W")
ID_RUNS = ("ids", "u32")

# kind -> (type code, ((field name, field type), ...))
SCHEMA = {
    "register-data": (0x01, (("password", BYTES16), ("data", BYTES32))),
    "shares": (0x02, (("sid", SID), ("shares", W_LIST),
                      ("password_share", W))),
    "tag-report": (0x03, (("sid", SID), ("t1", U64), ("tag", TAG))),
    "receipt": (0x04, (("sid", SID), ("t1", U64))),
    "precomp": (0x05, (("sid", SID), ("first_round", U32),
                       ("n_batches", U32), ("contributor", U8),
                       ("live_rounds", ID_RUNS),
                       ("r_z_pairs", run("W", "n_batches", 2)))),
    "recon-request": (0x06, (("sid", SID), ("byte_length", U32),
                             ("password", BYTES16))),
    "avail-query": (0x07, (("sid", SID),)),
    "avail-reply": (0x08, (("sid", SID), ("n_blocks", U32),
                           ("round_ids", ID_RUNS))),
    "recon-ask": (0x09, (("sid", SID), ("subset", BYTES8),
                         ("password_share", W), ("round_ids", ID_RUNS))),
    "recon-response": (0x0A, (("sid", SID), ("values", W_LIST))),
    "recon-result": (0x0B, (("sid", SID), ("data", BYTES32))),
    "release": (0x0C, (("sid", SID), ("t1", U64), ("data", BYTES32))),
    "check-request": (0x0D, (("sid", SID), ("t1", U64), ("data", BYTES32))),
    "check-tag": (0x0E, (("sid", SID), ("t1", U64), ("tag", TAG))),
    "verdict": (0x0F, (("sid", SID), ("phase", U8), ("outcome", U8))),
    "refute-request": (0x10, (("sid", SID), ("t1", U64), ("data", BYTES32))),
    "refute-tag": (0x11, (("sid", SID), ("t1", U64), ("tag", TAG))),
    # 0x12 and 0x13 are retired codes: the kinds after them keep theirs
    "abort-notice": (0x14, (("sid", SID), ("reason", U8))),
    "renew-commits": (0x15, (("sid", SID), ("round", U32), ("sender", U8),
                             ("n_tracks", U32),
                             ("commitments", run("P", "n_tracks", "degree")))),
    "renew-pairs": (0x16, (("sid", SID), ("round", U32), ("sender", U8),
                           ("n_tracks", U32),
                           ("s1_s2_pairs", run("W", "n_tracks", 2)))),
}

# Kinds whose body crosses nodes in the clear beside a digest envelope
# (protocol.Transport.send), so that it is kept whole but not secret. A
# renew-commits body is Pedersen commitments, which are perfectly hiding:
# with one holder's pair they say nothing more than the pair does, and
# Pedersen's VSS broadcasts them in public. Every other kind carries
# shares, masks, passwords, tags or data, and is padded.
INTEGRITY_ONLY = frozenset({"renew-commits"})


def check_runs(flat) -> list:
    """The (first, end) ranges of a flat [first, count] run list of at most
    one run (the module docstring's `ids` rule). Refuses a second run, an
    empty or negative run and one past 2^32 - 1."""
    if len(flat) > 2:
        raise ImproperRequestError("round ids in more than one run")
    if not flat:
        return []
    first, count = flat
    if first < 0 or count <= 0:
        raise ImproperRequestError("round-id run from %d is empty or "
                                   "negative" % first)
    if first + count > 1 << 32:
        raise ImproperRequestError("round-id run passes 2^32 - 1")
    return [(first, first + count)]


def column(values, width: int) -> bytes:
    """Unsigned integers of one width, big-endian, back to back."""
    return b"".join(map(int.to_bytes, values, repeat(width), repeat("big")))


def encode_runs(ranges) -> bytes:
    """(first, end) ranges, as check_runs returns them, written
    without expanding them: a u32 run count, then the (first, count) u32
    pairs. Codec.decode reads them back with check_runs."""
    flat = []
    for first, end in ranges:
        flat += (first, end - first)
    return (len(flat) // 2).to_bytes(4, "big") + column(flat, 4)


def _length_prefix(kind: str, name: str, length: int, width: int) -> bytes:
    if length >> (8 * width):
        raise ConfigurationError(
            "%s field %s holds %d items; its %d-byte length prefix allows %d"
            % (kind, name, length, width, (1 << (8 * width)) - 1))
    return length.to_bytes(width, "big")


class Codec:
    """Encoder and decoder for the SCHEMA kinds under one session's widths:
    W share-field bytes, P commitment-modulus bytes, the tag byte length,
    and the renewal polynomial degree."""

    def __init__(self, W: int, P: int, tag: int, degree: int):
        self.sizes = {"sid": SID_BYTES, "u8": 1, "u16": 2, "u32": 4, "u64": 8,
                      "W": W, "P": P, "tag": tag, "degree": degree}

    def _run_values(self, fields, values, count) -> int:
        """How many values a run field holds: its count field's value, in
        the values of the fields before it, times its times."""
        count_field, times = count
        n = values[[f[0] for f in fields].index(count_field)]
        return n * (self.sizes[times] if isinstance(times, str) else times)

    def encode(self, kind: str, *values) -> bytes:
        """The message bytes: the kind's code, then each field in order,
        W*, run and ids fields given as the module docstring says."""
        code, fields = SCHEMA[kind]
        out = [bytes((code,))]
        for (name, (category, key, *count)), value in zip(fields, values,
                                                          strict=True):
            width = self.sizes[key]
            if category == "int":
                try:
                    out.append(value.to_bytes(width, "big"))
                except OverflowError:
                    raise ConfigurationError(
                        "%s field %s holds %d; its %d-byte width allows "
                        "0..%d" % (kind, name, value, width,
                                   (1 << (8 * width)) - 1)) from None
            elif category == "raw":
                out.append(value)
            elif category == "bytes":
                out.append(_length_prefix(kind, name, len(value), width))
                out.append(value)
            elif category == "ids":  # refused here as at decode
                check_runs([v for first, end in value
                            for v in (first, end - first)])
                out.append(encode_runs(value))
            elif category == "list":
                if len(value) % width:
                    raise ConfigurationError(
                        "%s field %s holds %d bytes, not whole %d-byte "
                        "values" % (kind, name, len(value), width))
                out.append(_length_prefix(kind, name, len(value) // width,
                                          4))
                out.append(value)
            else:
                n = self._run_values(fields, values, count)
                if len(value) != n * width:
                    raise ConfigurationError(
                        "%s field %s holds %d bytes, not %d %d-byte values"
                        % (kind, name, len(value), n, width))
                out.append(value)
        return b"".join(out)

    def decode(self, kind: str, raw: bytes, expect=()) -> tuple:
        """Parse one message of this kind. Its leading fields must equal
        `expect` (the sid of the exchange first, then any header values the
        receiver knows); the remaining fields are returned in order, W*,
        run and ids fields as the module docstring says. Another code, a
        short or long message, or a header naming anything else raises
        ProtocolError."""
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
                values.append(rd.take(rd.uint(4) * width))
            elif category == "ids":
                values.append(check_runs(rd.uints(2 * rd.uint(4), 4)))
            else:
                values.append(rd.take(self._run_values(fields, values, count)
                                      * width))
        rd.done()
        header = tuple(values[:len(expect)])
        if header != tuple(expect):
            raise ProtocolError("%s header %r, expected %r"
                                % (kind, header, tuple(expect)))
        return tuple(values[len(expect):])
