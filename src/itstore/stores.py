"""Durable role-local storage: tamper-evident logs and share persistence.

Each protocol role owns one directory and is the only writer to it. A
store creates its directory with its first write, and opens a missing one
as an empty store, so building a deployment creates no directory:

  HolderStore      -- a holder's share sets, one record per secret. The
                      record save that drops a masking tuple is its spend,
                      so a tuple masks at most one response across crashes.
  VerifierStore    -- the append-only registration record log; any byte of
                      an existing record is covered by a rolling hash chain
                      and a flipped bit is detected on load.
  CalculatorStore  -- deliberately tiny records: per secret exactly the
                      16-byte id (as the file name), the 8-byte receipt
                      time, and the raw MAC seed. Nothing derived from the
                      payload data ever touches this directory. A record
                      is written once and never removed: no phase or
                      command deletes a secret.

Disk. `DISK`, a `FileLayer`, is the only code that reads or changes a
store or workspace file. It offers three durable writes and an erasure:

  publish    -- a whole file: write `<stem>.new`, fsync, rename it over
                the target, fsync the directory. A crash leaves the old
                file or the new one, and a pending `.new` at worst.
  overwrite  -- an idle file in place: erase it, write, fsync.
  append     -- bytes at the end of a file, fsync.
  erase      -- zero the bytes and fsync, then truncate (not fsynced) and
                unlink when asked (a pending `.new` that opening finds),
                fsyncing the directory, so dropped share values and seeds
                do not linger and an unlinked name stays gone; a lost
                truncation leaves zeros.

A write that creates a name fsyncs its directory before it returns, and
a store's first write, which creates its directory, fsyncs the storage
root. The whole files -- `holder.bin`, the calculator's `meta.bin` and
`<sid-hex>.rec`, a holder's first record, the workspace's `state.json` --
are published, so their pending names are `holder.new`, `meta.new` and
`<sid-hex>.new` (`state.new`); opening a store erases any it finds.
`meta.bin` is published before the first record, under its own directory
fsync. Holder records are overwritten in their idle slot; `verifier.log`
and the workspace logs are appended to. A torn append of `verifier.log`
is dropped on open (`ChainedLog`).

Holder layout. `holder.bin` holds the holder index; it is written with the
first save, never by the constructor. Each secret has two record slots,
`<sid-hex>.a` and `<sid-hex>.b`; one holds the live record, the other is
empty. A record is a 4-byte sequence number, the share set, and SHA-256
over a record-layout label, the holder index, the secret id and those
bytes; the id itself is only the file name. The share set is the layout
(t, n, the field), the data shares and the password share, the count of
renewal rounds applied to the data shares (a u32: rounds are numbered
0, 1, ... in turn), then `next_round` (a u32 one past the highest round
id ever stocked), `first` (a u32, the lowest live round id: the live
rounds are the one run [first, next_round)), and the live tuples' r
column and z column, in round order. That is 32 bytes per live tuple in
the 127-bit field and nothing per spent one: round ids are stocked
contiguously from 0 and spent from the head, so every id below `first`
is spent. Spent ids are never materialized, on disk or in memory: a
share set holds its live tuples, `first` and `next_round`, nothing
more. A holder holds one share set only, the secret in hand (the one it
last read or wrote), in the record's form: the share column, `first`,
and the r and z byte columns, so no round id is held one by one. Of
every other secret it keeps the live slot, and its sequence number once
read. So a save writes the columns as they are, and reading a record
takes them as stored, decoding no value. A record
whose values are not its field's byte width is refused, since its
columns would not match the next stock's or a renewal's.

A holder keeps no log. The spend journal of earlier versions is never
opened: a spend that reached only it was never released, since its
response waited for the record save. Records of earlier layouts, which
kept the live rounds as runs, the renewal rounds as runs or in the
journal, a round id and a spent flag per tuple, or every contributor's r
and z, fail the digest and are refused as tampered; so is a record whose
`first` is past `next_round`, or whose columns do not hold one r and
one z per live round. Reading a record builds nothing per spent id, even
with a `next_round` near 2^32; `spss.precompute_round` refuses to stock
past the u32 range first.

A save rewrites only the secret that changed, with 2 fsyncs: it
overwrites the idle slot with the record and its next sequence number,
then erases the old slot. A secret's first record is published to slot a
beside a new empty slot b, so no crash leaves a torn record as the only
copy. A holder's masked response leaves the store only once the save
that drops its tuples is fsynced; a crash before that releases nothing.

Opening lists the directory and reads no record of a secret with one
filled slot: it notes that slot, whose sequence number is known from the
secret's first read. A secret that a crash left with two filled slots is
read at open: the valid slot with the higher sequence number is kept and
the other zeroed, which finishes the erasure the crash interrupted, so no
superseded share bytes survive an open. A leftover `.new` is erased, and
a secret whose slots are all empty was never saved. So a crash at any
point leaves each secret its old or its new record, never a mix. A read
that finds no valid record, two with one sequence number, or another
sequence number than the store read before (an older valid record copied
back) raises TamperDetectedError naming the path, for that secret only.

A reconstruction spends rounds only at the t holders it contacts. The
others retire those rounds at the secret's next precompute
(`HolderStore.retire`, given `spss.retired_rounds`): a holder drops every
round below the highest first live round any holder reports, and the
save that follows, which also writes the new stock, erases their values.
So after a precompute every holder's record holds the same live tuples. A
crash before that save leaves the record from before the precompute.
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError, ProtocolError, TamperDetectedError
from .field import PrimeField
from .mac import MacSeed, MacTag, check_k, seed_from_bytes, seed_to_bytes
from .spss import HolderShareSet, SpssParams, cut_rounds, holder_respond
from .wire import Cursor

__all__ = [
    "DISK", "FileLayer", "ChainedLog", "VerifierRecord", "VerifierStore",
    "CalculatorStore", "HolderStore", "holder_record_files", "secure_erase",
    "erase_and_rewrite",
]

_CHAIN_GENESIS = b"\x00" * 32
_CHAIN_BYTES = 32
_HOLDER_MAGIC = b"ITHS2\n"
# bound into every record digest: records of another layout never verify
_RECORD_LAYOUT = b"ITHR first-round\n"
_HOLDER_META = "holder.bin"
_HOLDER_PENDING = "holder.new"  # holder.bin's name until it is published
_SLOTS = ("a", "b")
_RECORD_SUFFIXES = _SLOTS + ("new",)
_SEQ = struct.Struct(">I")
_DIGEST_BYTES = 32
_MAX_SID_BYTES = 64  # the hex id plus suffix must fit a 255-byte file name
_CALC_MAGIC = b"ITCS1\n"
# the calculator meta's scheme byte names the hash and its framing, so a
# store keyed under another is never checked under this one
_CALC_POLYEVAL = 2  # marked byte blocks (mac.polyeval_hash_bytes)
_CALC_RETIRED = {
    0: "the Toeplitz registration MAC, which this version no longer "
       "computes",
    1: "PolyEval over bit blocks and a length block, a framing this "
       "version no longer computes",
}


# ----------------------------------------------------------- file layer

class FileLayer:
    """The one object that touches a store or workspace file. Its
    primitives, read to sync_directory, each make one change through this
    module's `open` and `os`; the stores use the reads, the three durable
    writes (publish, overwrite, append) and erase, composed of them, and
    `ChainedLog.open` truncates a torn append."""

    def read(self, path) -> "bytes | None":
        try:
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def listing(self, directory) -> dict:
        """name -> size, None for a directory; empty if there is none."""
        try:
            with os.scandir(directory) as entries:
                return {e.name: None if e.is_dir() else e.stat().st_size
                        for e in entries}
        except FileNotFoundError:
            return {}

    def size(self, path) -> "int | None":
        try:
            return os.stat(path).st_size
        except FileNotFoundError:
            return None

    def write(self, path, data: bytes, mode: str = "wb",
              sync: bool = True) -> None:
        """Write whole ("wb"), at the end ("ab") or over the first bytes
        ("r+b"), then fsync unless sync is False."""
        with open(path, mode) as fh:
            if data:
                fh.write(data)
            if sync:
                fh.flush()
                os.fsync(fh.fileno())

    def truncate(self, path, size: int) -> None:
        os.truncate(path, size)

    def rename(self, source, target) -> None:
        os.replace(source, target)

    def unlink(self, path) -> None:
        os.unlink(path)

    def make_directory(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)

    def sync_directory(self, directory) -> None:
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def publish(self, path, data: bytes, *empty) -> None:
        """Write `<stem>.new`, fsync, create the files `empty` names, rename
        the pending file over `path`, fsync the directory."""
        path = Path(path)
        pending = path.with_suffix(".new")
        self._create(pending, data, "wb")
        for name in empty:
            self.write(name, b"", sync=False)
        self.rename(pending, path)
        self.sync_directory(path.parent)

    def overwrite(self, path, data: bytes) -> None:
        """Erase an idle file, write it in place and fsync; a new name is
        made durable too."""
        existed = self.erase(path)
        self._create(path, data, "wb")
        if not existed:
            self.sync_directory(Path(path).parent)

    def append(self, path, data: bytes) -> None:
        """Add data at the end and fsync; the name of a new or empty file,
        which a torn first append may leave, is made durable too."""
        new = not self.size(path)
        self._create(path, data, "ab")
        if new:
            self.sync_directory(Path(path).parent)

    def erase(self, path, unlink: bool = False) -> bool:
        """Zero the bytes and fsync, truncate (not fsynced), unlink when
        asked and fsync the directory. False if there is no such file."""
        size = self.size(path)
        if size is None:
            return False
        if size:
            self.write(path, bytes(size), "r+b")
            self.truncate(path, 0)
        if unlink:
            self.unlink(path)
            self.sync_directory(Path(path).parent)
        return True

    def _create(self, path, data: bytes, mode: str) -> None:
        """Write and fsync; a store's first write makes its directory and
        fsyncs the storage root, so the directory is as durable as the
        file."""
        try:
            self.write(path, data, mode)
        except FileNotFoundError:
            directory = Path(path).parent
            self.make_directory(directory)
            self.sync_directory(directory.parent)
            self.write(path, data, mode)


DISK = FileLayer()


def secure_erase(path) -> None:
    """Destroy a file's content before unlinking it."""
    DISK.erase(path, unlink=True)


def erase_and_rewrite(path, content: bytes) -> None:
    """Replace a file so the previous bytes are overwritten, not orphaned:
    erase it, then publish the new content."""
    DISK.erase(path)
    DISK.publish(path, content)


# ----------------------------------------------------------- chained log

def _starts_with_record(rest: bytes, tail: bytes) -> bool:
    """True when some prefix of rest is a whole record chaining from tail,
    whatever its length field says: rest then is no torn append but a
    record whose length was altered."""
    h = hashlib.sha256(tail)
    for n in range(len(rest) - 4 - _CHAIN_BYTES + 1):
        if h.digest() == rest[4 + n:4 + n + _CHAIN_BYTES]:
            return True
        h.update(rest[4 + n:5 + n])
    return False


class ChainedLog:
    """Append-only record file with a rolling hash chain.

    Layout per record: 4-byte big-endian payload length, payload, then
    SHA-256(previous chain value || payload). The first record chains from
    32 zero bytes. `ChainedLog.open` verifies every link once and hands
    the payloads to its caller; a flipped byte or a cut inside an earlier
    record raises TamperDetectedError. Bytes after the last whole record
    that end before the record their length field announces, and hold no
    whole record under another length, are a torn append: opening drops
    them and truncates the file. The log itself keeps only its chain
    tail. Appends never touch existing bytes, so every prior byte range
    is preserved verbatim.
    """

    def __init__(self, path: Path, tail: bytes):
        """A log whose file, at `path`, ends at chain value `tail`; only
        `open` knows those, so open a log with it."""
        self.path = path
        self._tail = tail

    @classmethod
    def open(cls, path) -> tuple:
        """(the log, its verified payloads as a tuple). A missing file is
        an empty log."""
        path = Path(path)
        raw = DISK.read(path) or b""
        off, tail, payloads = 0, _CHAIN_GENESIS, []
        while off < len(raw):
            end = off + 4 + (struct.unpack_from(">I", raw, off)[0]
                             if off + 4 <= len(raw) else 0)
            if end + _CHAIN_BYTES > len(raw):
                if _starts_with_record(raw[off:], tail):
                    raise TamperDetectedError(
                        "%s: truncated record %d" % (path, len(payloads)))
                # a strict prefix of one record: an append a crash tore.
                # Cut it off, so the next append chains on.
                DISK.truncate(path, off)
                break
            payload, link = raw[off + 4:end], raw[end:end + _CHAIN_BYTES]
            if link != hashlib.sha256(tail + payload).digest():
                raise TamperDetectedError(
                    "%s: hash chain break at record %d" % (path, len(payloads)))
            payloads.append(payload)
            tail, off = link, end + _CHAIN_BYTES
        return cls(path, tail), tuple(payloads)

    def append(self, payload: bytes) -> None:
        """Append one record."""
        link = hashlib.sha256(self._tail + payload).digest()
        DISK.append(self.path, struct.pack(">I", len(payload)) + payload + link)
        self._tail = link


# -------------------------------------------------------- verifier store

@dataclass(frozen=True)
class VerifierRecord:
    """One registration as the verifier saw it: the claimed receipt time
    t1, the tag, and the verifier's own receipt time t2."""

    secret_id: bytes
    t1: int
    tag: MacTag
    t2: int

    def __post_init__(self):
        if not 1 <= len(self.secret_id) <= 255:
            raise ConfigurationError("secret id must be 1..255 bytes")
        for label, t in (("t1", self.t1), ("t2", self.t2)):
            if not 0 <= t < (1 << 64):
                raise ConfigurationError("%s out of 64-bit range" % label)


def _encode_verifier_record(rec: VerifierRecord) -> bytes:
    tag_bytes = rec.tag.to_bytes()
    return (struct.pack(">B", len(rec.secret_id)) + rec.secret_id
            + struct.pack(">QQH", rec.t1, rec.t2, rec.tag.k) + tag_bytes)


def _decode_verifier_record(payload: bytes) -> VerifierRecord:
    rd = Cursor(payload, TamperDetectedError, "verifier record")
    sid = rd.take(rd.uint(1))
    t1, t2, k = rd.uint(8), rd.uint(8), rd.uint(2)
    if k % 8:
        raise TamperDetectedError("malformed verifier record")
    tag = MacTag.from_bytes(rd.take(k // 8))
    rd.done()
    return VerifierRecord(sid, t1, tag, t2)


class VerifierStore:
    """Append-only verifier log. Records are never rewritten; the file is
    a ChainedLog so any in-place edit is detected when reopened."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self._log, payloads = ChainedLog.open(self.directory / "verifier.log")
        self._records = [_decode_verifier_record(p) for p in payloads]

    def append(self, record: VerifierRecord) -> None:
        if self._records and record.t2 < self._records[-1].t2:
            raise ProtocolError(
                "receipt times must be non-decreasing: %d after %d"
                % (record.t2, self._records[-1].t2))
        self._log.append(_encode_verifier_record(record))
        self._records.append(record)

    def records(self) -> tuple:
        return tuple(self._records)

    def find(self, secret_id: bytes, t1: int) -> "VerifierRecord | None":
        """The first row for (secret_id, t1): the one its registration
        filed, whatever a later append for the same pair holds."""
        for rec in self._records:
            if rec.secret_id == secret_id and rec.t1 == t1:
                return rec
        return None


# ------------------------------------------------------ calculator store

class CalculatorStore:
    """Per-secret persistence capped at id + timestamp + key.

    One file per secret, named by the hex id, holding exactly the 8-byte
    receipt time followed by one k/8-byte PolyEval key below q_u -- so the
    marginal bytes on disk per secret are len(id) + 8 + k/8, nothing more.
    The tag width is store-wide configuration, because every registration
    in a run shares it: a new store keeps it in memory and writes it to
    `meta.bin` with its first record, after the scheme byte, so building a
    deployment writes nothing here, not even the directory. A k passed in
    must pass mac.check_k; a stored k that does not is tampering.
    """

    _META = "meta.bin"

    def __init__(self, directory, k: "int | None" = None):
        self.directory = Path(directory)
        if k is not None:
            check_k(k)
        names = DISK.listing(self.directory)
        for name in names:
            if name.endswith(".new"):  # a publish a crash interrupted
                secure_erase(self.directory / name)
        meta = self.directory / self._META
        raw = DISK.read(meta) if self._META in names else None
        self._meta_written = raw is not None
        if self._meta_written:
            if len(raw) != len(_CALC_MAGIC) + 3 or not raw.startswith(_CALC_MAGIC):
                raise TamperDetectedError("calculator meta file is malformed")
            code = raw[len(_CALC_MAGIC)]
            if code in _CALC_RETIRED:
                raise ConfigurationError(
                    "%s was made with %s; its tags cannot be checked"
                    % (self.directory, _CALC_RETIRED[code]))
            if code != _CALC_POLYEVAL:
                raise TamperDetectedError("calculator meta file is malformed")
            (stored_k,) = struct.unpack_from(">H", raw, len(_CALC_MAGIC) + 1)
            try:
                check_k(stored_k)
            except ConfigurationError as exc:
                raise TamperDetectedError("calculator meta file %s: %s"
                                          % (self._META, exc)) from None
            if k is not None and k != stored_k:
                raise ConfigurationError("store created with k = %d" % stored_k)
            self.k = stored_k
        else:
            # the meta file is fsynced before the first record, so records
            # without it can only mean the file was removed
            if any(name.endswith(".rec") for name in names):
                raise TamperDetectedError(
                    "calculator records without their meta file")
            if k is None:
                raise ConfigurationError("a new calculator store needs k")
            self.k = k

    def _record_path(self, secret_id: bytes) -> Path:
        if not 1 <= len(secret_id) <= 64:
            raise ConfigurationError("secret id must be 1..64 bytes")
        return self.directory / (secret_id.hex() + ".rec")

    def put(self, secret_id: bytes, t1: int, seed: MacSeed) -> None:
        if seed.k != self.k:
            raise ConfigurationError("seed does not match the store's k")
        if not 0 <= t1 < (1 << 64):
            raise ConfigurationError("t1 out of 64-bit range")
        path = self._record_path(secret_id)
        if DISK.size(path) is not None:
            raise ProtocolError("secret %s already registered" % secret_id.hex())
        if not self._meta_written:
            DISK.publish(self.directory / self._META, _CALC_MAGIC
                         + bytes([_CALC_POLYEVAL]) + struct.pack(">H", self.k))
            self._meta_written = True
        erase_and_rewrite(path, struct.pack(">Q", t1) + seed_to_bytes(seed))

    def get(self, secret_id: bytes):
        """Returns (t1, seed). The restored seed is recompute-only."""
        path = self._record_path(secret_id)
        raw = DISK.read(path)
        if raw is None:
            raise ProtocolError("no record for secret %s" % secret_id.hex())
        # a record is t1 and one key in [1, q_u), nothing else; key 0 is
        # what an erasure leaves, and it would tag every message 0
        seed = seed_from_bytes(raw[8:], self.k)
        if len(raw) != 8 + seed.byte_count or not 0 < seed.value < seed.q_u:
            raise TamperDetectedError(
                "record %s does not hold one %d-bit key"
                % (path.name, self.k))
        (t1,) = struct.unpack_from(">Q", raw)
        return t1, seed

    def ids(self) -> tuple:
        return tuple(sorted(bytes.fromhex(name[:-4])
                            for name in DISK.listing(self.directory)
                            if name.endswith(".rec")))

    def record_bytes(self, secret_id: bytes) -> int:
        """Persistent bytes attributable to one secret: id + file content."""
        return len(secret_id) + DISK.size(self._record_path(secret_id))


# ---------------------------------------------------------- holder store

def _encode_share_set(ss: HolderShareSet) -> bytes:
    """One secret's holder state, without its id (the record's file name).
    Spent tuples leave no trace beyond next_round."""
    field = ss.params.field
    width = field.byte_width
    return b"".join((
        struct.pack(">BBH", ss.params.t_sh, ss.params.n_sh, width),
        field.q.to_bytes(width, "big"),
        struct.pack(">I", ss.block_count),
        ss.shares,
        ss.password_share.to_bytes(width, "big"),
        struct.pack(">III", ss.renewals, ss.next_round, ss.first),
        ss.r,
        ss.z,
    ))


def _decode_share_set(body: bytes, holder: int, path) -> HolderShareSet:
    """The share set a record body holds: its live tuples, next_round and
    renewal count. Spent ids are never materialized."""
    rd = Cursor(body, TamperDetectedError, "%s record" % path)
    t_sh, n_sh, width = rd.uint(1), rd.uint(1), rd.uint(2)
    q = rd.uint(width)
    params = SpssParams(t_sh, n_sh, PrimeField(q))
    if width != params.field.byte_width:
        # the share and live columns are kept as stored, while renewed
        # shares, new tuples and every save use the field's width, so the
        # two must agree
        raise TamperDetectedError("%s: values %d bytes wide for a %d-byte "
                                  "field" % (path, width,
                                             params.field.byte_width))
    shares = rd.take(rd.uint(4) * width)
    password_share = rd.uint(width)
    renewals, next_round, first = rd.uint(4), rd.uint(4), rd.uint(4)
    if first > next_round:
        raise TamperDetectedError("%s: first live round %d is past next "
                                  "round %d" % (path, first, next_round))
    # the columns are kept as they are stored
    n = next_round - first
    r, z = bytearray(rd.take(n * width)), bytearray(rd.take(n * width))
    rd.done()
    return HolderShareSet(holder, params, shares, password_share, first, r,
                          z, next_round, renewals)


def _record_digest(holder: int, secret_id: bytes, body: bytes) -> bytes:
    """SHA-256 binding a record body to its layout, its holder and its
    secret id, none of which is stored in the body."""
    h = hashlib.sha256(_RECORD_LAYOUT)
    h.update(struct.pack(">HB", holder, len(secret_id)))
    h.update(secret_id)
    h.update(body)
    return h.digest()


def holder_record_files(directory, listing: "dict | None" = None) -> dict:
    """Record files of a holder directory, read without opening the store:
    secret id -> {suffix: size in bytes}, suffix "a" or "b" for the two
    slots and "new" for a first record that was never published. listing
    is the directory's `FileLayer.listing` when the caller has it."""
    out = {}
    if listing is None:
        listing = DISK.listing(directory)
    for name, size in listing.items():
        stem, dot, suffix = name.rpartition(".")
        if (not dot or suffix not in _RECORD_SUFFIXES or size is None
                or name == _HOLDER_PENDING):
            continue
        try:
            sid = bytes.fromhex(stem)
        except ValueError:
            raise TamperDetectedError(
                "%s: unexpected file %s" % (directory, name))
        out.setdefault(sid, {})[suffix] = size
    return out


class HolderStore:
    """One holder's durable state: one record per secret.

    A secret's record holds every fact about it that changes together:
    its shares, its live masking tuples and the count of renewal rounds
    applied to it, and it is the only record of which tuples are spent. A tuple
    leaves only by `respond` or `retire`, both spss.cut_rounds' head cuts,
    which check the request before they drop any, and the record save
    that drops it is the spend: `respond`
    saves before it returns the response, so a crash before the save is
    durable releases nothing, and the reopened record's tuples masked no
    released value. A renewal is one record rewrite, which destroys the old share
    values and counts the round together, so a crash leaves the old
    shares with the old count or the new shares with the new.

    In memory a store holds the secret in hand only: the share set it last
    read or wrote. Of every other secret it keeps the live slot, and the
    sequence number from the secret's first read; `get_secret` reads and
    checks that record at the secret's next use. `save` writes the share
    set in hand and refuses any other secret, so a change left unsaved
    when another secret is read is dropped, as a crash drops it. Opening
    lists the directory and reads only a secret left with two records.

    The constructor writes nothing to a new store: the directory and the
    holder index reach disk with the first save.
    """

    def __init__(self, directory, holder: "int | None" = None):
        self.directory = Path(directory)
        self._meta_path = self.directory / _HOLDER_META
        self._held = (None, None)  # (secret id, share set) in hand
        # secret id -> (slot suffix of the live record, seq); the seq is
        # None until the secret's first read
        self._live = {}
        # a new store's directory is missing or empty, and then nothing
        # more is read
        names = DISK.listing(self.directory)
        if _HOLDER_PENDING in names:  # a publish a crash interrupted
            secure_erase(self.directory / _HOLDER_PENDING)
            del names[_HOLDER_PENDING]
        if "state.bin" in names:
            raise ConfigurationError(
                "%s holds a single-snapshot state.bin, a layout this "
                "version no longer reads" % self.directory)
        existing = bool(names)
        stored = self._read_meta() if existing else None
        if stored is not None and holder is not None and holder != stored:
            raise ConfigurationError("store belongs to holder %d" % stored)
        if stored is None and holder is None:
            raise ConfigurationError("a new holder store needs its index")
        self.holder = stored if stored is not None else holder
        if not 0 <= self.holder < (1 << 16):
            raise ConfigurationError("holder index out of range")
        self._meta_durable = stored is not None
        # the open lists the records: a secret's one filled slot is read at
        # its first use, and a secret that a crash left with two filled
        # slots is read now, which keeps the newer record and erases the
        # other
        files = holder_record_files(self.directory, names)
        if files and not self._meta_durable:
            raise TamperDetectedError(
                "%s: records without the holder index" % self.directory)
        for sid, sizes in sorted(files.items()):
            if "new" in sizes:  # a first record that was never published
                secure_erase(self._record_path(sid, "new"))
            filled = tuple(suffix for suffix in _SLOTS if sizes.get(suffix))
            if not filled:
                # only empty slots: the first save never completed
                for suffix in set(_SLOTS) & set(sizes):
                    DISK.erase(self._record_path(sid, suffix), unlink=True)
            elif len(filled) == 1:
                self._live[sid] = (filled[0], None)
            else:
                self._read(sid, filled)

    def _read_meta(self) -> "int | None":
        raw = DISK.read(self._meta_path)
        if not raw:  # created, then a crash before its content was durable
            return None
        if len(raw) != len(_HOLDER_MAGIC) + 2 or not raw.startswith(_HOLDER_MAGIC):
            raise TamperDetectedError("%s is malformed" % self._meta_path)
        (holder,) = struct.unpack_from(">H", raw, len(_HOLDER_MAGIC))
        return holder

    def _record_path(self, secret_id: bytes, suffix: str) -> Path:
        return self.directory / ("%s.%s" % (secret_id.hex(), suffix))

    def _read(self, secret_id: bytes, slots) -> HolderShareSet:
        """Parse the secret's given record slots, keep the valid record with
        the higher sequence number as the share set in hand, and erase the
        other slot. Refused: no valid record, two valid records with one
        sequence number, and a sequence number other than the one this
        store read before (an older valid record copied back)."""
        known = self._live.get(secret_id, (None, None))[1]
        valid = []  # (seq, suffix, share set)
        for suffix in slots:
            path = self._record_path(secret_id, suffix)
            raw = DISK.read(path) or b""
            body, digest = raw[:-_DIGEST_BYTES], raw[-_DIGEST_BYTES:]
            if (len(raw) >= _SEQ.size + _DIGEST_BYTES and digest
                    == _record_digest(self.holder, secret_id, body)):
                valid.append((_SEQ.unpack_from(body)[0], suffix,
                              _decode_share_set(body[_SEQ.size:],
                                                self.holder, path)))
        if not valid:
            raise TamperDetectedError(
                "no valid record for secret %s in %s"
                % (secret_id.hex(), " or ".join(
                    str(self._record_path(secret_id, suffix))
                    for suffix in slots)))
        valid.sort(key=lambda record: record[0])
        if len(valid) == 2 and valid[0][0] == valid[1][0]:
            raise TamperDetectedError(
                "%s: two records for secret %s share sequence number %d"
                % (self.directory, secret_id.hex(), valid[0][0]))
        seq, suffix, share_set = valid[-1]
        if known is not None and seq != known:
            raise TamperDetectedError(
                "%s no longer holds record %d of secret %s"
                % (self._record_path(secret_id, suffix), known,
                   secret_id.hex()))
        for other in slots:
            if other != suffix:
                DISK.erase(self._record_path(secret_id, other))
        self._live[secret_id] = (suffix, seq)
        self._held = (secret_id, share_set)
        return share_set

    # ------------------------------------------------------------ content

    def put_secret(self, secret_id: bytes, share_set: HolderShareSet) -> None:
        if share_set.holder != self.holder:
            raise ProtocolError(
                "share set for holder %d in holder %d's store"
                % (share_set.holder, self.holder))
        if not 1 <= len(secret_id) <= _MAX_SID_BYTES:
            raise ConfigurationError(
                "secret id must be 1..%d bytes" % _MAX_SID_BYTES)
        if secret_id in self._live:
            raise ProtocolError("secret %s already stored" % secret_id.hex())
        self._held = (secret_id, share_set)
        self.save(secret_id)

    def get_secret(self, secret_id: bytes) -> HolderShareSet:
        """The secret's share set: the one in hand, or else its live record,
        read and checked, which then replaces the one in hand. The first
        read learns the record's sequence number, and every later read of
        the secret must find it."""
        if self._held[0] == secret_id:
            return self._held[1]
        if secret_id not in self._live:
            raise ProtocolError("no shares for secret %s" % secret_id.hex())
        return self._read(secret_id, (self._live[secret_id][0],))

    def secret_ids(self) -> tuple:
        return tuple(sorted(self._live))

    def save(self, secret_id: bytes) -> None:
        """Persist the share set in hand, which must be this secret's.
        Other secrets' records are not touched, and no record is read."""
        if self._held[0] != secret_id:
            raise ProtocolError("secret %s is not the one in hand"
                                % secret_id.hex())
        if not self._meta_durable:
            DISK.publish(self._meta_path,
                         _HOLDER_MAGIC + struct.pack(">H", self.holder))
            self._meta_durable = True
        self._write_record(secret_id)

    def _write_record(self, secret_id: bytes) -> None:
        """Overwrite the idle slot with the new record, then erase the old
        one. A first record is published to slot a with an empty slot b,
        so later saves never add a directory entry."""
        live = self._live.get(secret_id)
        seq = live[1] + 1 if live else 1
        body = _SEQ.pack(seq) + _encode_share_set(self._held[1])
        record = body + _record_digest(self.holder, secret_id, body)
        if live is None:
            DISK.publish(self._record_path(secret_id, "a"), record,
                         self._record_path(secret_id, "b"))
            self._live[secret_id] = ("a", seq)
            return
        old = live[0]
        new = "b" if old == "a" else "a"
        DISK.overwrite(self._record_path(secret_id, new), record)
        self._live[secret_id] = (new, seq)
        # a lost truncation leaves a zeroed slot, which opening empties
        DISK.erase(self._record_path(secret_id, old))

    # -------------------------------------------------------- consumption

    def respond(self, secret_id: bytes, request):
        """Build the masked response, which drops the tuples it spends (a
        bad request is refused before anything changes), then save, and
        only then return it."""
        response = holder_respond(self.get_secret(secret_id), request)
        self.save(secret_id)
        return response

    def retire(self, secret_id: bytes, upto: int) -> None:
        """Spend the live rounds below upto (spss.retired_rounds), which
        will never be served, by cut_rounds, which refuses an upto past
        next_round before anything changes; their values are dropped
        undecoded. The caller's next save erases them from the record."""
        cut_rounds(self.get_secret(secret_id), upto)

    # ------------------------------------------------------------ renewal

    def apply_renewal(self, secret_id: bytes, new_data_shares) -> None:
        """Swap in renewed shares, the wire.Packed share column that
        renewal_round returns, and count the round, in one record rewrite
        that also destroys the old share values; renewal_round's strict
        zip over the share column fixes its length, and TpvSession.renew
        refuses a round past the count the record's u32 holds before it
        sends anything."""
        ss = self.get_secret(secret_id)
        ss.shares = new_data_shares.raw
        ss.renewals += 1
        self.save(secret_id)

    def renewal_rounds(self, secret_id: bytes) -> tuple:
        """The renewal rounds applied to a secret, 0 to its count - 1.
        Nothing in the package calls it: perfbench's tracer hooks the
        name."""
        return tuple(range(self.get_secret(secret_id).renewals))
