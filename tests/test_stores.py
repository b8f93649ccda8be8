"""Tests for durable stores: hash-chained logs, erasure, crash consistency."""

import copy
import gc
import hashlib
import os
import re
import struct
import time
import tracemalloc
from collections import namedtuple
from contextlib import contextmanager
from pathlib import Path

import pytest

import itstore.stores as stores_mod
import itstore.wire as wire

from itstore.entropy import SeededEntropy
from itstore.errors import (
    ConfigurationError,
    ImproperRequestError,
    PrecomputationExhaustedError,
    ProtocolError,
    TamperDetectedError,
)
from itstore.field import PrimeField
from itstore.keynet import DEFAULT_TOPOLOGY, KeyNetwork
from itstore.mac import (
    au2_hash,
    make_seed,
    recompute_tag,
    seed_to_bytes,
)
from itstore.protocol import TpvSession
from itstore.spss import (
    HolderShareSet,
    SpssParams,
    holder_respond,
    spss_recover,
    spss_register,
    spss_request,
)
from itstore.stores import (
    CalculatorStore,
    ChainedLog,
    HolderStore,
    VerifierRecord,
    VerifierStore,
    erase_and_rewrite,
    holder_record_files,
    secure_erase,
)

from lossy_disk import lossy, materialize
from oracles import (
    contains_window,
    data_shares,
    directory_contains_window,
    live_columns,
    live_ids,
    live_tuples,
    refused_runs,
    runs_of,
    stock,
)

F2311 = PrimeField.mersenne(31)
PARAMS_2311 = SpssParams(field=F2311)


def rng(label="store-tests"):
    return SeededEntropy(b"store-suite", label)


# ------------------------------------------------------------- chained log

def test_chained_log_round_trip(tmp_path):
    path = tmp_path / "log.bin"
    log, payloads = ChainedLog.open(path)
    assert len(payloads) == 0
    for payload in (b"first", b"", b"third record with more bytes"):
        log.append(payload)
    _again, payloads = ChainedLog.open(path)
    assert payloads == (b"first", b"", b"third record with more bytes")


def test_chained_log_appends_preserve_prefix(tmp_path):
    path = tmp_path / "log.bin"
    log, _ = ChainedLog.open(path)
    log.append(b"one")
    before = path.read_bytes()
    log.append(b"two")
    after = path.read_bytes()
    assert after[:len(before)] == before


def test_chained_log_detects_any_flipped_byte(tmp_path):
    path = tmp_path / "log.bin"
    log, _ = ChainedLog.open(path)
    log.append(b"alpha")
    log.append(b"beta")
    clean = path.read_bytes()
    for pos in range(len(clean)):
        corrupt = bytearray(clean)
        corrupt[pos] ^= 0x01
        path.write_bytes(bytes(corrupt))
        with pytest.raises(TamperDetectedError):
            ChainedLog.open(path)
    path.write_bytes(clean)
    assert ChainedLog.open(path)[1] == (b"alpha", b"beta")


def test_chained_log_detects_truncation(tmp_path):
    """Bytes cut out of a record that later records follow are tampering;
    only a cut into the last record reads as a torn append."""
    path = tmp_path / "log.bin"
    log, _ = ChainedLog.open(path)
    for payload in (b"first record", b"second", b"third"):
        log.append(payload)
    clean = path.read_bytes()
    for cut in range(4, 4 + len(b"first record") + 32):
        path.write_bytes(clean[:cut] + clean[cut + 5:])
        with pytest.raises(TamperDetectedError):
            ChainedLog.open(path)
        assert len(path.read_bytes()) == len(clean) - 5


def test_a_torn_final_log_record_is_dropped_and_the_next_append_chains_on(
        tmp_path):
    path = tmp_path / "log.bin"
    log, _ = ChainedLog.open(path)
    log.append(b"kept")
    kept = path.read_bytes()
    log.append(b"torn by a crash")
    clean = path.read_bytes()
    for size in range(len(kept) + 1, len(clean)):
        path.write_bytes(clean[:size])
        log, payloads = ChainedLog.open(path)
        assert payloads == (b"kept",)
        assert path.read_bytes() == kept
        log.append(b"next")
        assert ChainedLog.open(path)[1] == (b"kept", b"next")


def test_a_whole_last_record_with_an_altered_length_is_tampering(tmp_path):
    path = tmp_path / "log.bin"
    log, _ = ChainedLog.open(path)
    log.append(b"first")
    log.append(b"last record")
    clean = path.read_bytes()
    start = len(clean) - (4 + len(b"last record") + 32)
    for length in (len(b"last record") + 1, 1 << 20):
        path.write_bytes(clean[:start] + struct.pack(">I", length)
                         + clean[start + 4:])
        with pytest.raises(TamperDetectedError):
            ChainedLog.open(path)


def test_chained_log_continues_after_reload(tmp_path):
    path = tmp_path / "log.bin"
    ChainedLog.open(path)[0].append(b"one")
    reloaded, _ = ChainedLog.open(path)
    reloaded.append(b"two")
    assert ChainedLog.open(path)[1] == (b"one", b"two")


# ------------------------------------------------------------ erasure tools

def test_secure_erase_removes_content(tmp_path):
    path = tmp_path / "victim.bin"
    path.write_bytes(b"S" * 100)
    secure_erase(path)
    assert not path.exists()


def test_erase_and_rewrite_replaces_content(tmp_path):
    path = tmp_path / "state.bin"
    erase_and_rewrite(path, b"original secret bytes")
    erase_and_rewrite(path, b"new")
    assert path.read_bytes() == b"new"


def test_contains_window():
    data = bytes(range(200))
    assert contains_window(data, bytes(range(50, 80)))
    assert contains_window(data, b"\xff" * 4 + bytes(range(10)) + b"\xee" * 4)
    assert not contains_window(data, bytes(range(100, 90, -1)))
    assert contains_window(data, b"\x05\x06\x07", window=8)  # short needle
    assert not contains_window(data, b"\x07\x06\x05", window=8)
    assert not contains_window(b"", b"abc")
    assert not contains_window(data, b"")


def test_directory_scan(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.bin").write_bytes(b"nothing to see")
    (tmp_path / "sub" / "b.bin").write_bytes(b"xx" + bytes(range(64)) + b"yy")
    assert directory_contains_window(tmp_path, bytes(range(16, 40)))
    assert not directory_contains_window(tmp_path, b"\xaa" * 16)


# ----------------------------------------------------------- verifier store

def make_record(i, t1, t2, k=64):
    message = b"datum %d" % i
    seed = make_seed(k, rng("vrec-%d" % i))
    tag = au2_hash(seed, message)
    return VerifierRecord(bytes([i]) * 16, t1, tag, t2)


def test_verifier_store_round_trip(tmp_path):
    store = VerifierStore(tmp_path / "verifier")
    assert store.records() == ()
    recs = [make_record(1, 100, 105), make_record(2, 200, 205),
            make_record(3, 150, 205)]
    for rec in recs:
        store.append(rec)
    again = VerifierStore(tmp_path / "verifier")
    assert again.records() == tuple(recs)
    assert again.find(recs[1].secret_id, 200) == recs[1]
    assert again.find(recs[1].secret_id, 201) is None
    assert again.find(b"\x99" * 16, 200) is None
    # a later row for the same (id, t1), of any width, leaves the first
    # one found
    later = make_record(2, 200, 210, k=512)
    assert later.tag != recs[1].tag
    again.append(later)
    assert VerifierStore(tmp_path / "verifier").find(
        recs[1].secret_id, 200) == recs[1]


def test_verifier_store_t2_monotonic(tmp_path):
    store = VerifierStore(tmp_path / "verifier")
    store.append(make_record(1, 100, 105))
    with pytest.raises(ProtocolError):
        store.append(make_record(2, 90, 104))
    store.append(make_record(2, 90, 105))  # equal t2 is fine
    assert len(store.records()) == 2


def test_verifier_store_detects_tamper(tmp_path):
    store = VerifierStore(tmp_path / "verifier")
    store.append(make_record(1, 100, 105))
    store.append(make_record(2, 200, 205))
    log_path = tmp_path / "verifier" / "verifier.log"
    clean = log_path.read_bytes()
    corrupt = bytearray(clean)
    corrupt[7] ^= 0x40  # inside the first record's payload
    log_path.write_bytes(bytes(corrupt))
    with pytest.raises(TamperDetectedError):
        VerifierStore(tmp_path / "verifier")


def test_verifier_store_holds_k_512_tags(tmp_path):
    tag = au2_hash(make_seed(512, rng("vrec-512")),
                   struct.pack(">Q", 42) + b"a payload tagged at k = 512")
    assert len(tag.to_bytes()) == 64
    rec = VerifierRecord(b"\x07" * 16, 42, tag, 50)
    store = VerifierStore(tmp_path / "verifier")
    store.append(rec)
    loaded = VerifierStore(tmp_path / "verifier").records()[0]
    assert loaded.tag.k == 512 and loaded.tag.to_bytes() == tag.to_bytes()


# --------------------------------------------------------- calculator store

def calc_seed(k=256):
    return make_seed(k, rng("calc"))


def test_calculator_store_round_trip(tmp_path):
    data = b"the payload under protection, kept well away from this store"
    seed = calc_seed()
    tag = au2_hash(seed, struct.pack(">Q", 1234) + data)
    store = CalculatorStore(tmp_path / "calc", 256)
    sid = b"\x01" * 16
    store.put(sid, 1234, seed)

    reopened = CalculatorStore(tmp_path / "calc")
    assert reopened.k == 256
    t1, restored = reopened.get(sid)
    assert t1 == 1234
    assert restored == seed  # value, k and q_u all survive
    assert recompute_tag(restored, struct.pack(">Q", t1) + data) == tag


def test_calculator_store_budget_is_exact(tmp_path):
    store = CalculatorStore(tmp_path / "calc", 256)
    for i in range(1, 4):
        data = b"x" * (10 * i)
        sid = bytes([i]) * 16
        seed = calc_seed()
        store.put(sid, i, seed)
        assert store.record_bytes(sid) == 16 + 8 + seed.byte_count
    assert len(store.ids()) == 3


def test_calculator_store_never_touches_data(tmp_path):
    data = bytes(rng("payload").take_bytes(300))
    seed = calc_seed()
    tag = au2_hash(seed, struct.pack(">Q", 77) + data)
    store = CalculatorStore(tmp_path / "calc", 256)
    store.put(b"\x05" * 16, 77, seed)
    assert not directory_contains_window(tmp_path / "calc", data)
    assert not directory_contains_window(tmp_path / "calc", tag.to_bytes())


def test_an_unlinked_erasure_is_durable_when_it_returns(tmp_path):
    (tmp_path / "a.rec").write_bytes(b"key bytes")
    with lossy(tmp_path) as disk:
        stores_mod.DISK.erase(tmp_path / "a.rec", unlink=True)
    assert disk.durable() == {}


def test_calculator_store_validation(tmp_path):
    store = CalculatorStore(tmp_path / "calc", 256)
    seed = calc_seed()
    store.put(b"\x01" * 16, 1, seed)
    with pytest.raises(ProtocolError):
        store.put(b"\x01" * 16, 2, calc_seed())
    with pytest.raises(ProtocolError):
        store.get(b"\x02" * 16)
    with pytest.raises(ConfigurationError):
        CalculatorStore(tmp_path / "calc", 128)
    with pytest.raises(ConfigurationError):
        CalculatorStore(tmp_path / "calc2")  # new store without parameters
    wrong_k = make_seed(64, rng("wrongk"))
    with pytest.raises(ConfigurationError):
        store.put(b"\x03" * 16, 3, wrong_k)


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:-1],
    lambda raw: raw + b"\x00",
    lambda raw: raw[:8] + b"\xff" * 32,
    lambda raw: bytes(len(raw)),
], ids=["short", "long", "key-above-q", "zeroed"])
def test_a_polyeval_record_that_is_not_one_key_is_tampering(tmp_path, edit):
    # a wrong key would only make every later check read "tag mismatch",
    # blaming the data for what was done to the store; a zeroed record, as
    # a lost unlink and truncation leave, would hold key 0, which tags
    # every message 0
    store = CalculatorStore(tmp_path / "calc", 256)
    sid = b"\x07" * 16
    seed = make_seed(256, rng("one-key"))
    store.put(sid, 7, seed)
    assert store.get(sid)[1].value == seed.value
    path = tmp_path / "calc" / (sid.hex() + ".rec")
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(TamperDetectedError, match=sid.hex()):
        store.get(sid)


def test_a_calculator_store_of_split_block_polyeval_is_refused(tmp_path):
    # scheme byte 1 is PolyEval over bit blocks and a length block, as
    # stores were once written; its keys would tag honest data as a
    # mismatch under the marked-block hash, so the store is not opened
    directory = tmp_path / "calc"
    directory.mkdir()
    (directory / "meta.bin").write_bytes(
        b"ITCS1\n" + bytes([1]) + struct.pack(">H", 256))
    key = make_seed(256, rng("split-blocks"))
    (directory / ("05" * 16 + ".rec")).write_bytes(
        struct.pack(">Q", 5) + seed_to_bytes(key))
    for k in (None, 256):
        with pytest.raises(ConfigurationError, match="length block"):
            CalculatorStore(directory, k)
    # a scheme byte no version wrote is tampering
    (directory / "meta.bin").write_bytes(
        b"ITCS1\n" + bytes([3]) + struct.pack(">H", 256))
    with pytest.raises(TamperDetectedError, match="meta"):
        CalculatorStore(directory)


def test_calculator_records_without_meta_file_are_tampering(tmp_path):
    # the meta file is fsynced before the first record, so a directory
    # holding records without it has been tampered with, whatever
    # parameters the opener brings
    store = CalculatorStore(tmp_path / "calc", 256)
    store.put(b"\x01" * 16, 1, calc_seed())
    (tmp_path / "calc" / "meta.bin").unlink()
    with pytest.raises(TamperDetectedError):
        CalculatorStore(tmp_path / "calc", 256)
    with pytest.raises(TamperDetectedError):
        CalculatorStore(tmp_path / "calc", 128)
    with pytest.raises(TamperDetectedError):
        CalculatorStore(tmp_path / "calc")


# ------------------------------------------------------------- holder store

def registered_stores(tmp_path, n_secrets=1, rounds_per_secret=None,
                      params=PARAMS_2311):
    """Register n secrets and persist every holder's share sets."""
    source = rng("register")
    stores = {j: HolderStore(tmp_path / ("holder-%d" % j), holder=j)
              for j in params.holder_indices}
    secrets = []
    for s in range(n_secrets):
        data = bytes(source.take_bytes(9 + 2 * s))
        password = 2 + s
        holders, secret = spss_register(data, password, params, source)
        sid = bytes([0x20 + s]) * 16
        for r in range((rounds_per_secret or [0] * n_secrets)[s]):
            stock(holders, source)
        for j, share_set in holders.items():
            stores[j].put_secret(sid, share_set)
        secrets.append((sid, data, password, secret))
    return stores, secrets


SpentTuple = namedtuple("SpentTuple", "round_id r z")


def spend_one(store, sid, round_id=None):
    """Spend one live tuple, the oldest unless pinned, as a holder that
    no reconstruction asked does: retire it, then save. Returns it as a
    SpentTuple."""
    share_set = store.get_secret(sid)
    if round_id is None:
        round_id = live_ids(share_set)[0]
    tup = SpentTuple(round_id, *live_tuples(share_set)[round_id])
    store.retire(sid, [(round_id, round_id + 1)])
    store.save(sid)
    return tup


def spent_rounds(store, sid) -> tuple:
    """The ids below a secret's next_round that are not live."""
    share_set = store.get_secret(sid)
    return tuple(rid for rid in range(share_set.next_round)
                 if rid not in live_ids(share_set))


def oldest_runs(share_set) -> list:
    """The runs a request pins to spend a holder's oldest live tuples,
    one round per block; past its live stock, the rounds it has not
    stocked yet, which the holder refuses as not live."""
    need, stocked = share_set.block_count, share_set.next_round
    return runs_of((live_ids(share_set)
                    + list(range(stocked, stocked + need)))[:need])


def respond_to(store, sid, password, rounds=None, params=PARAMS_2311):
    """The store's answer to a reconstruction by holders 1-3, pinned to
    rounds, or else to the store's oldest live rounds."""
    if rounds is None:
        rounds = oldest_runs(store.get_secret(sid))
    request = spss_request(password, (1, 2, 3), params, rng("pinned"),
                           rounds=rounds)
    return store.respond(sid, request[store.holder])


def test_holder_store_round_trip_with_consumption(tmp_path):
    # three secrets; 3 + 2 + 2 = 7 tuples per holder, two of them consumed
    stores, secrets = registered_stores(tmp_path, n_secrets=3,
                                        rounds_per_secret=[3, 2, 2])
    store = stores[1]
    sid_a, sid_b = secrets[0][0], secrets[1][0]
    first = spend_one(store, sid_a)
    second = spend_one(store, sid_b, round_id=1)
    assert first.round_id == 0 and second.round_id == 1
    assert first.r is not None and second.z is not None

    again = HolderStore(tmp_path / "holder-1")
    assert again.holder == 1
    assert again.secret_ids() == store.secret_ids()
    for sid in again.secret_ids():
        assert again.get_secret(sid) == store.get_secret(sid)
    assert live_ids(again.get_secret(sid_a)) == [1, 2]
    assert spent_rounds(again, sid_a) == (0,)
    assert spent_rounds(again, sid_b) == (1,)


def test_spends_take_the_oldest_round_and_then_exhaust(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[2])
    sid, _data, password, _secret = secrets[0]
    store = stores[2]
    a = spend_one(store, sid)
    b = spend_one(store, sid)
    assert (a.round_id, b.round_id) == (0, 1)
    assert a.r != b.r
    with pytest.raises(PrecomputationExhaustedError):
        respond_to(store, sid, password)
    with pytest.raises(PrecomputationExhaustedError):
        respond_to(store, sid, password, [(0, 1)])  # already spent


def test_journal_replay_is_idempotent(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[1])
    sid = secrets[0][0]
    spend_one(stores[1], sid)
    once = HolderStore(tmp_path / "holder-1")
    twice = HolderStore(tmp_path / "holder-1")
    assert once.get_secret(sid) == twice.get_secret(sid)
    assert spent_rounds(once, sid) == (0,)


def live_record_path(holder_dir, sid):
    """The one non-empty record slot of a secret."""
    (suffix,) = [s for s, size in holder_record_files(holder_dir)[sid].items()
                 if size]
    return holder_dir / ("%s.%s" % (sid.hex(), suffix))


def test_holder_store_detects_tampering(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[1])
    spend_one(stores[1], secrets[0][0])
    state_path = live_record_path(tmp_path / "holder-1", secrets[0][0])
    corrupt = bytearray(state_path.read_bytes())
    corrupt[len(corrupt) // 2] ^= 0x10
    state_path.write_bytes(bytes(corrupt))
    with pytest.raises(TamperDetectedError):
        HolderStore(tmp_path / "holder-1")


def share_sets_alive() -> int:
    gc.collect()
    return sum(isinstance(o, HolderShareSet) for o in gc.get_objects())


def test_reopening_a_store_of_12_secrets_keeps_at_most_one_share_set(
        tmp_path):
    # opening reads and checks every record but keeps none of the share
    # sets it parses, and a use of a secret replaces the one in hand
    secrets = registered_stores(tmp_path, n_secrets=12)[1]
    before = share_sets_alive()
    store = HolderStore(tmp_path / "holder-1")
    assert len(store.secret_ids()) == 12
    assert share_sets_alive() - before <= 1
    for sid, *_ in secrets:
        store.get_secret(sid)
        assert share_sets_alive() - before <= 1


def recover_through(stores, secret, subset=(1, 2, 3)) -> bytes:
    """A reconstruction of `secret` by the subset, through the stores."""
    sid, data, password, _secret = secret
    return spss_recover([respond_to(stores[j], sid, password)
                         for j in subset], password, PARAMS_2311,
                        byte_length=len(data))


@pytest.mark.parametrize("fault", ["bit-flip", "layout", "rollback"])
def test_a_record_changed_after_its_secret_left_memory_fails_at_its_use(
        tmp_path, fault):
    stores, secrets = registered_stores(tmp_path, n_secrets=3,
                                        rounds_per_secret=[12, 12, 12])
    store, sid = stores[1], secrets[0][0]
    holder_dir = tmp_path / "holder-1"
    older = live_record_path(holder_dir, sid).read_bytes()
    spend_one(store, sid)  # the live record moves to the other slot
    store.get_secret(secrets[2][0])  # and the secret leaves memory
    path = live_record_path(holder_dir, sid)
    if fault == "bit-flip":
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x08
    elif fault == "layout":  # a body one byte short, digested anew
        body = path.read_bytes()[:-33]
        raw = body + stores_mod._record_digest(1, sid, body)
    else:  # the valid record the spend replaced, copied back
        raw = older
    path.write_bytes(raw)
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        store.get_secret(sid)
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        respond_to(store, sid, secrets[0][2])
    assert path.read_bytes() == raw
    # the store's other secrets are still read, served and reconstructed
    assert recover_through(stores, secrets[1]) == secrets[1][1]
    assert recover_through(stores, secrets[2]) == secrets[2][1]


def test_a_save_of_a_secret_not_in_hand_is_refused_and_writes_nothing(
        tmp_path):
    stores, secrets = registered_stores(tmp_path, n_secrets=2)
    store, sid = stores[1], secrets[0][0]
    before = file_bytes(tmp_path / "holder-1")
    for other in (sid, b"\x99" * 16):  # out of memory, and never stored
        with pytest.raises(ProtocolError, match="not the one in hand"):
            store.save(other)
    assert file_bytes(tmp_path / "holder-1") == before
    store.get_secret(sid)
    store.save(sid)
    assert HolderStore(tmp_path / "holder-1").get_secret(sid) == \
        store.get_secret(sid)


def test_a_journal_left_by_an_earlier_version_is_never_read_or_written(
        tmp_path, monkeypatch):
    # fails at the parent commit: opening replayed the journal and dropped
    # round 0, which the record still held live
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[2])
    sid = secrets[0][0]
    holder_dir = tmp_path / "holder-1"
    journal = holder_dir / "journal.log"
    # the earlier versions' consume record: "C", the sid, then id runs
    ChainedLog.open(journal)[0].append(
        b"C" + bytes([len(sid)]) + sid + wire.encode_runs([(0, 1)]))
    left = journal.read_bytes()
    seen = []

    def spy(function):
        def call(path, *args, **kwargs):
            seen.append(Path(path).name)
            return function(path, *args, **kwargs)
        return call

    monkeypatch.setattr(stores_mod, "open", spy(open), raising=False)
    monkeypatch.setattr(Path, "open", spy(Path.open))
    monkeypatch.setattr(Path, "stat", spy(Path.stat))
    reopened = HolderStore(holder_dir)
    assert live_ids(reopened.get_secret(sid)) == [0, 1]
    assert spend_one(reopened, sid).round_id == 0
    assert seen and "journal.log" not in seen
    monkeypatch.undo()
    assert journal.read_bytes() == left
    assert live_ids(HolderStore(holder_dir).get_secret(sid)) == [1]


@pytest.mark.parametrize("edit", [lambda body: body[:-1],
                                  lambda body: body + b"\x00"],
                         ids=["short", "long"])
def test_holder_record_of_the_wrong_length_names_its_path(tmp_path, edit):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[1])
    sid = secrets[0][0]
    path = live_record_path(tmp_path / "holder-1", sid)
    body = edit(path.read_bytes()[:-32])
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")


def per_contributor_body(share_set, seq):
    """A record body in the earlier layout, where an unspent tuple kept a
    contributor count and every contributor's r and z share."""
    field = share_set.params.field
    width = field.byte_width
    out = bytearray(struct.pack(">IBBH", seq, share_set.params.t_sh,
                                share_set.params.n_sh, width))
    out += field.q.to_bytes(width, "big")
    out += struct.pack(">I", len(data_shares(share_set)))
    for v in data_shares(share_set) + (share_set.password_share,):
        out += v.to_bytes(width, "big")
    out += struct.pack(">I", len(live_ids(share_set)))
    n = share_set.params.n_sh
    for rid, tup in sorted(live_tuples(share_set).items()):
        out += struct.pack(">IBB", rid, 0, n)
        for v in [tup.r] * n + [tup.z] * n:
            out += v.to_bytes(width, "big")
    return bytes(out)


def test_a_record_of_the_per_contributor_layout_fails_closed(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[2])
    sid = secrets[0][0]
    path = live_record_path(tmp_path / "holder-1", sid)
    body = per_contributor_body(stores[1].get_secret(sid), 1)
    # as the earlier version wrote it: a digest without the layout label
    old = hashlib.sha256(struct.pack(">HB", 1, len(sid)) + sid + body)
    path.write_bytes(body + old.digest())
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")
    # and its tuples would not parse under the current digest either
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")


def folded_tuple_body(share_set, seq):
    """A record body in the earlier layout, where every tuple ever stocked
    kept its round id and a spent flag, and an unspent one its r and z."""
    field = share_set.params.field
    width = field.byte_width
    out = bytearray(struct.pack(">IBBH", seq, share_set.params.t_sh,
                                share_set.params.n_sh, width))
    out += field.q.to_bytes(width, "big")
    out += struct.pack(">I", len(data_shares(share_set)))
    for v in data_shares(share_set) + (share_set.password_share,):
        out += v.to_bytes(width, "big")
    out += struct.pack(">I", share_set.next_round)
    tuples = live_tuples(share_set)
    for rid in range(share_set.next_round):
        tup = tuples.get(rid)
        out += struct.pack(">IB", rid, tup is None)
        if tup is not None:
            out += tup.r.to_bytes(width, "big") + tup.z.to_bytes(width, "big")
    return bytes(out)


def test_a_record_of_the_folded_tuple_layout_fails_closed(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[3])
    sid = secrets[0][0]
    spend_one(stores[1], sid)
    path = live_record_path(tmp_path / "holder-1", sid)
    body = folded_tuple_body(stores[1].get_secret(sid), 2)
    # as the earlier version wrote it, under its own layout label
    old = hashlib.sha256(b"ITHR folded-tuples\n"
                         + struct.pack(">HB", 1, len(sid)) + sid + body)
    path.write_bytes(body + old.digest())
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")
    # and its tuples would not parse under the current digest either
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")


def id_run_list(runs) -> bytes:
    return struct.pack(">I", len(runs)) + b"".join(
        struct.pack(">II", first, count) for first, count in runs)


def live_runs_body(share_set, seq, next_round, runs, r_column, z_column,
                   renewals=(), width=None):
    """A record body in the current layout, from its parts: the header,
    the data and password shares, the renewal rounds' (first, count) runs,
    next_round, the live ids' runs, then the live tuples' r column and z
    column. With renewals=None, the earlier live-tuple-runs layout, which
    kept no renewal rounds. Every value is `width` bytes wide, the field's
    byte width unless given."""
    params = share_set.params
    width = width or params.field.byte_width

    def column(values):
        return b"".join(v.to_bytes(width, "big") for v in values)

    return b"".join((
        struct.pack(">IBBH", seq, params.t_sh, params.n_sh, width),
        params.field.q.to_bytes(width, "big"),
        struct.pack(">I", len(data_shares(share_set))),
        column(data_shares(share_set) + (share_set.password_share,)),
        b"" if renewals is None else id_run_list(renewals),
        struct.pack(">I", next_round), id_run_list(runs),
        column(r_column), column(z_column),
    ))


def test_a_record_is_its_parts_and_nothing_per_spent_tuple(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[6])
    sid = secrets[0][0]
    for rid in (0, 1, 4):
        spend_one(stores[1], sid, round_id=rid)
    tuples = live_tuples(stores[1].get_secret(sid))
    path = live_record_path(tmp_path / "holder-1", sid)
    body = live_runs_body(stores[1].get_secret(sid), 4, 6, [(2, 2), (5, 1)],
                          [tuples[rid].r for rid in (2, 3, 5)],
                          [tuples[rid].z for rid in (2, 3, 5)])
    assert path.read_bytes() == body + stores_mod._record_digest(1, sid, body)


RECORD_FAULTS = {
    "runs-name-more-ids-than-the-columns": (6, [(0, 3)], 2, 2),
    "r-column-longer": (6, [(0, 2)], 3, 2),
    "z-column-shorter": (6, [(0, 2)], 2, 1),
    "live-id-at-next-round": (2, [(0, 3)], 3, 3),
    "live-id-past-next-round": (3, [(0, 1), (3, 1)], 2, 2),
    "touching-runs": (6, [(0, 1), (1, 1)], 2, 2),
    "overlapping-runs": (6, [(0, 2), (1, 1)], 3, 3),
    "runs-out-of-order": (6, [(3, 1), (0, 1)], 2, 2),
    "empty-run": (6, [(0, 0)], 0, 0),
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_a_record_whose_runs_and_columns_disagree_fails_closed(tmp_path,
                                                               fault):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[1])
    sid = secrets[0][0]
    path = live_record_path(tmp_path / "holder-1", sid)
    next_round, runs, n_r, n_z = RECORD_FAULTS[fault]
    body = live_runs_body(stores[1].get_secret(sid), 2, next_round, runs,
                          [1] * n_r, [2] * n_z)
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")


def test_a_record_wider_than_its_field_fails_closed(tmp_path):
    # a width past the field's still holds every value, and an unkeyed
    # digest is no bar to writing one; kept, its live columns would be
    # out of step with the next stock, so it is refused at open
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[2])
    sid = secrets[0][0]
    share_set = stores[1].get_secret(sid)
    tuples = live_tuples(share_set)
    path = live_record_path(tmp_path / "holder-1", sid)
    body = live_runs_body(share_set, 2, 2, [(0, 2)],
                          [tuples[rid].r for rid in (0, 1)],
                          [tuples[rid].z for rid in (0, 1)],
                          width=share_set.params.field.byte_width + 1)
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError,
                       match=re.escape(str(path)) + ".* bytes wide"):
        HolderStore(tmp_path / "holder-1")


def rewrite_record(holder_dir, sid, share_set, next_round, runs):
    """Replace a secret's live record by one with the given next_round and
    live runs, taking the shares and the live tuples' values from
    `share_set`."""
    tuples = live_tuples(share_set)
    live = [rid for first, count in runs for rid in range(first, first + count)]
    path = live_record_path(holder_dir, sid)
    body = live_runs_body(share_set, 9, next_round, runs,
                          [tuples[rid].r for rid in live],
                          [tuples[rid].z for rid in live])
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    return path


def test_a_record_claiming_four_billion_spent_rounds_fails_closed_at_once(
        tmp_path):
    # opening builds nothing per spent id, and the next precompute
    # refuses before any draw: next_round is a u32 with no room left
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[1])
    sid = secrets[0][0]
    spend_one(stores[1], sid)
    holder_dir = tmp_path / "holder-1"
    top = (1 << 32) - 1
    path = rewrite_record(holder_dir, sid, stores[1].get_secret(sid), top, [])
    assert path.stat().st_size < 100
    tracemalloc.start()
    try:
        reopened = HolderStore(holder_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    sets = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    sets[1] = reopened.get_secret(sid)
    assert sets[1].next_round == top and live_tuples(sets[1]) == {}
    for share_set in sets.values():
        share_set.next_round = top
    with pytest.raises(ProtocolError, match="u32"):
        stock(sets, rng("u32"))
    assert sets[1].next_round == top and live_tuples(sets[1]) == {}


def test_spends_and_stocks_past_max_ids_reopen(tmp_path, monkeypatch):
    # MAX_IDS bounds id lists on the wire; a store names as many rounds as
    # its own records and spends hold
    monkeypatch.setattr(wire, "MAX_IDS", 2)
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, data, password, secret = secrets[0]
    need = stores[1].get_secret(sid).block_count
    assert need > 2
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    stock(live, rng("max-ids"), rounds=3 * need)
    for j in (1, 2, 3):
        stores[j].save(sid)
        stores[j].respond(sid, spss_request(
            password, (1, 2, 3), PARAMS_2311, rng("max-ids"),
            rounds=oldest_runs(stores[j].get_secret(sid)))[j])
    for j in (1, 2, 3):
        reopened = HolderStore(tmp_path / ("holder-%d" % j))
        assert spent_rounds(reopened, sid) == tuple(range(need))
        assert reopened.get_secret(sid) == stores[j].get_secret(sid)


def spend_cycles(tmp_path, cycles):
    """Register one secret in the 127-bit field with two reconstructions'
    worth of tuples, then run `cycles` times: spend the oldest tuples at
    holders 1-3 and stock as many again. Yields after each cycle."""
    source = rng("cycles")
    stores = {j: HolderStore(tmp_path / ("holder-%d" % j), holder=j)
              for j in CRASH_PARAMS.holder_indices}
    holders, secret = spss_register(bytes(source.take_bytes(100)), 31337,
                                    CRASH_PARAMS, source)
    need = len(secret.blocks) + 1
    stock(holders, source, rounds=2 * need)
    for j, share_set in holders.items():
        stores[j].put_secret(SID_A, share_set)
    for cycle in range(cycles):
        requests = spss_request(31337, (1, 2, 3), CRASH_PARAMS, source,
                                oldest_runs(stores[1].get_secret(SID_A)))
        for j in (1, 2, 3):
            stores[j].respond(SID_A, requests[j])
        sets = {j: stores[j].get_secret(SID_A)
                for j in CRASH_PARAMS.holder_indices}
        stock(sets, source, rounds=need)
        for j in CRASH_PARAMS.holder_indices:
            stores[j].save(SID_A)
        yield stores, need, cycle


def test_a_responders_record_holds_32_bytes_per_live_tuple_and_stops_growing(
        tmp_path):
    holder_dir = tmp_path / "holder-1"
    sizes = []
    for stores, need, cycle in spend_cycles(tmp_path, 10):
        share_set = stores[1].get_secret(SID_A)
        assert live_ids(share_set) == list(
            range((cycle + 1) * need, (cycle + 3) * need))
        assert spent_rounds(stores[1], SID_A) == tuple(
            range((cycle + 1) * need))
        size = live_record_path(holder_dir, SID_A).stat().st_size
        fixed = (4 + 4 + 16  # sequence number, layout, q
                 + 4 + 16 * (need + 1)  # data shares and password share
                 + 4  # no renewal round: an empty run list
                 + 4 + 4 + 8  # next_round and one (first, count) run
                 + 32)  # digest
        assert size == fixed + 32 * 2 * need
        sizes.append(size)
    assert len(set(sizes)) == 1


def test_reopened_stores_keep_spent_rounds_and_never_reuse_an_id(tmp_path):
    for stores, need, cycle in spend_cycles(tmp_path, 2):
        pass
    consumed = {j: spent_rounds(stores[j], SID_A) for j in stores}
    assert consumed[1] == tuple(range(2 * need)) and consumed[4] == ()
    # spend every tuple holders 1-3 have left
    for _ in range(2):
        requests = spss_request(31337, (1, 2, 3), CRASH_PARAMS, rng("all"),
                                oldest_runs(stores[1].get_secret(SID_A)))
        for j in (1, 2, 3):
            stores[j].respond(SID_A, requests[j])
    for j in (1, 2, 3):
        assert live_ids(stores[j].get_secret(SID_A)) == []
    reopened = {j: HolderStore(tmp_path / ("holder-%d" % j))
                for j in CRASH_PARAMS.holder_indices}
    for j in (1, 2, 3):
        assert spent_rounds(reopened[j], SID_A) == tuple(range(4 * need))
    assert spent_rounds(reopened[4], SID_A) == ()
    for j in reopened:
        assert reopened[j].get_secret(SID_A) == stores[j].get_secret(SID_A)
    sets = {j: reopened[j].get_secret(SID_A) for j in reopened}
    assert tuple(stock(sets, rng("next"), rounds=2)) == (
        4 * need, 4 * need + 1)


def test_respond_refuses_a_round_id_named_twice_before_journaling(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, data, password, secret = secrets[0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    need = len(secret.blocks) + 1
    ids = stock(live, rng("twice"), rounds=need)
    for j in PARAMS_2311.holder_indices:
        stores[j].save(sid)
    record = live_record_path(tmp_path / "holder-1", sid).read_bytes()
    twice = (ids[0],) * need
    request = spss_request(password, (1, 2, 3), PARAMS_2311, rng("twice"),
                           rounds=runs_of(twice))
    with pytest.raises(ImproperRequestError):
        stores[1].respond(sid, request[1])
    assert live_record_path(tmp_path / "holder-1", sid).read_bytes() == record
    reopened = HolderStore(tmp_path / "holder-1")
    assert live_ids(reopened.get_secret(sid)) == list(ids)
    assert spent_rounds(reopened, sid) == ()


def test_retire_journals_chunks_of_one_spend_and_refuses_a_dead_round(
        tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    limit = live[4].block_count
    stock(live, rng("retire"), rounds=3 * limit + 1)
    store = stores[4]
    store.save(sid)
    with pytest.raises(ProtocolError):
        store.retire(sid, [(0, 1), (3 * limit + 1, 3 * limit + 2)])
    assert live_ids(live[4]) == list(range(3 * limit + 1))
    store.retire(sid, [(0, 3 * limit)])
    assert live_ids(live[4]) == [3 * limit]
    store.save(sid)
    reopened = HolderStore(tmp_path / "holder-4")
    assert live_ids(reopened.get_secret(sid)) == [3 * limit]
    assert spent_rounds(reopened, sid) == tuple(range(3 * limit))


def test_retire_refuses_a_round_named_twice_before_dropping_any(tmp_path):
    # fails at the parent commit: retire dropped round 1, then raised a
    # bare KeyError on its second mention
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    stock(live, rng("retire-twice"), rounds=3)
    store = stores[4]
    store.save(sid)
    record = live_record_path(tmp_path / "holder-4", sid).read_bytes()
    with pytest.raises(ImproperRequestError, match="twice"):
        store.retire(sid, [(1, 2), (1, 2)])
    assert live_ids(live[4]) == [0, 1, 2]
    assert live_record_path(tmp_path / "holder-4", sid).read_bytes() == record
    store.save(sid)  # a later save still writes every round live
    reopened = HolderStore(tmp_path / "holder-4")
    assert live_ids(reopened.get_secret(sid)) == [0, 1, 2]
    assert spent_rounds(reopened, sid) == ()


@pytest.mark.parametrize("fault", sorted(refused_runs(4)))
def test_respond_and_retire_refuse_each_faulty_request_before_any_change(
        tmp_path, fault):
    # respond and retire both spend through cut_rounds, whose refusals
    # leave the holder's columns and its record as they were; a retire
    # names no total, so only respond meets the wrong one
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, _data, password, _secret = secrets[0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    need = live[1].block_count
    stock(live, rng("refused-runs"), rounds=need + 2)
    store = stores[1]
    if fault == "gap":
        store.retire(sid, [(need - 1, need)])
    for j in PARAMS_2311.holder_indices:
        stores[j].save(sid)
    path = live_record_path(tmp_path / "holder-1", sid)
    record = path.read_bytes()
    before = live_columns(store.get_secret(sid))
    runs, error = refused_runs(need)[fault]
    request = spss_request(password, (1, 2, 3), PARAMS_2311,
                           rng("refused"), rounds=runs)[1]
    spends = [lambda: store.respond(sid, request)]
    if fault != "wrong-total":
        spends.append(lambda: store.retire(sid, runs))
    for spend in spends:
        with pytest.raises(error):
            spend()
        assert live_columns(store.get_secret(sid)) == before
        assert path.read_bytes() == record
    # the same live rounds, named as canonical runs, are served
    good = ([(0, need - 1), (need, need + 1)] if fault == "gap"
            else [(0, need)])
    store.respond(sid, spss_request(password, (1, 2, 3), PARAMS_2311,
                                    rng("refused"), rounds=good)[1])
    assert live_ids(HolderStore(tmp_path / "holder-1").get_secret(sid)) == (
        [need + 1] if fault == "gap" else [need, need + 1])


def test_retire_drops_its_rounds_without_decoding_them(tmp_path,
                                                      monkeypatch):
    # only a response needs the spent (r, z) as ints; a retire cuts the
    # columns and keeps every other tuple's bytes
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    stock(live, rng("retire-raw"), rounds=6)
    tuples = live_tuples(live[4])
    kept = {rid: tuples[rid] for rid in (0, 3, 5)}

    def no_decoding(self, count, width):
        raise AssertionError("a retire decoded %d values" % count)

    monkeypatch.setattr(wire.Cursor, "uints", no_decoding)
    stores[4].retire(sid, [(1, 3), (4, 5)])
    with pytest.raises(PrecomputationExhaustedError):
        stores[4].retire(sid, [(0, 2)])
    with pytest.raises(ImproperRequestError, match="twice"):
        stores[4].retire(sid, [(0, 1), (0, 1)])
    monkeypatch.undo()
    assert live_tuples(live[4]) == kept


def test_reconstruction_through_stores(tmp_path):
    source = rng("recon")
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, data, password, secret = secrets[0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    ids = [stock(live, source)[0]
           for _ in range(len(secret.blocks) + 1)]
    for j in PARAMS_2311.holder_indices:
        stores[j].save(sid)

    subset = (1, 3, 4)
    requests = spss_request(password, subset, PARAMS_2311, source,
                            rounds=runs_of(ids))
    responses = []
    for j in subset:
        # reload holder 3 from disk mid-flight: persisted masks must serve
        store = (HolderStore(tmp_path / "holder-3") if j == 3 else stores[j])
        responses.append(store.respond(sid, requests[j]))
    recovered = spss_recover(responses, password, PARAMS_2311,
                             byte_length=len(data))
    assert recovered == data

    # every spent round is absent from each contacted store's record
    for j in subset:
        reloaded = HolderStore(tmp_path / ("holder-%d" % j))
        assert spent_rounds(reloaded, sid) == tuple(sorted(ids))


def test_respond_failure_leaves_journal_clean(tmp_path):
    source = rng("respond-fail")
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, data, password, secret = secrets[0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    ids = [stock(live, source)[0]
           for _ in range(len(secret.blocks) + 1)]
    for j in PARAMS_2311.holder_indices:
        stores[j].save(sid)

    requests = spss_request(password, (1, 2, 3), PARAMS_2311, source,
                            rounds=runs_of(ids))
    record = live_record_path(tmp_path / "holder-4", sid).read_bytes()
    with pytest.raises(ProtocolError):
        stores[4].respond(sid, requests[1])  # holder 4 is outside the subset
    missing = spss_request(password, (1, 2, 4), PARAMS_2311, source,
                           rounds=runs_of(tuple(ids) + (99,)))
    with pytest.raises(PrecomputationExhaustedError):
        stores[4].respond(sid, missing[4])
    assert live_record_path(tmp_path / "holder-4", sid).read_bytes() == record
    assert live_ids(stores[4].get_secret(sid)) == sorted(ids)


def test_a_pinned_request_one_id_short_is_improper_at_the_store_too(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, data, password, secret = secrets[0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    ids = stock(live, rng("short"), rounds=len(secret.blocks) + 1)
    for j in PARAMS_2311.holder_indices:
        stores[j].save(sid)
    request = spss_request(password, (1, 2, 3), PARAMS_2311, rng("short"),
                           rounds=runs_of(ids[:-1]))[1]
    record = live_record_path(tmp_path / "holder-1", sid).read_bytes()
    with pytest.raises(ImproperRequestError):
        stores[1].respond(sid, request)
    assert live_record_path(tmp_path / "holder-1", sid).read_bytes() == record
    with pytest.raises(ImproperRequestError):
        holder_respond(stores[1].get_secret(sid), request)
    assert live_ids(stores[1].get_secret(sid)) == list(ids)


def test_a_spent_round_is_absent_in_memory_and_after_reopening(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid, data, password, secret = secrets[0]
    live = {j: stores[j].get_secret(sid) for j in PARAMS_2311.holder_indices}
    need = len(secret.blocks) + 1
    stock(live, rng("absent"), rounds=need + 2)
    for j in PARAMS_2311.holder_indices:
        stores[j].save(sid)
    store = stores[1]
    store.respond(sid, spss_request(password, (1, 2, 3), PARAMS_2311,
                                    rng("absent"),
                                    oldest_runs(store.get_secret(sid)))[1])
    assert spend_one(store, sid).round_id == need
    share_set = store.get_secret(sid)
    assert live_ids(share_set) == [need + 1]
    assert share_set.next_round == need + 2
    reopened = HolderStore(tmp_path / "holder-1").get_secret(sid)
    assert reopened == share_set and reopened.next_round == need + 2
    assert spent_rounds(store, sid) == tuple(range(need + 1))


def share_column(values, field) -> wire.Packed:
    """values as the Packed share column that renewal_round returns and
    apply_renewal takes."""
    return wire.Packed(wire.column(values, field.byte_width),
                       field.byte_width)


def test_renewal_destroys_old_share_bytes(tmp_path):
    params = SpssParams()  # 127-bit field: 16-byte share encodings
    field = params.field
    source = rng("renew")
    data = bytes(source.take_bytes(40))
    holders, secret = spss_register(data, 12345, params, source)
    store = HolderStore(tmp_path / "holder-1", holder=1)
    sid = b"\x44" * 16
    store.put_secret(sid, holders[1])
    old_shares = list(data_shares(holders[1]))
    old_bytes = [v.to_bytes(field.byte_width, "big") for v in old_shares]
    holder_dir = tmp_path / "holder-1"
    for raw in old_bytes:
        assert directory_contains_window(holder_dir, raw, window=16)

    new_shares = [field.add(v, 1 + i) for i, v in enumerate(old_shares)]
    store.apply_renewal(sid, share_column(new_shares, field), round_no=1)
    for raw in old_bytes:
        assert not directory_contains_window(holder_dir, raw, window=16)
    state = live_record_path(holder_dir, sid).read_bytes()
    for v in new_shares:
        assert v.to_bytes(field.byte_width, "big") in state
    assert store.renewal_rounds(sid) == (1,)

    reloaded = HolderStore(tmp_path / "holder-1")
    assert data_shares(reloaded.get_secret(sid)) == tuple(new_shares)
    assert reloaded.renewal_rounds(sid) == (1,)


def test_renewal_rounds_live_in_the_record_and_read_no_file(tmp_path,
                                                            monkeypatch):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[1])
    sid = secrets[0][0]
    store = stores[1]
    shares = share_column(data_shares(store.get_secret(sid)),
                          PARAMS_2311.field)
    for round_no in (0, 1, 3):
        store.apply_renewal(sid, shares, round_no)
    with pytest.raises(ProtocolError):
        store.apply_renewal(sid, shares, 3)  # rounds must increase
    with pytest.raises(ProtocolError):
        store.apply_renewal(sid, shares, 1 << 32)
    assert store.get_secret(sid).renewal_runs == [(0, 2), (3, 4)]
    reopened = HolderStore(tmp_path / "holder-1")
    record = live_record_path(tmp_path / "holder-1", sid).name
    opened = []

    def spy(path, *args, **kwargs):
        opened.append(Path(path).name)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(stores_mod, "open", spy, raising=False)
    # the reopened store reads the secret's live record at its first use
    # and no other file; a secret in hand reads none
    assert reopened.renewal_rounds(sid) == (0, 1, 3)
    assert reopened.renewal_rounds(sid) == (0, 1, 3)
    assert stores[2].renewal_rounds(sid) == ()
    assert opened == [record]


def test_a_record_of_the_live_tuple_runs_layout_fails_closed(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[3])
    sid = secrets[0][0]
    spend_one(stores[1], sid)
    share_set = stores[1].get_secret(sid)
    tuples = live_tuples(share_set)
    path = live_record_path(tmp_path / "holder-1", sid)
    # the layout before renewal rounds moved into the record, as that
    # version wrote it: no renewal runs, under its own layout label
    body = live_runs_body(share_set, 3, 3, [(1, 2)],
                          [tuples[rid].r for rid in (1, 2)],
                          [tuples[rid].z for rid in (1, 2)], renewals=None)
    old = hashlib.sha256(b"ITHR live-tuple-runs\n"
                         + struct.pack(">HB", 1, len(sid)) + sid + body)
    path.write_bytes(body + old.digest())
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")
    # and its next_round would be read as an empty renewal run list, and
    # its runs as next_round, under the current digest
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")


@pytest.mark.parametrize("renewals", [[(0, 0)], [(2, 1), (0, 1)],
                                      [(0, 1), (1, 1)], [(0xFFFFFFFF, 2)]],
                         ids=["empty", "out-of-order", "touching", "past-u32"])
def test_malformed_renewal_runs_fail_closed(tmp_path, renewals):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    path = live_record_path(tmp_path / "holder-1", sid)
    body = live_runs_body(stores[1].get_secret(sid), 2, 0, [], [], [],
                          renewals=renewals)
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
        HolderStore(tmp_path / "holder-1")


def test_a_renewal_history_past_max_ids_reopens_after_its_save(tmp_path):
    # fails at the parent commit: apply_renewal saved the run of 2^22 + 1
    # rounds, and the reopen refused it as naming more than MAX_IDS ids
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    holder_dir = tmp_path / "holder-1"
    path = live_record_path(holder_dir, sid)
    body = live_runs_body(stores[1].get_secret(sid), 2, 0, [], [], [],
                          renewals=[(0, wire.MAX_IDS)])
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    store = HolderStore(holder_dir)
    shares = share_column(data_shares(store.get_secret(sid)),
                          PARAMS_2311.field)
    store.apply_renewal(sid, shares, wire.MAX_IDS)
    reopened = HolderStore(holder_dir)
    assert reopened.get_secret(sid).renewal_runs == [(0, wire.MAX_IDS + 1)]


def test_renewal_runs_span_the_u32_round_ids(tmp_path):
    # one run holds at most 2^32 - 1 rounds (its count is a u32), so a
    # round that would lengthen such a run is refused before any change
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    holder_dir = tmp_path / "holder-1"
    path = live_record_path(holder_dir, sid)
    full = [(0, 0xFFFFFFFF)]
    body = live_runs_body(stores[1].get_secret(sid), 2, 0, [], [], [],
                          renewals=full)
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    store = HolderStore(holder_dir)
    before = store.get_secret(sid)
    shares = share_column((v + 1 for v in data_shares(before)),
                          PARAMS_2311.field)
    with pytest.raises(ProtocolError):
        store.apply_renewal(sid, shares, 0xFFFFFFFF)
    assert store.get_secret(sid).renewal_runs == full
    assert data_shares(store.get_secret(sid)) == data_shares(before)
    assert path.read_bytes()[:len(body)] == body
    assert HolderStore(holder_dir).get_secret(sid) == store.get_secret(sid)


def test_a_long_renewal_history_opens_without_being_expanded(tmp_path):
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    path = live_record_path(tmp_path / "holder-1", sid)
    body = live_runs_body(stores[1].get_secret(sid), 2, 0, [], [], [],
                          renewals=[(0, wire.MAX_IDS)])
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    tracemalloc.start()
    try:
        reopened = HolderStore(tmp_path / "holder-1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert reopened.get_secret(sid).renewal_runs == [(0, wire.MAX_IDS)]


def test_a_long_renewal_history_is_saved_without_being_expanded(tmp_path):
    # fails at the parent commit: a save wrote the renewal rounds through
    # encode_ids of every round, 2^22 ints for this one run
    stores, secrets = registered_stores(tmp_path, rounds_per_secret=[0])
    sid = secrets[0][0]
    holder_dir = tmp_path / "holder-1"
    path = live_record_path(holder_dir, sid)
    body = live_runs_body(stores[1].get_secret(sid), 2, 0, [], [], [],
                          renewals=[(0, wire.MAX_IDS)])
    path.write_bytes(body + stores_mod._record_digest(1, sid, body))
    store = HolderStore(holder_dir)
    store.get_secret(sid)  # a save writes the share set in hand
    tracemalloc.start()
    try:
        store.save(sid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    reopened = HolderStore(holder_dir)
    assert reopened.get_secret(sid) == store.get_secret(sid)
    assert reopened.get_secret(sid).renewal_runs == [(0, wire.MAX_IDS)]


def test_holder_store_validation(tmp_path):
    stores, secrets = registered_stores(tmp_path)
    sid = secrets[0][0]
    with pytest.raises(ProtocolError):
        stores[1].put_secret(sid, stores[1].get_secret(sid))  # duplicate
    with pytest.raises(ProtocolError):
        stores[1].put_secret(b"\x77" * 16, stores[2].get_secret(sid))
    with pytest.raises(ProtocolError):
        stores[1].get_secret(b"\x88" * 16)
    with pytest.raises(ConfigurationError):
        HolderStore(tmp_path / "holder-1", holder=2)  # wrong owner
    with pytest.raises(ConfigurationError):
        HolderStore(tmp_path / "fresh")  # new store needs an index


def test_empty_holder_store_round_trip(tmp_path):
    # the holder index reaches disk with a first save; one whose record
    # never completed leaves a store with its index and no secret
    holders, _ = spss_register(b"never saved", 3, PARAMS_2311, rng("empty"))
    HolderStore(tmp_path / "empty", holder=2).put_secret(SID_A, holders[2])
    (tmp_path / "empty" / (SID_A.hex() + ".a")).write_bytes(b"")
    again = HolderStore(tmp_path / "empty")
    assert again.holder == 2 and again.secret_ids() == ()


# ------------------------------------------------- crash safety and O(secret)

CRASH_PARAMS = SpssParams()  # 127-bit field: 16-byte share encodings
SID_A = b"\xa1" * 16
SID_B = b"\xb2" * 16


class SimulatedCrash(Exception):
    """The process dies at an fsync; the bytes written before it stay."""


class CrashingOs:
    """Stand-in for `os` inside itstore.stores that counts fsyncs and
    raises SimulatedCrash in place of the crash_at-th one."""

    def __init__(self, crash_at=None):
        self.calls = 0
        self.crash_at = crash_at

    def fsync(self, fd):
        os.fsync(fd)
        self.calls += 1
        if self.calls == self.crash_at:
            raise SimulatedCrash("after fsync %d" % self.calls)

    def __getattr__(self, name):
        return getattr(os, name)


@contextmanager
def fsyncs(crash_at=None):
    proxy = CrashingOs(crash_at)
    stores_mod.os = proxy
    try:
        yield proxy
    finally:
        stores_mod.os = os


def crash_case(directory, op):
    """Build holder 1's store for one operation; returns the store and the
    operation as a closure. Every call rebuilds the same bytes."""
    source = rng("crash-" + op)
    holders, secret = spss_register(bytes(source.take_bytes(40)), 777,
                                    CRASH_PARAMS, source)
    for _ in range(len(secret.blocks) + 1):
        stock(holders, source)
    other, _ = spss_register(bytes(source.take_bytes(30)), 778,
                             CRASH_PARAMS, source)
    store = HolderStore(directory, holder=1)
    if op == "put-first":
        return store, lambda: store.put_secret(SID_A, holders[1])
    store.put_secret(SID_A, holders[1])
    if op == "put":
        return store, lambda: store.put_secret(SID_B, other[1])
    if op == "precompute":
        def precompute():
            stock(holders, source)
            store.save(SID_A)
        return store, precompute
    if op == "respond":
        request = spss_request(777, (1, 2, 3), CRASH_PARAMS, source,
                               oldest_runs(holders[1]))[1]
        return store, lambda: store.respond(SID_A, request)
    if op == "retire":
        stranded = holders[1].live

        def retire():
            store.retire(SID_A, stranded)
            store.save(SID_A)
        return store, retire
    field = CRASH_PARAMS.field
    renewed = [field.add(v, 1 + i)
               for i, v in enumerate(data_shares(holders[1]))]
    return store, lambda: store.apply_renewal(
        SID_A, share_column(renewed, field), round_no=1)


def disk_state(directory) -> dict:
    store = HolderStore(directory, holder=1)
    return {sid: store.get_secret(sid) for sid in store.secret_ids()}


def slot_records(directory) -> set:
    """Contents of every non-empty record slot."""
    if not directory.exists():  # a new store makes it at its first write
        return set()
    return {p.read_bytes() for p in directory.iterdir()
            if p.suffix in (".a", ".b") and p.stat().st_size}


def share_values(share_set) -> set:
    values = set(data_shares(share_set)) | {share_set.password_share}
    for tup in live_tuples(share_set).values():
        values.update((tup.r, tup.z))
    return values


@pytest.mark.parametrize("op", ["put-first", "put", "precompute", "respond",
                                "retire", "renew"])
def test_crash_at_every_fsync_leaves_an_openable_consistent_store(tmp_path, op):
    """Crash at each fsync of one operation, reopen (crashing again at each
    fsync of the recovery until it completes) and check the guarantees."""
    ref = tmp_path / "ref"
    store, action = crash_case(ref, op)
    old = disk_state(ref)
    old_records = slot_records(ref)
    with fsyncs() as counter:
        action()
    total = counter.calls
    new = disk_state(ref)
    new_records = slot_records(ref) - old_records
    assert total >= 2 and new != old
    field = CRASH_PARAMS.field
    dropped = set()
    if SID_A in old and SID_A in new:
        dropped = share_values(old[SID_A]) - share_values(new[SID_A])
    if op in ("respond", "renew"):
        assert dropped

    for k in range(1, total + 1):
        directory = tmp_path / ("crash-%d" % k)
        store, action = crash_case(directory, op)
        with fsyncs(crash_at=k), pytest.raises(SimulatedCrash):
            action()
        del store
        new_written = bool(slot_records(directory) & new_records)
        for j in range(1, 50):
            with fsyncs(crash_at=j):
                try:
                    HolderStore(directory, holder=1)
                    break
                except SimulatedCrash:
                    continue
        else:
            pytest.fail("recovery after a crash at fsync %d never ends" % k)

        again = HolderStore(directory, holder=1)
        state = {sid: again.get_secret(sid) for sid in again.secret_ids()}
        assert state in (old, new), "crash at fsync %d mixed old and new" % k
        if new_written:
            assert state == new, "crash at fsync %d revived old shares" % k
        if op == "renew":
            # the renewal round is noted with the shares it installed
            assert (data_shares(state[SID_A]),
                    again.renewal_rounds(SID_A)) in (
                (data_shares(old[SID_A]), ()),
                (data_shares(new[SID_A]), (1,)),
            ), "crash at fsync %d split shares from renewal rounds" % k
        for sid, sizes in holder_record_files(directory).items():
            assert "new" not in sizes
            assert sum(1 for size in sizes.values() if size) == 1, sizes
        if state == new:
            for v in dropped:
                assert not directory_contains_window(
                    directory, v.to_bytes(field.byte_width, "big"),
                    window=16), \
                    "crash at fsync %d left a dropped share on disk" % k


def test_holder_store_slot_states_on_open(tmp_path):
    stores, secrets = registered_stores(tmp_path, n_secrets=2,
                                        rounds_per_secret=[1, 1])
    sid_a, sid_b = secrets[0][0], secrets[1][0]
    spend_one(stores[1], sid_a)  # sid_a now lives in slot b
    holder_dir = tmp_path / "holder-1"
    live = (holder_dir / (sid_a.hex() + ".b")).read_bytes()

    # the same sequence number in both slots is no state a save leaves
    (holder_dir / (sid_a.hex() + ".a")).write_bytes(live)
    with pytest.raises(TamperDetectedError):
        HolderStore(holder_dir)
    (holder_dir / (sid_a.hex() + ".a")).write_bytes(b"")

    # only empty slots: the secret's first save never completed
    (holder_dir / (sid_b.hex() + ".a")).write_bytes(b"")
    reopened = HolderStore(holder_dir)
    assert reopened.secret_ids() == (sid_a,)
    assert sid_b not in holder_record_files(holder_dir)
    assert spent_rounds(reopened, sid_a) == (0,)


def test_an_old_slot_zeroed_but_never_truncated_is_emptied_on_open(tmp_path):
    directory = tmp_path / "holder"
    store, respond = crash_case(directory, "respond")
    with fsyncs() as counter:
        store.save(SID_A)
    assert counter.calls == 2  # the new record, then the zeroed old slot
    old = disk_state(directory)[SID_A]
    old_path = live_record_path(directory, SID_A)
    old_size = old_path.stat().st_size
    respond()
    new = store.get_secret(SID_A)
    dropped = share_values(old) - share_values(new)
    assert dropped and old_path.stat().st_size == 0
    # the old slot's zeroes reached disk but its truncation was lost
    old_path.write_bytes(b"\x00" * old_size)
    reopened = HolderStore(directory)
    assert reopened.get_secret(SID_A) == new
    assert old_path.stat().st_size == 0
    field = CRASH_PARAMS.field
    for v in dropped:
        assert not directory_contains_window(
            directory, v.to_bytes(field.byte_width, "big"), window=16)


class CountingFile:
    def __init__(self, fh, log, path):
        self._fh, self._log, self._path = fh, log, path

    def write(self, data):
        n = self._fh.write(data)
        self._log.append((self._path, n))
        return n

    def __enter__(self):
        self._fh.__enter__()
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def file_bytes(directory) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_saving_one_secret_writes_only_its_record(tmp_path, monkeypatch):
    writes = []

    def counting_open(path, mode="r", *args, **kwargs):
        return CountingFile(open(path, mode, *args, **kwargs), writes,
                            Path(path).name)

    monkeypatch.setattr(stores_mod, "open", counting_open, raising=False)
    source = rng("o-secret")
    holders, _ = spss_register(bytes(source.take_bytes(1024)), 99,
                               CRASH_PARAMS, source)
    template = holders[1]
    cost = {}
    for stored in (1, 100):
        directory = tmp_path / ("stored-%d" % stored)
        store = HolderStore(directory, holder=1)
        for i in range(stored):
            store.put_secret(struct.pack(">I", i) * 4, copy.deepcopy(template))
        before = file_bytes(directory)
        del writes[:]
        store.put_secret(b"\xee" * 16, copy.deepcopy(template))
        cost[stored] = sum(n for _path, n in writes)
        assert {path for path, _n in writes} <= {"ee" * 16 + ".new"}
        after = file_bytes(directory)
        assert {name: after[name] for name in before} == before

    # a rewrite of one secret leaves every other record byte-identical
    sid = struct.pack(">I", 7) * 4
    store.get_secret(sid).password_share = 5
    before = file_bytes(directory)
    store.save(sid)
    after = file_bytes(directory)
    changed = {name for name in after if after[name] != before.get(name)}
    assert changed and all(name.startswith(sid.hex()) for name in changed)
    assert cost[1] == cost[100] > 1024


# ------------------------------------------------- deferred calculator meta


def test_building_a_session_makes_no_fsync_and_meta_comes_with_register(
        tmp_path):
    net = KeyNetwork(DEFAULT_TOPOLOGY, master_seed=b"store-suite")
    net.advance(3_600_000)
    with fsyncs() as counter:
        session = TpvSession(tmp_path, net=net)
    assert counter.calls == 0
    meta = tmp_path / "calculator" / "meta.bin"
    assert not meta.exists()
    session.register(b"the first secret of a new deployment", b"pw")
    reopened = CalculatorStore(tmp_path / "calculator")
    assert meta.exists() and len(reopened.ids()) == 1
    assert reopened.k == session.k


def test_crash_in_a_new_calculator_stores_first_put(tmp_path):
    """Crash at each fsync of a new store's first put: the store reopens
    without parameters, with its k, and holds either no record or exactly
    that one."""
    seed = calc_seed()
    sid = b"\x0c" * 16
    with fsyncs() as counter:
        CalculatorStore(tmp_path / "ref", 256).put(
            sid, 12, seed)
    # the new directory's entry in the root; the meta file, published;
    # then the record, published
    assert counter.calls == 5
    for k in range(1, counter.calls + 1):
        directory = tmp_path / ("crash-%d" % k)
        store = CalculatorStore(directory, 256)
        with fsyncs(crash_at=k), pytest.raises(SimulatedCrash):
            store.put(sid, 12, seed)
        if k < 3:  # the meta file is renamed into place at fsync 3
            with pytest.raises(ConfigurationError):
                CalculatorStore(directory)
            reopened = CalculatorStore(directory, 256)
        else:
            reopened = CalculatorStore(directory)
        assert reopened.k == 256
        assert reopened.ids() == (() if k < 5 else (sid,))
        assert not list(directory.glob("*.new"))
        if reopened.ids():
            t1, restored = reopened.get(sid)
            assert (t1, restored.value, restored.k) == (12, seed.value, seed.k)


def test_a_new_log_file_makes_its_directory_entry_durable(tmp_path):
    log, _ = ChainedLog.open(tmp_path / "verifier.log")
    with fsyncs() as counter:
        log.append(b"first")
    assert counter.calls == 2  # the record, then the directory
    with fsyncs() as counter:
        log.append(b"second")
        ChainedLog.open(tmp_path / "verifier.log")[0].append(b"third")
    assert counter.calls == 2  # one per append, the file already named
    assert ChainedLog.open(tmp_path / "verifier.log")[1] == (
        b"first", b"second", b"third")


# ------------------------------------------------ directories at first write


def first_writes(directory):
    """The first write of each store kind opened at `directory`."""
    holders, _ = spss_register(b"first write", 5, PARAMS_2311, rng("dirs"))
    holder = HolderStore(directory / "holder", holder=1)
    calculator = CalculatorStore(directory / "calculator", 256)
    verifier = VerifierStore(directory / "verifier")
    return {
        "holder": lambda: holder.put_secret(SID_A, holders[1]),
        "calculator": lambda: calculator.put(SID_A, 7, calc_seed()),
        "verifier": lambda: verifier.append(make_record(1, 2, 3)),
    }


def test_stores_create_no_directory_before_their_first_write(tmp_path):
    root = tmp_path / "deployment"
    writes = first_writes(root)
    assert not root.exists()
    # a missing directory opens as an empty store, and still is not made
    assert HolderStore(root / "holder", holder=1).secret_ids() == ()
    assert len(CalculatorStore(root / "calculator", 256).ids()) == 0
    assert len(VerifierStore(root / "verifier").records()) == 0
    assert not root.exists()
    for name, write in writes.items():
        write()
        assert (root / name).is_dir()
    assert HolderStore(root / "holder").secret_ids() == (SID_A,)
    assert CalculatorStore(root / "calculator").ids() == (SID_A,)
    assert len(VerifierStore(root / "verifier").records()) == 1

    net = KeyNetwork(DEFAULT_TOPOLOGY, master_seed=b"store-suite")
    TpvSession(tmp_path / "session", net=net)
    assert list((tmp_path / "session").iterdir()) == []


def test_pending_names_a_crash_left_are_erased_on_open(tmp_path):
    holders, _ = spss_register(b"pending", 5, PARAMS_2311, rng("pending"))
    holder_dir, calc_dir = tmp_path / "holder", tmp_path / "calculator"
    HolderStore(holder_dir, holder=1).put_secret(SID_A, holders[1])
    CalculatorStore(calc_dir, 256).put(
        SID_A, 7, calc_seed())
    for pending in (holder_dir / "holder.new",
                    holder_dir / (SID_B.hex() + ".new"),
                    calc_dir / "meta.new", calc_dir / (SID_B.hex() + ".new")):
        pending.write_bytes(b"torn")
    assert set(holder_record_files(holder_dir)) == {SID_A, SID_B}
    assert HolderStore(holder_dir).secret_ids() == (SID_A,)
    assert CalculatorStore(calc_dir).ids() == (SID_A,)
    assert sorted(p.name for p in holder_dir.iterdir()) == [
        SID_A.hex() + ".a", SID_A.hex() + ".b", "holder.bin"]
    assert sorted(p.name for p in calc_dir.iterdir()) == [
        SID_A.hex() + ".rec", "meta.bin"]


def test_a_directory_made_at_the_first_write_costs_one_root_fsync(tmp_path):
    made = tmp_path / "made"
    for name in ("holder", "calculator", "verifier"):
        (made / name).mkdir(parents=True)
    calls = {}
    for label, root in (("made", made), ("lazy", tmp_path / "lazy")):
        for name, write in first_writes(root).items():
            with fsyncs() as counter:
                write()
            calls[label, name] = counter.calls
    for name in ("holder", "calculator", "verifier"):
        assert calls["lazy", name] == calls["made", name] + 1 > 1


# ------------------------------------------------ refusals that change nothing

def tree(directory) -> "dict | None":
    """Every file's bytes under a store directory, None if there is none."""
    return file_bytes(directory) if directory.exists() else None


@pytest.mark.parametrize("field,value,message", [
    ("secret_id", b"", "secret id must be 1..255 bytes"),
    ("secret_id", bytes(256), "secret id must be 1..255 bytes"),
    ("t1", -1, "t1 out of 64-bit range"),
    ("t2", 1 << 64, "t2 out of 64-bit range"),
], ids=["empty-id", "long-id", "negative-t1", "wide-t2"])
def test_a_verifier_record_outside_its_fields_is_refused(tmp_path, field,
                                                         value, message):
    store = VerifierStore(tmp_path / "verifier")
    store.append(make_record(1, 100, 105))
    before = tree(tmp_path / "verifier")
    rec = make_record(2, 200, 205)
    with pytest.raises(ConfigurationError) as info:
        VerifierRecord(**{**vars(rec), field: value})
    assert str(info.value) == message
    assert tree(tmp_path / "verifier") == before
    assert len(store.records()) == 1


def test_a_verifier_record_whose_tag_is_not_whole_bytes_is_tampering(
        tmp_path):
    directory = tmp_path / "verifier"
    directory.mkdir()
    log, _ = ChainedLog.open(directory / "verifier.log")
    log.append(struct.pack(">B", 16) + b"\x01" * 16
               + struct.pack(">QQH", 100, 105, 61) + bytes(8))
    before = tree(directory)
    with pytest.raises(TamperDetectedError) as info:
        VerifierStore(directory)
    assert str(info.value) == "malformed verifier record"
    assert tree(directory) == before


@pytest.mark.parametrize("meta", [
    b"ITCS1\n" + bytes([2]) + struct.pack(">H", 256) + b"\x00",
    b"ITCS1\n" + bytes([2]),
    b"ITCS9\n" + bytes([2]) + struct.pack(">H", 256),
], ids=["long", "short", "magic"])
def test_a_calculator_meta_file_of_the_wrong_length_or_magic_is_tampering(
        tmp_path, meta):
    store = CalculatorStore(tmp_path / "calc", 256)
    store.put(b"\x01" * 16, 1, calc_seed())
    (tmp_path / "calc" / "meta.bin").write_bytes(meta)
    before = tree(tmp_path / "calc")
    for k in (None, 256):
        with pytest.raises(TamperDetectedError) as info:
            CalculatorStore(tmp_path / "calc", k)
        assert str(info.value) == "calculator meta file is malformed"
    assert tree(tmp_path / "calc") == before


@pytest.mark.parametrize("stored_k,message", [
    (0, "PolyEval needs k >= 16 for whole-byte blocks, got 0"),
    (20, "tags are whole bytes, so k must be a multiple of 8, got 20"),
    (65535, "PolyEval needs k <= 512 for a prompt modulus search, got 65535"),
], ids=["zero", "not-whole-bytes", "wide"])
def test_a_calculator_meta_file_holding_an_unusable_k_is_tampering(
        tmp_path, stored_k, message):
    # a stored k the store could not have written would key a hopeless or
    # hours-long modulus search at the first record read
    store = CalculatorStore(tmp_path / "calc", 256)
    store.put(b"\x01" * 16, 1, calc_seed())
    (tmp_path / "calc" / "meta.bin").write_bytes(
        b"ITCS1\n" + bytes([2]) + struct.pack(">H", stored_k))
    before = tree(tmp_path / "calc")
    started = time.process_time()
    for k in (None, 256):
        with pytest.raises(TamperDetectedError) as info:
            CalculatorStore(tmp_path / "calc", k)
        assert str(info.value) == "calculator meta file meta.bin: " + message
    assert time.process_time() - started < 1.0
    assert tree(tmp_path / "calc") == before


@pytest.mark.parametrize("k,message", [
    (8, "PolyEval needs k >= 16 for whole-byte blocks, got 8"),
    (100, "tags are whole bytes, so k must be a multiple of 8, got 100"),
    (4096, "PolyEval needs k <= 512 for a prompt modulus search, got 4096"),
], ids=["narrow", "not-whole-bytes", "wide"])
def test_a_calculator_store_refuses_an_unusable_k_before_it_reads_the_disk(
        tmp_path, k, message):
    stocked = CalculatorStore(tmp_path / "stocked", 256)
    stocked.put(b"\x01" * 16, 1, calc_seed())
    # a publish a crash interrupted, which an accepted open erases
    (tmp_path / "stocked" / "meta.bin.new").write_bytes(b"half")
    for directory in (tmp_path / "new", tmp_path / "stocked"):
        before = tree(directory)
        started = time.process_time()
        with pytest.raises(ConfigurationError) as info:
            CalculatorStore(directory, k)
        assert str(info.value) == message
        assert time.process_time() - started < 1.0
        assert tree(directory) == before


@pytest.mark.parametrize("sid,t1,message", [
    (b"", 1, "secret id must be 1..64 bytes"),
    (bytes(65), 1, "secret id must be 1..64 bytes"),
    (b"\x02" * 16, -1, "t1 out of 64-bit range"),
    (b"\x02" * 16, 1 << 64, "t1 out of 64-bit range"),
], ids=["empty-id", "long-id", "negative-t1", "wide-t1"])
def test_a_calculator_record_outside_its_fields_is_refused(tmp_path, sid, t1,
                                                           message):
    for stocked in (False, True):
        directory = tmp_path / ("calc-%d" % stocked)
        store = CalculatorStore(directory, 256)
        if stocked:
            store.put(b"\x01" * 16, 1, calc_seed())
        before = tree(directory)
        with pytest.raises(ConfigurationError) as info:
            store.put(sid, t1, calc_seed())
        assert str(info.value) == message
        assert tree(directory) == before
        assert len(store.ids()) == int(stocked)


@pytest.mark.parametrize("name,content,error,message", [
    ("notes.a", b"x", TamperDetectedError, "{dir}: unexpected file notes.a"),
    ("state.bin", b"", ConfigurationError,
     "{dir} holds a single-snapshot state.bin, a layout this version no "
     "longer reads"),
    ("holder.bin", b"ITHS2\n\x00", TamperDetectedError,
     "{dir}/holder.bin is malformed"),
    ("holder.bin", b"ITHS1\n\x00\x01", TamperDetectedError,
     "{dir}/holder.bin is malformed"),
    ("holder.bin", None, TamperDetectedError,
     "{dir}: records without the holder index"),
], ids=["unexpected-name", "state-bin", "short-index", "index-magic",
        "no-index"])
def test_a_holder_directory_holding_what_no_save_writes_is_refused(
        tmp_path, name, content, error, message):
    stores, _secrets = registered_stores(tmp_path)
    directory = tmp_path / "holder-1"
    if content is None:
        (directory / name).unlink()
    else:
        (directory / name).write_bytes(content)
    before = tree(directory)
    for holder in (1, None):
        if content is None and holder is None:
            continue  # no index on disk or given: a new store's refusal
        with pytest.raises(error) as info:
            HolderStore(directory, holder=holder)
        assert str(info.value) == message.format(dir=directory)
    assert tree(directory) == before


@pytest.mark.parametrize("holder", [-1, 1 << 16])
def test_a_holder_index_outside_16_bits_is_refused(tmp_path, holder):
    with pytest.raises(ConfigurationError) as info:
        HolderStore(tmp_path / "holder", holder=holder)
    assert str(info.value) == "holder index out of range"
    assert tree(tmp_path / "holder") is None


@pytest.mark.parametrize("sid", [b"", bytes(65)], ids=["empty", "65-bytes"])
def test_a_holder_secret_id_outside_1_to_64_bytes_is_refused(tmp_path, sid):
    stores, secrets = registered_stores(tmp_path)
    store, kept = stores[1], secrets[0][0]
    before = tree(tmp_path / "holder-1")
    with pytest.raises(ConfigurationError) as info:
        store.put_secret(sid, store.get_secret(kept))
    assert str(info.value) == "secret id must be 1..64 bytes"
    assert tree(tmp_path / "holder-1") == before
    assert store.secret_ids() == (kept,)
