"""End-to-end tests for the five-role storage protocol.

Each test runs a real session over the default metropolitan topology:
every cross-node byte rides a one-time-pad channel and every role's
persistent state lives in its own on-disk store.
"""

import dataclasses
import hashlib
import re
from collections import defaultdict
from pathlib import Path

import pytest

import itstore.protocol
import itstore.renewal
import itstore.stores

from itstore.errors import (
    ChannelIntegrityError,
    ConfigurationError,
    ImproperRequestError,
    KeySupplyError,
    ProtocolError,
    TamperDetectedError,
)
from itstore.keynet import DEFAULT_TOPOLOGY, KeyNetwork, _PairStream
from itstore.field import PrimeField
from itstore.mac import MacTag
from itstore.protocol import (
    Outcome,
    Phase,
    RolePlacement,
    TpvSession,
    VerdictEvent,
)
from itstore.renewal import EXACT_CHECKS, SUBSET_TESTS, TOY_GROUP
from itstore.spss import SpssParams
from itstore.stores import (
    HolderStore,
    VerifierRecord,
    VerifierStore,
    holder_record_files,
    secure_erase,
)
from itstore.wire import SCHEMA, SID
from memtrace import memtrace
from oracles import (
    data_shares,
    directory_contains_window,
    live_ids,
    live_tuples,
    received_bytes,
    tamper_pairs,
)
from test_keynet import tied_topology

DATA = b"Important archival payload: " + bytes(range(200))
PASSWORD = b"correct horse battery staple"


def make_session(tmp_path, advance_ms=3_600_000, master_seed=b"proto-suite",
                 subdir="run", **kwargs):
    net = KeyNetwork(DEFAULT_TOPOLOGY, master_seed=master_seed)
    net.advance(advance_ms)
    return TpvSession(tmp_path / subdir, net=net, **kwargs)


def register_and_stock(session, data=DATA, password=PASSWORD, extra_rounds=0):
    sid, t1 = session.register(data, password)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    session.precompute(sid, rounds=blocks + extra_rounds)
    return sid, t1, blocks


def spent_rounds(store, sid) -> tuple:
    """The ids below a secret's next_round that are not live."""
    share_set = store.get_secret(sid)
    return tuple(rid for rid in range(share_set.next_round)
                 if rid not in live_ids(share_set))


def live_record(store, sid) -> bytes:
    """The bytes of a secret's live record slot in a holder store."""
    (suffix,) = [suffix for suffix, size
                 in holder_record_files(store.directory)[sid].items() if size]
    return (store.directory / ("%s.%s" % (sid.hex(), suffix))).read_bytes()


# --------------------------------------------------------------- happy path


def test_honest_round_trip(tmp_path):
    session = make_session(tmp_path)
    sid, t1, _ = register_and_stock(session)

    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.outcome is Outcome.SUCCESS
    assert result.data == DATA
    assert session.end_user_received[sid] == (DATA, t1)

    event = session.integrity_check(sid)
    assert event.outcome is Outcome.SUCCESS
    assert event.phase is Phase.INTEGRITY_CHECK

    phases = [(v.phase, v.outcome) for v in session.verdicts]
    assert phases == [
        (Phase.REGISTRATION, Outcome.SUCCESS),
        (Phase.RECONSTRUCTION, Outcome.SUCCESS),
        (Phase.INTEGRITY_CHECK, Outcome.SUCCESS),
    ]
    assert session.net.conservation_holds()


def test_every_threshold_subset_reconstructs(tmp_path):
    session = make_session(tmp_path)
    sid, _, blocks = register_and_stock(session, extra_rounds=0)
    subsets = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    for subset in subsets[:1]:
        result = session.reconstruct_and_release(sid, PASSWORD, subset=subset)
        assert result.data == DATA
    for subset in subsets[1:]:
        session.precompute(sid, rounds=blocks)
        result = session.reconstruct_and_release(sid, PASSWORD, subset=subset)
        assert result.data == DATA, "subset %r failed" % (subset,)


def test_identical_payloads_get_independent_tags(tmp_path):
    session = make_session(tmp_path)
    sid_a, t1_a = session.register(DATA, PASSWORD)
    session.net.advance(1000)
    sid_b, t1_b = session.register(DATA, PASSWORD)
    assert sid_a != sid_b
    rec_a = session.verifier_store.find(sid_a, t1_a)
    rec_b = session.verifier_store.find(sid_b, t1_b)
    assert rec_a is not None and rec_b is not None
    # same payload, fresh one-time seed: the filed tags differ
    assert rec_a.tag != rec_b.tag


# ------------------------------------------------------------ leakage bounds


def test_calculator_persists_only_fixed_record(tmp_path):
    session = make_session(tmp_path)
    sid, t1 = session.register(DATA, PASSWORD)

    stored_t1, seed = session.calculator_store.get(sid)
    assert stored_t1 == t1
    budget = len(sid) + 8 + seed.byte_count
    assert session.calculator_store.record_bytes(sid) == budget

    calc_dir = session.calculator_store.directory
    assert not directory_contains_window(calc_dir, DATA)
    assert not directory_contains_window(calc_dir, PASSWORD)
    # the verifier holds tags only, never payload bytes
    verif_dir = session.verifier_store.directory
    assert not directory_contains_window(verif_dir, DATA)
    # holders keep shares, not plaintext
    for j, store in session.holder_stores.items():
        assert not directory_contains_window(store.directory, DATA), j


def test_verifier_registration_byte_budget(tmp_path):
    session = make_session(tmp_path)
    sid, _ = session.register(DATA, PASSWORD)
    got = received_bytes(session, session.VERIFIER, sid=sid)
    # one code byte + 16-byte id + 8-byte timestamp + k/8-byte tag
    assert got == 1 + 16 + 8 + session.k // 8


def test_end_user_sees_nothing_before_release(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    assert received_bytes(session, session.END_USER, sid=sid) == 0
    assert received_bytes(session, session.END_USER) == 0
    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.outcome is Outcome.SUCCESS
    assert received_bytes(session, session.END_USER, sid=sid,
                          kind="release") > 0


# ------------------------------------------------------------ dispute paths


def test_owner_tamper_detected_by_integrity_check(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)

    def flip(payload):
        return payload[:-1] + bytes([payload[-1] ^ 0x40])

    result = session.reconstruct_and_release(sid, PASSWORD, owner_tamper=flip)
    assert result.outcome is Outcome.SUCCESS  # delivery happened
    assert result.data != DATA

    event = session.integrity_check(sid)
    assert event.outcome is Outcome.FAIL
    assert "mismatch" in event.detail


def test_false_claim_refuted_and_honest_claim_stands(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)

    forged = DATA[:-3] + b"abc"
    event = session.refute(sid, claim_data=forged)
    assert event.outcome is Outcome.SUCCESS
    assert event.phase is Phase.REFUTATION

    event = session.refute(sid)  # the data really delivered
    assert event.outcome is Outcome.FAIL
    assert "authentic" in event.detail


def test_corrupt_holder_fails_check_and_releases_nothing(tmp_path):
    session = make_session(tmp_path)
    sid, _, blocks = register_and_stock(session)

    def corrupt(values):
        field = session.params.field
        return (field.add(values[0], 1),) + tuple(values[1:])

    result = session.reconstruct_and_release(
        sid, PASSWORD, holder_response_tamper={2: corrupt})
    assert result.outcome is Outcome.FAIL
    assert result.data is None
    assert sid not in session.end_user_received
    # the cheating attempt still spent everyone's masks
    for j in (1, 2, 3):
        assert len(spent_rounds(session.holder_stores[j], sid)) == blocks


def test_threshold_abort_keeps_registration_intact(tmp_path):
    session = make_session(tmp_path)
    sid, t1, blocks = register_and_stock(session)

    result = session.reconstruct_and_release(sid, PASSWORD, offline={2, 3})
    assert result.outcome is Outcome.ABORT
    assert "2" in result.detail and result.data is None

    # abort terminated the reconstruction only: records all survive
    assert session.calculator_store.get(sid)[0] == t1
    assert session.verifier_store.find(sid, t1) is not None
    for store in session.holder_stores.values():
        assert sid in store.secret_ids()
        assert spent_rounds(store, sid) == ()

    # one holder down is tolerated
    result = session.reconstruct_and_release(sid, PASSWORD, offline={4})
    assert result.outcome is Outcome.SUCCESS
    assert result.data == DATA


def test_wrong_password_releases_nothing_and_spends_masks(tmp_path):
    session = make_session(tmp_path)
    sid, _, blocks = register_and_stock(session)

    result = session.reconstruct_and_release(sid, b"not the password")
    assert result.outcome is Outcome.FAIL
    assert result.data is None
    assert sid not in session.end_user_received

    # masks are one-time: the failed attempt consumed them
    retry = session.reconstruct_and_release(sid, PASSWORD)
    assert retry.outcome is Outcome.ABORT
    assert "masking rounds" in retry.detail

    session.precompute(sid, rounds=blocks)
    final = session.reconstruct_and_release(sid, PASSWORD)
    assert final.data == DATA


@pytest.mark.parametrize("case", ["subset-offline", "block-count",
                                  "zero-password", "dropped-value"])
def test_a_reconstruction_that_cannot_go_on_releases_nothing(tmp_path, case):
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session)
    records = {j: live_record(store, sid)
               for j, store in session.holder_stores.items()}
    password, kwargs = PASSWORD, {}
    if case == "subset-offline":
        kwargs = {"subset": (1, 2, 3), "offline": {2}}
        detail = "requested holders offline: [2]"
    elif case == "block-count":
        # avail-reply: code u8, sid16, then the u32 block count
        relabel_on_send(
            session, lambda s, r, kind: (kind, s) == ("avail-reply",
                                                      "holder-1"),
            lambda payload: (payload[:17] + (blocks + 1).to_bytes(4, "big")
                             + payload[21:]))
        detail = "holder 1 stores %d blocks, expected %d" % (blocks + 1,
                                                            blocks)
    elif case == "zero-password":
        password = session.params.field.q.to_bytes(16, "big")
        detail = "unusable password attempt"
    else:  # a recon-response one value short
        kwargs = {"holder_response_tamper": {2: lambda values: values[:-1]}}
        detail = "holder 2 returned %d values, expected %d" % (blocks - 1,
                                                               blocks)

    result = session.reconstruct_and_release(sid, password, **kwargs)
    assert (result.outcome, result.detail, result.data) == (
        Outcome.ABORT, detail, None)
    assert session.verdicts[-1] == VerdictEvent(
        sid, Phase.RECONSTRUCTION, Outcome.ABORT, detail)
    assert sid not in session.end_user_received
    assert received_bytes(session, session.END_USER, sid=sid) == 0
    asked = [line for line in session.transcript if "kind=recon-ask" in line]
    if case == "dropped-value":  # the asks went out and spent the masks
        assert len(asked) == 3
        for j in (1, 2, 3):
            assert len(spent_rounds(session.holder_stores[j], sid)) == blocks
        return
    assert asked == []
    for j, store in session.holder_stores.items():
        assert spent_rounds(store, sid) == ()
        assert live_record(store, sid) == records[j]


def test_equally_short_recon_responses_abort_and_release_nothing(tmp_path):
    # Three responses of the same two values passed spss_recover's count
    # refusals, and its byte_length refusal then raised a bare
    # ConfigurationError with no reconstruction verdict
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session, data=bytes(range(100)))
    short = dict.fromkeys((1, 2, 3), lambda values: (0, 0))
    result = session.reconstruct_and_release(sid, PASSWORD,
                                             holder_response_tamper=short)
    detail = "holder 1 returned 2 values, expected %d" % blocks
    assert (result.outcome, result.detail, result.data) == (
        Outcome.ABORT, detail, None)
    assert session.verdicts[-1] == VerdictEvent(
        sid, Phase.RECONSTRUCTION, Outcome.ABORT, detail)
    assert received_bytes(session, session.OWNER, sid=sid,
                          kind="abort-notice") > 0
    assert sid not in session.end_user_received
    assert received_bytes(session, session.END_USER, sid=sid) == 0


def test_an_owner_without_a_receipt_sends_nothing(tmp_path):
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session)
    del session.owner_receipts[sid]
    lines, verdicts = len(session.transcript), list(session.verdicts)
    records = {j: live_record(store, sid)
               for j, store in session.holder_stores.items()}
    with pytest.raises(ProtocolError,
                       match="owner holds no receipt for %s" % sid.hex()):
        session.reconstruct_and_release(sid, PASSWORD)
    assert len(session.transcript) == lines and session.verdicts == verdicts
    assert sid not in session.end_user_received
    for j, store in session.holder_stores.items():
        assert spent_rounds(store, sid) == ()
        assert live_record(store, sid) == records[j]


# ----------------------------------------------------- timestamps and clocks


def test_verifier_clock_behind_fails_the_time_rule(tmp_path):
    session = make_session(tmp_path, clock_skews={"verifier": -10_000})
    sid, _, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    event = session.integrity_check(sid)
    assert event.outcome is Outcome.FAIL
    assert "time" in event.detail


def test_unknown_timestamp_at_calculator_is_a_protocol_error(tmp_path):
    session = make_session(tmp_path)
    sid, t1, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    with pytest.raises(ProtocolError):
        session.integrity_check(sid, claim_t1=t1 + 999)


def test_missing_verifier_record_is_a_plain_fail(tmp_path):
    session = make_session(tmp_path)
    sid, t1, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    # re-key the calculator's record to a timestamp the verifier never saw:
    # the calculator then answers, but the verifier has nothing to compare
    _t1, seed = session.calculator_store.get(sid)
    secure_erase(session.calculator_store.directory / (sid.hex() + ".rec"))
    session.calculator_store.put(sid, t1 + 5, seed)
    event = session.integrity_check(sid, claim_t1=t1 + 5)
    assert event.outcome is Outcome.FAIL
    assert "no verifier record" in event.detail


def test_refutation_without_records_cannot_adjudicate(tmp_path):
    session = make_session(tmp_path)
    sid, t1, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)

    # verifier has no row for a forged timestamp: distinct abort outcome
    event = session.refute(sid, claim_data=DATA, claim_t1=t1 + 1)
    assert event.outcome is Outcome.ABORT
    assert "cannot adjudicate" in event.detail

    # calculator knows nothing about a foreign id: also an abort
    event = session.refute(bytes(16), claim_data=DATA, claim_t1=t1)
    assert event.outcome is Outcome.ABORT
    assert "calculator" in event.detail


# ------------------------------------------------------------ verdict table

FORGED = DATA[:-3] + b"abc"


def check_unfiled_t1(session, sid, t1):
    # re-key the calculator's record to a t1 the verifier never filed
    _t1, seed = session.calculator_store.get(sid)
    secure_erase(session.calculator_store.directory / (sid.hex() + ".rec"))
    session.calculator_store.put(sid, t1 + 5, seed)
    return session.integrity_check(sid, claim_t1=t1 + 5)


CHECK, REFUTE = Phase.INTEGRITY_CHECK, Phase.REFUTATION
VERDICTS = [
    pytest.param({}, lambda s, sid, t1: s.integrity_check(sid),
                 CHECK, Outcome.SUCCESS, "tag match and t1 <= t2",
                 id="honest"),
    pytest.param({}, lambda s, sid, t1: s.integrity_check(sid, FORGED),
                 CHECK, Outcome.FAIL, "tag mismatch", id="altered"),
    pytest.param({"clock_skews": {"verifier": -10_000}},
                 lambda s, sid, t1: s.integrity_check(sid),
                 CHECK, Outcome.FAIL, "claimed time is after the recorded time",
                 id="t1-after-t2"),
    pytest.param({}, check_unfiled_t1,
                 CHECK, Outcome.FAIL, "no verifier record", id="no-row"),
    pytest.param({}, lambda s, sid, t1: s.refute(sid, FORGED),
                 REFUTE, Outcome.SUCCESS, "claim refuted: tag differs",
                 id="refute-altered"),
    pytest.param({}, lambda s, sid, t1: s.refute(sid),
                 REFUTE, Outcome.FAIL, "claim is authentic",
                 id="refute-honest"),
    pytest.param({}, lambda s, sid, t1: s.refute(sid, claim_t1=t1 + 1),
                 REFUTE, Outcome.ABORT, "no verifier record, cannot adjudicate",
                 id="refute-no-row"),
    pytest.param({}, lambda s, sid, t1: s.refute(bytes(16), DATA, t1),
                 REFUTE, Outcome.ABORT, "calculator holds no tag seed",
                 id="refute-no-seed"),
]


@pytest.mark.parametrize("kwargs,act,phase,outcome,detail", VERDICTS)
def test_verdict_table(tmp_path, kwargs, act, phase, outcome, detail):
    session = make_session(tmp_path, **kwargs)
    sid, t1, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    event = act(session, sid, t1)
    assert (event.phase, event.outcome, event.detail) == (phase, outcome,
                                                          detail)
    assert session.verdicts[-1] == event


def test_a_digest_row_left_by_the_retired_computational_option_changes_no_verdict(
        tmp_path):
    # the retired option appended its 512-bit SHA-512 digest of (t1, data)
    # after the registration's tag row; the first row is the one compared
    session = make_session(tmp_path)
    sid, t1, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    digest = hashlib.sha512(t1.to_bytes(8, "big") + DATA).digest()
    session.verifier_store.append(VerifierRecord(
        sid, t1, MacTag.from_bytes(digest), session.clock(session.VERIFIER)))
    session.verifier_store = VerifierStore(session.verifier_store.directory)
    rows = session.verifier_store.records()
    assert [row.tag.k for row in rows] == [session.k, 512]
    assert session.verifier_store.find(sid, t1) == rows[0]
    got = [(e.phase, e.outcome, e.detail) for e in (
        session.integrity_check(sid), session.integrity_check(sid, FORGED),
        session.refute(sid), session.refute(sid, FORGED))]
    assert got == [
        (CHECK, Outcome.SUCCESS, "tag match and t1 <= t2"),
        (CHECK, Outcome.FAIL, "tag mismatch"),
        (REFUTE, Outcome.FAIL, "claim is authentic"),
        (REFUTE, Outcome.SUCCESS, "claim refuted: tag differs")]


# ------------------------------------------------------- registration MAC

def record_deliveries(session):
    """Every delivery as (sender, receiver, kind, delivered bytes)."""
    send = session.transport.send
    log = []

    def recording(sender, receiver, kind, payload, sid=None):
        delivered = send(sender, receiver, kind, payload, sid=sid)
        log.append((sender, receiver, kind, delivered))
        return delivered

    session.transport.send = recording
    return log


def test_the_registered_tag_reaches_the_verifier_only(tmp_path):
    # PolyEval's l / q_u forgery bound holds while no forger sees the
    # registered tag: with tag and data known, the key is one of <= l roots
    session = make_session(tmp_path)
    log = record_deliveries(session)
    sid, t1, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    forged = DATA[:-3] + b"abc"
    verdicts = [session.integrity_check(sid).outcome,                 # honest
                session.integrity_check(sid, claim_data=forged).outcome,
                session.refute(sid, claim_data=forged).outcome,
                session.refute(sid).outcome]
    assert verdicts == [Outcome.SUCCESS, Outcome.FAIL, Outcome.SUCCESS,
                        Outcome.FAIL]
    # claims one byte longer and one byte shorter get verdicts too
    for claim in (DATA + b"x", DATA[:-1]):
        assert session.integrity_check(sid, claim_data=claim).outcome \
            is Outcome.FAIL
        assert session.refute(sid, claim_data=claim).outcome \
            is Outcome.SUCCESS
    tag = session.verifier_store.find(sid, t1).tag.to_bytes()
    carriers = [(s, r, k) for s, r, k, raw in log if tag in raw]
    assert {k for _s, _r, k in carriers} == {"tag-report", "check-tag",
                                             "refute-tag"}
    assert {(s, r) for s, r, _k in carriers} == {(session.CALCULATOR,
                                                  session.VERIFIER)}
    for _s, receiver, _k, raw in log:
        if receiver in (session.OWNER, session.END_USER):
            assert tag not in raw


def test_the_calculator_record_does_not_grow_with_the_payload(tmp_path):
    session = make_session(tmp_path, advance_on_exhaustion_ms=60_000)
    sizes = set()
    for size in (1024, 100 * 1024):
        sid, _t1 = session.register(bytes(range(256)) * (size // 256),
                                    PASSWORD)
        sizes.add(session.calculator_store.record_bytes(sid))
    assert sizes == {16 + 8 + session.k // 8}


def test_polyeval_with_too_narrow_a_tag_is_refused_up_front(tmp_path):
    with pytest.raises(ConfigurationError, match="k >= 16"):
        make_session(tmp_path, k=8)


# ------------------------------------------------------------ channel faults


def test_channel_tamper_aborts_delivery(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)

    def flip_ciphertext(envelope):
        mutated = bytes([envelope.ciphertext[0] ^ 0x01])
        mutated += envelope.ciphertext[1:]
        return dataclasses.replace(envelope, ciphertext=mutated)

    session.transport.tamper = flip_ciphertext
    with pytest.raises(ChannelIntegrityError):
        session.integrity_check(sid)
    assert any(line.startswith("drop ") for line in session.transcript)


def test_oversized_password_is_refused_before_anything_is_sent(tmp_path):
    session = make_session(tmp_path)
    long_password = b"p" * 70_000  # over the u16 length prefix
    with pytest.raises(ConfigurationError, match="password"):
        session.register(DATA, long_password)
    assert session.transcript == [] and session.verdicts == []
    sid, _t1, _ = register_and_stock(session)
    sent = len(session.transcript)
    with pytest.raises(ConfigurationError, match="recon-request"):
        session.reconstruct_and_release(sid, long_password)
    assert len(session.transcript) == sent
    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.outcome is Outcome.SUCCESS and result.data == DATA


def test_a_subset_naming_a_holder_twice_is_refused_before_any_send(
        tmp_path):
    # fails at the parent commit: (1, 1, 2, 3) passed the session's own
    # subset check, the recon-request and avail messages went out, and
    # spss_request then raised with no verdict recorded
    session = make_session(tmp_path)
    sid, _t1, _ = register_and_stock(session)
    lines, verdicts = len(session.transcript), len(session.verdicts)
    records = {j: live_record(store, sid)
               for j, store in session.holder_stores.items()}
    for bad in ((1, 1, 2, 3), (1, 1, 2), (1, 2), (0, 1, 2), (2, 3, 9)):
        with pytest.raises(ProtocolError):
            session.reconstruct_and_release(sid, PASSWORD, subset=bad)
    assert len(session.transcript) == lines
    assert len(session.verdicts) == verdicts
    for j, store in session.holder_stores.items():
        assert spent_rounds(store, sid) == ()
        assert live_record(store, sid) == records[j]
    result = session.reconstruct_and_release(sid, PASSWORD, subset=(3, 1, 2))
    assert result.outcome is Outcome.SUCCESS and result.data == DATA


def test_a_tampered_holder_record_stops_each_phase_before_any_send(
        tmp_path):
    # a reopened session reads a holder record at its secret's first use;
    # a reconstruction that read it after the recon-request had sent that
    # and the avail-queries before the bad record refused
    session = make_session(tmp_path)
    sid, _t1, _ = register_and_stock(session)
    other, _t1, _ = register_and_stock(session, data=DATA[::-1])
    store = session.holder_stores[2]
    (suffix,) = [suffix for suffix, size
                 in holder_record_files(store.directory)[sid].items() if size]
    path = store.directory / ("%s.%s" % (sid.hex(), suffix))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x08
    path.write_bytes(bytes(raw))
    reopened = TpvSession(tmp_path / "run", net=session.net)
    reopened.owner_receipts.update(session.owner_receipts)
    lines, ledger = list(reopened.transcript), reopened.net.ledger()
    for phase in (lambda: reopened.precompute(sid),
                  lambda: reopened.renew(sid),
                  lambda: reopened.reconstruct_and_release(sid, PASSWORD)):
        with pytest.raises(TamperDetectedError, match=re.escape(str(path))):
            phase()
        assert reopened.transcript == lines
        assert reopened.net.ledger() == ledger
    assert path.read_bytes() == bytes(raw)
    result = reopened.reconstruct_and_release(other, PASSWORD,
                                              subset=(1, 2, 3))
    assert result.outcome is Outcome.SUCCESS and result.data == DATA[::-1]


def test_an_offline_index_outside_the_holders_is_refused_before_any_send(
        tmp_path):
    # fails at the parent commit: offline {5} was ignored, holders 1-3
    # were asked and the data was released
    session = make_session(tmp_path)
    sid, _t1, _ = register_and_stock(session)
    lines, verdicts = len(session.transcript), len(session.verdicts)
    records = {j: live_record(store, sid)
               for j, store in session.holder_stores.items()}
    with pytest.raises(ImproperRequestError):
        session.reconstruct_and_release(sid, PASSWORD, offline={5})
    assert len(session.transcript) == lines
    assert len(session.verdicts) == verdicts
    for j, store in session.holder_stores.items():
        assert live_record(store, sid) == records[j]


def test_registration_aborts_before_any_share_leaves(tmp_path):
    # enough key for the owner's upload, not enough to fan the shares out
    session = make_session(tmp_path, advance_ms=1_500)
    data = bytes(range(256)) * 16  # 4 KiB
    with pytest.raises(KeySupplyError):
        session.register(data, PASSWORD)

    assert session.verdicts[-1].phase is Phase.REGISTRATION
    assert session.verdicts[-1].outcome is Outcome.ABORT
    # nothing persisted anywhere, nothing fanned out
    assert len(session.calculator_store.ids()) == 0
    assert len(session.verifier_store.records()) == 0
    for store in session.holder_stores.values():
        assert store.secret_ids() == ()
    kinds = [line.split(" kind=")[1].split(" ")[0]
             for line in session.transcript if " kind=" in line]
    assert "register-data" in kinds  # the upload itself went through
    assert "shares" not in kinds

    # with supply restored the same registration succeeds
    session.net.advance(3_600_000)
    sid, _ = session.register(data, PASSWORD)
    assert sid in session.calculator_store.ids()


# -------------------------------------------------------------- renewal


def test_renewal_preserves_payload_and_rerandomizes_shares(tmp_path):
    session = make_session(tmp_path)
    sid, _, blocks = register_and_stock(session)
    before = {j: data_shares(session.holder_stores[j].get_secret(sid))
              for j in session.params.holder_indices}
    before_pw = {j: session.holder_stores[j].get_secret(sid).password_share
                 for j in session.params.holder_indices}

    report = session.renew(sid)
    assert report.accepted
    assert report.tracks == blocks
    for j in session.params.holder_indices:
        share_set = session.holder_stores[j].get_secret(sid)
        assert data_shares(share_set) != before[j]
        assert share_set.password_share == before_pw[j]
        assert session.holder_stores[j].renewal_rounds(sid) == (0,)

    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.data == DATA


def test_a_crash_after_the_last_holders_renewal_save_keeps_holders_in_step(
        tmp_path):
    # fails at the parent commit: the round reached holder 4's journal only
    # after its record, so holders 1-3 read (0,), holder 4 read (), and
    # every later renew raised "holders disagree on renewal history"
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session)

    class Crash(Exception):
        pass

    store = session.holder_stores[4]
    save = store.save

    def save_then_crash(secret_id):
        save(secret_id)
        raise Crash()  # the process dies once holder 4's record is durable

    store.save = save_then_crash
    with pytest.raises(Crash):
        session.renew(sid)
    reopened = TpvSession(tmp_path / "run", net=session.net)
    reopened.owner_receipts.update(session.owner_receipts)
    for j in reopened.params.holder_indices:
        assert reopened.holder_stores[j].renewal_rounds(sid) == (0,)
    report = reopened.renew(sid)
    assert report.accepted and report.round_no == 1
    assert reopened.reconstruct_and_release(sid, PASSWORD).data == DATA


def test_a_reconstruction_across_renewal_epochs_sends_nothing(tmp_path):
    # fails at the parent commit: holders 1-3 spent all 21 rounds and the
    # mixed shares failed as "authenticator mismatch", blaming the password
    session = make_session(tmp_path)
    data = bytes(range(150)) * 2
    sid, _t1, blocks = register_and_stock(session, data=data)
    assert blocks == 21
    dirs = {j: session.holder_stores[j].directory for j in (3, 4)}
    saved = {j: {p.name: p.read_bytes() for p in d.iterdir()}
             for j, d in dirs.items()}
    assert session.renew(sid).accepted
    for j, files in saved.items():  # a renew that reached holders 1 and 2
        for name, raw in files.items():
            (dirs[j] / name).write_bytes(raw)
    reopened = TpvSession(tmp_path / "run", net=session.net)
    reopened.owner_receipts.update(session.owner_receipts)
    stores = reopened.holder_stores
    assert [stores[j].get_secret(sid).renewals for j in stores] == [1, 1, 0, 0]
    live = {j: live_ids(store.get_secret(sid))
            for j, store in stores.items()}
    records = {j: live_record(store, sid) for j, store in stores.items()}
    lines, ledger = list(reopened.transcript), reopened.net.ledger()
    with pytest.raises(ProtocolError,
                       match="holders disagree on renewal history"):
        reopened.reconstruct_and_release(sid, PASSWORD, subset=(1, 2, 3))
    assert reopened.transcript == lines
    assert reopened.net.ledger() == ledger
    assert {j: live_ids(store.get_secret(sid))
            for j, store in stores.items()} == live
    assert {j: live_record(store, sid)
            for j, store in stores.items()} == records


def test_renewal_destroys_previous_share_bytes(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    field = session.params.field
    old_encoded = [v.to_bytes(field.byte_width, "big") for v in
                   data_shares(session.holder_stores[1].get_secret(sid))]
    assert session.renew(sid).accepted
    holder_dir = session.holder_stores[1].directory
    for raw in old_encoded:
        assert not directory_contains_window(holder_dir, raw, window=16)


def drop_last_track(session, sid):
    share_set = session.holder_stores[4].get_secret(sid)
    share_set.shares = share_set.shares[:-share_set.params.field.byte_width]


def note_a_renewal(session, sid):
    session.holder_stores[4].get_secret(sid).renewals = 1


@pytest.mark.parametrize("kwargs,split,error,message", [
    ({"params": SpssParams(field=PrimeField.mersenne(61))}, None,
     ConfigurationError, "no renewal group configured"),
    ({"renewal_group": TOY_GROUP}, None, ConfigurationError,
     "renewal group order 11 does not match the share field"),
    ({}, drop_last_track, ProtocolError,
     "holders disagree on the track count"),
    ({}, note_a_renewal, ProtocolError, "holders disagree on renewal history"),
], ids=["no-group", "group-order", "track-count", "history"])
def test_a_renewal_the_holders_cannot_run_sends_nothing(tmp_path, kwargs,
                                                        split, error,
                                                        message):
    session = make_session(tmp_path, **kwargs)
    sid, _t1, _blocks = register_and_stock(session)
    if split is not None:
        split(session, sid)
    sets = {j: store.get_secret(sid)
            for j, store in session.holder_stores.items()}
    before = {j: (s.shares, s.renewals) for j, s in sets.items()}
    records = {j: live_record(store, sid)
               for j, store in session.holder_stores.items()}
    lines = list(session.transcript)
    with pytest.raises(error) as info:
        session.renew(sid)
    assert str(info.value) == message
    assert session.transcript == lines
    assert {j: (s.shares, s.renewals) for j, s in sets.items()} == before
    assert {j: live_record(store, sid)
            for j, store in session.holder_stores.items()} == records


def test_session_renewal_checks_each_packet_of_another_holder_once(
        tmp_path, monkeypatch):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    assert session.renew(sid).accepted  # the group is validated once, here
    group = session.renewal_group
    n = session.params.n_sh
    tracks = session.holder_stores[1].get_secret(sid).block_count
    degree = session.params.data_degree
    calls = {"gen": 0, "verify": 0}
    exponents = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_mod_exp(base, exponent, modulus):
        exponents.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.protocol, "gen_renewal",
                        counted("gen", itstore.protocol.gen_renewal))
    monkeypatch.setattr(itstore.protocol, "verify_renewal_share",
                        counted("verify",
                                itstore.protocol.verify_renewal_share))
    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    assert session.renew(sid).accepted
    # each holder deals every track in one call; it never checks its own
    # packet, and checks the other holders' summed pair once per track:
    # n checks per track and n t right-hand-side powers. The n T t
    # commitments are more than EXACT_CHECKS, so one batch of
    # SUBSET_TESTS powers proves them all members
    assert calls == {"gen": n, "verify": n * tracks}
    assert n * tracks * degree > EXACT_CHECKS
    assert exponents.count(group.q) == SUBSET_TESTS
    assert len(exponents) == SUBSET_TESTS + n * tracks * degree


def test_a_session_renewal_holds_at_most_4_5_kib_per_track(tmp_path):
    # A warm renewal of a 10 KB secret: the group is validated and its
    # window tables built before tracing. Decoding every received
    # broadcast per recipient, and every holder's shares, at the round's
    # start peaked at about 6.5 KiB per track above the start
    session = make_session(tmp_path, advance_ms=36_000_000)
    sid, _ = session.register(bytes(range(256)) * 40, PASSWORD)
    assert session.renew(sid).accepted
    tracks = session.holder_stores[1].get_secret(sid).block_count
    assert tracks == 652
    with memtrace() as usage:
        assert session.renew(sid).accepted
    base, _live, peak = usage
    assert (peak - base) / tracks <= 4.5 * 1024


def warm_100_kb_session(tmp_path):
    """A session that has registered, stocked and released one 100 KB
    secret, so every channel has its hash key and every cache is built,
    and a second 100 KB payload, with the key to store and release it."""
    session = make_session(tmp_path, advance_ms=360_000_000)
    first, second = (bytes((i + b) % 251 for b in range(100 * 1024))
                     for i in (0, 1))
    sid, _, _ = register_and_stock(session, data=first)
    assert session.reconstruct_and_release(sid, PASSWORD).data == first
    session.net.advance(360_000_000)
    return session, second


def test_a_100_kb_registration_peaks_at_most_22_bytes_per_payload_byte(
        tmp_path):
    # Drawing every coefficient and evaluating every block at once peaked
    # at about 29 B per payload byte above the phase's start
    session, payload = warm_100_kb_session(tmp_path)
    with memtrace() as usage:
        sid, _ = session.register(payload, PASSWORD)
    base, _live, peak = usage
    assert (peak - base) / len(payload) <= 22
    assert session.holder_stores[1].get_secret(sid).block_count == 6503


def test_a_100_kb_precompute_peaks_at_most_22_bytes_per_payload_byte(
        tmp_path):
    # Every contributor's batches drawn at once and every holder's
    # unreduced int row sums of the whole stock peaked at about 53 B per
    # payload byte above the phase's start
    session, payload = warm_100_kb_session(tmp_path)
    sid, _ = session.register(payload, PASSWORD)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    with memtrace() as usage:
        session.precompute(sid, rounds=blocks)
    base, _live, peak = usage
    assert (peak - base) / len(payload) <= 22
    assert len(live_ids(session.holder_stores[1].get_secret(sid))) == blocks


def test_a_100_kb_reconstruction_peaks_at_most_16_bytes_per_payload_byte(
        tmp_path):
    # Every response and the recovery decoding whole columns into ints
    # peaked at about 27 B per payload byte above the phase's start
    session, payload = warm_100_kb_session(tmp_path)
    sid, _, _ = register_and_stock(session, data=payload)
    with memtrace() as usage:
        result = session.reconstruct_and_release(sid, PASSWORD)
    base, _live, peak = usage
    assert result.data == payload
    assert (peak - base) / len(payload) <= 16


def test_a_reconstruction_hands_each_holder_its_pinned_runs(tmp_path,
                                                           monkeypatch):
    # The pinned rounds reach each holder as the one run the recon-ask
    # carries. Expanding them into one int per round, once for the
    # request and once per holder, peaked at about 14.5 B per payload
    # byte above the phase's start
    session, payload = warm_100_kb_session(tmp_path)
    sid, _, blocks = register_and_stock(session, data=payload,
                                        extra_rounds=5)
    share_set = session.holder_stores[1].get_secret(sid)
    first = share_set.first
    assert share_set.next_round - first == blocks + 5
    pinned = {}
    respond = HolderStore.respond

    def recording(store, secret_id, request):
        pinned[store.holder] = request.rounds
        return respond(store, secret_id, request)

    monkeypatch.setattr(HolderStore, "respond", recording)
    with memtrace() as usage:
        result = session.reconstruct_and_release(sid, PASSWORD)
    base, _live, peak = usage
    assert result.data == payload
    assert pinned == {j: [(first, first + blocks)] for j in (1, 2, 3)}
    assert (peak - base) / len(payload) <= 12.5


def test_a_session_does_not_grow_with_the_secrets_its_holders_store(
        tmp_path):
    # Ten more 16 KB secrets, each registered, stocked and released. With
    # every secret's share column and live tuples kept by every holder, a
    # session grew by about 8.1 B per payload byte; the end user's
    # released copy and the transcript lines are what may stay
    session = make_session(tmp_path)
    size = 16 * 1024

    def store_and_release(i):
        session.net.advance(36_000_000)
        payload = bytes((i + b) % 251 for b in range(size))
        sid, _, _ = register_and_stock(session, data=payload)
        assert session.reconstruct_and_release(sid, PASSWORD).data == payload

    store_and_release(0)
    with memtrace() as usage:
        for i in range(1, 11):
            store_and_release(i)
    base, live, _peak = usage
    assert (live - base) / (10 * size) <= 3


def test_renewal_corruption_is_accused_and_changes_nothing(tmp_path,
                                                           monkeypatch):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    before = {j: data_shares(session.holder_stores[j].get_secret(sid))
              for j in session.params.holder_indices}

    def poison(sender, recipient, track, pair):
        if sender == 2 and recipient == 3 and track == 0:
            return (pair[0] ^ 1, pair[1])
        return pair

    tamper_pairs(monkeypatch, poison)
    report = session.renew(sid)
    assert not report.accepted
    assert any(a.accuser == 3 and a.accused == 2 for a in report.accusations)
    for j in session.params.holder_indices:
        assert data_shares(
            session.holder_stores[j].get_secret(sid)) == before[j]
        assert session.holder_stores[j].renewal_rounds(sid) == ()

    # the next honest round goes through
    monkeypatch.undo()
    assert session.renew(sid).accepted


# renew-commits and renew-pairs start: code u8, sid16, u32 round, u8 sender,
# u32 n_tracks. Each case rewrites one field of holder 1's messages before
# they are authenticated, so only the header check can catch it.
@pytest.mark.parametrize("kind,offset,field_bytes", [
    ("renew-commits", 21, b"\x02"),            # labelled as holder 2
    ("renew-pairs", 21, b"\x02"),
    ("renew-commits", 17, b"\x00\x00\x00\x01"),  # round 1 instead of 0
    ("renew-pairs", 17, b"\x00\x00\x00\x01"),
    ("renew-pairs", 22, b"\x00\x00\x00\x01"),    # one track
    ("renew-pairs", 1, b"\xff" * 16),             # another secret
], ids=["commits-sender", "pairs-sender", "commits-round", "pairs-round",
        "pairs-tracks", "pairs-sid"])
def test_renewal_mislabelled_header_fails_closed(tmp_path, kind, offset,
                                                 field_bytes):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    before = {j: data_shares(session.holder_stores[j].get_secret(sid))
              for j in session.params.holder_indices}
    send = session.transport.send

    def relabel(sender, receiver, msg_kind, payload, sid=None):
        if msg_kind == kind and payload[21] == 1:
            payload = (payload[:offset] + field_bytes
                       + payload[offset + len(field_bytes):])
        return send(sender, receiver, msg_kind, payload, sid=sid)

    session.transport.send = relabel
    with pytest.raises(ProtocolError):
        session.renew(sid)
    for j in session.params.holder_indices:
        assert data_shares(
            session.holder_stores[j].get_secret(sid)) == before[j]
        assert session.holder_stores[j].renewal_rounds(sid) == ()

    session.transport.send = send
    assert session.renew(sid).accepted


# ------------------------------------------- commitments in the clear


def holder_state(session, sid) -> dict:
    """Each holder's shares, renewal count and saved record for sid."""
    return {j: (store.get_secret(sid).shares,
                store.get_secret(sid).renewals,
                live_record(store, sid))
            for j, store in session.holder_stores.items()}


def assert_renewal_fails_closed(session, sid, before, link):
    """A renew of sid is refused at link's renew-commits with the drop
    line written and no holder changed."""
    with pytest.raises(ChannelIntegrityError):
        session.renew(sid)
    assert session.transcript[-1].startswith(
        "drop %s kind=renew-commits " % link)
    assert holder_state(session, sid) == before


def recorded_commitment_bodies(session) -> dict:
    """{(sender, receiver): [renew-commits payloads sent, in order]}, kept
    as the session sends them."""
    send = session.transport.send
    bodies = defaultdict(list)

    def recording(sender, receiver, kind, payload, sid=None):
        if kind == "renew-commits":
            bodies[(sender, receiver)].append(payload)
        return send(sender, receiver, kind, payload, sid=sid)

    session.transport.send = recording
    return bodies


def alter_next_clear_body(session, alter):
    """Make the next body sent in the clear arrive as alter(body)."""
    net = session.net

    def altered(envelope, body):
        del net.check_digest  # once: the class's method is back
        return net.check_digest(envelope, alter(body))

    net.check_digest = altered


def flip_bit(raw: bytes, bit: int) -> bytes:
    flipped = bytearray(raw)
    flipped[bit // 8] ^= 0x80 >> bit % 8
    return bytes(flipped)


def test_every_bit_flip_of_a_clear_commitment_body_fails_closed(tmp_path):
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session, data=b"x")
    bodies = recorded_commitment_bodies(session)
    assert session.renew(sid).accepted
    (size,) = {len(body) for sent in bodies.values() for body in sent}
    before = holder_state(session, sid)
    for bit in range(8 * size):
        alter_next_clear_body(session,
                              lambda body, bit=bit: flip_bit(body, bit))
        assert_renewal_fails_closed(session, sid, before,
                                    "holder-1->holder-2")
    assert session.renew(sid).accepted
    assert session.net.conservation_holds()


def test_a_commitment_body_swapped_between_dealers_fails_closed(tmp_path):
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session, data=b"x")
    bodies = recorded_commitment_bodies(session)
    send = session.transport.send

    def swap(sender, receiver, kind, payload, sid=None):
        if (kind, sender) == ("renew-commits", "holder-2"):
            # holder 1's body of this round, sent on as holder 2's
            (dealt,) = bodies[("holder-1", "holder-2")]
            alter_next_clear_body(session, lambda body: dealt)
        return send(sender, receiver, kind, payload, sid=sid)

    session.transport.send = swap
    assert_renewal_fails_closed(session, sid,
                                holder_state(session, sid),
                                "holder-2->holder-1")


def test_a_commitment_body_replayed_from_an_earlier_round_fails_closed(
        tmp_path):
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session, data=b"x")
    bodies = recorded_commitment_bodies(session)
    assert session.renew(sid).accepted
    (earlier,) = bodies[("holder-1", "holder-2")]
    alter_next_clear_body(session, lambda body: earlier)
    assert_renewal_fails_closed(session, sid, holder_state(session, sid),
                                "holder-1->holder-2")
    assert session.renew(sid).round_no == 1


def test_every_bit_flip_of_a_digest_envelope_fails_closed(tmp_path):
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session, data=b"x")
    before = holder_state(session, sid)
    width = session.net.tag_bits
    edits = ([lambda env, bit=bit: dataclasses.replace(
                 env, ciphertext=flip_bit(env.ciphertext, bit))
              for bit in range(width)]
             + [lambda env, bit=bit: dataclasses.replace(
                    env, tag=env.tag ^ 1 << bit) for bit in range(width)])
    for edit in edits:
        session.transport.tamper = edit
        assert_renewal_fails_closed(session, sid, before,
                                    "holder-1->holder-2")
    assert session.renew(sid).accepted


def recorded_allocations(monkeypatch) -> list:
    """Every pair-stream allocation from now on, as (pair, offset, bits)."""
    original = _PairStream.allocate
    drawn = []

    def recording(self, nbits):
        offset, value = original(self, nbits)
        drawn.append((self.pair, offset, nbits))
        return offset, value

    monkeypatch.setattr(_PairStream, "allocate", recording)
    return drawn


def assert_no_pad_bit_reused(drawn):
    spans = defaultdict(list)
    for pair, start, bits in drawn:
        spans[pair].append((start, start + bits))
    for pair, ranges in spans.items():
        ranges.sort()
        for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
            assert end_a <= start_b, pair


def commitment_lines(transcript) -> list:
    """(bytes, cost, sent in the clear) of each renew-commits line."""
    return [(int(line.split(" bytes=")[1].split()[0]),
             int(line.rsplit(" cost=", 1)[1]), " body=clear " in line)
            for line in transcript if " kind=renew-commits " in line]


def test_a_renewal_before_any_precompute_pads_each_first_commitment_body(
        tmp_path, monkeypatch):
    # no holder channel has a hash key yet, so each first body goes padded
    # and its send draws the key; the next round's bodies go in the clear
    session = make_session(tmp_path)
    sid, _t1 = session.register(DATA, PASSWORD)
    drawn = recorded_allocations(monkeypatch)
    width = session.net.tag_bits
    assert session.renew(sid).accepted
    first = commitment_lines(session.transcript)
    assert len(first) == 12
    assert all(cost == 8 * size + 2 * width and not clear
               for size, cost, clear in first)
    assert session.renew(sid).accepted
    second = commitment_lines(session.transcript)[12:]
    assert len(second) == 12
    assert {(cost, clear) for _size, cost, clear in second} \
        == {(2 * width, True)} == {(512, True)}
    session.precompute(sid,
                       rounds=session.holder_stores[1].get_secret(sid)
                       .block_count)
    assert session.reconstruct_and_release(sid, PASSWORD).data == DATA
    assert session.net.conservation_holds()
    assert_no_pad_bit_reused(drawn)


# ------------------------------------------------------ relabelled messages


def relabel_on_send(session, match, rewrite):
    """Rewrite the payloads that match(sender, receiver, kind) accepts
    before they are authenticated; returns the list of rewritten kinds."""
    send = session.transport.send
    fired = []

    def relabel(sender, receiver, kind, payload, sid=None):
        if match(sender, receiver, kind):
            fired.append(kind)
            payload = rewrite(payload)
        return send(sender, receiver, kind, payload, sid=sid)

    session.transport.send = relabel
    return fired


def test_precompute_mislabelled_contributor_fails_closed(tmp_path):
    session = make_session(tmp_path)
    sid, _t1 = session.register(DATA, PASSWORD)
    send = session.transport.send
    # precomp: code u8, sid16, u32 first_round, u32 n_rounds, u8 contributor
    fired = relabel_on_send(
        session,
        lambda s, r, kind: (kind, s, r) == ("precomp", "holder-2", "holder-3"),
        lambda payload: payload[:25] + b"\x03" + payload[26:])
    with pytest.raises(ProtocolError):
        session.precompute(sid, rounds=2)
    assert fired == ["precomp"]
    for j in session.params.holder_indices:
        assert live_tuples(session.holder_stores[j].get_secret(sid)) == {}

    session.transport.send = send
    assert tuple(session.precompute(sid, rounds=2)) == (0, 1)
    for j in session.params.holder_indices:
        assert live_ids(session.holder_stores[j].get_secret(sid)) == [0, 1]


def test_precompute_sends_one_pair_per_batch_and_checks_the_first_round(
        tmp_path):
    session = make_session(tmp_path)
    sid, _t1 = session.register(DATA, PASSWORD)
    lines = len(session.transcript)
    assert tuple(session.precompute(sid, rounds=5)) == (0, 1, 2, 3, 4)
    # 5 tuples from 3 batches of w = 2: code, header (sid, first round,
    # batch count, contributor), no live round (a u32 run count of 0) and
    # 3 pairs of 16-byte values
    sizes = {int(line.split(" bytes=")[1].split()[0])
             for line in session.transcript[lines:]
             if " kind=precomp " in line}
    assert sizes == {1 + 16 + 4 + 4 + 1 + 4 + 3 * 2 * 16}
    # precomp: code u8, sid16, u32 first_round, u32 n_batches, u8 contributor
    fired = relabel_on_send(
        session,
        lambda s, r, kind: (kind, s, r) == ("precomp", "holder-3", "holder-1"),
        lambda payload: payload[:17] + (4).to_bytes(4, "big") + payload[21:])
    with pytest.raises(ProtocolError):
        session.precompute(sid, rounds=2)
    assert fired == ["precomp"]
    for j in session.params.holder_indices:
        assert live_ids(session.holder_stores[j].get_secret(sid)) == [
            0, 1, 2, 3, 4]


# ------------------------------------------------ retiring spent rounds


def held_ids(session, sid, j):
    return live_ids(session.holder_stores[j].get_secret(sid))


def tuple_values(session, sid, j, ids):
    """Holder j's r and z values of the given rounds, as stored bytes."""
    tuples = live_tuples(session.holder_stores[j].get_secret(sid))
    width = session.params.field.byte_width
    return [v.to_bytes(width, "big")
            for rid in ids for v in (tuples[rid].r, tuples[rid].z)]


@pytest.mark.parametrize("idle,kwargs", [
    (4, {"subset": (1, 2, 3)}),
    (2, {"offline": (2,)}),
], ids=["subset-123", "offline-2"])
def test_the_next_precompute_retires_rounds_spent_elsewhere(tmp_path, idle,
                                                            kwargs):
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session)
    stocked = held_ids(session, sid, idle)
    values = tuple_values(session, sid, idle, stocked)
    result = session.reconstruct_and_release(sid, PASSWORD, **kwargs)
    assert result.data == DATA
    assert held_ids(session, sid, idle) == stocked  # not asked, nothing spent
    session.precompute(sid, rounds=blocks)
    fresh = list(range(blocks, 2 * blocks))
    for j in session.params.holder_indices:
        assert held_ids(session, sid, j) == fresh
    holder_dir = tmp_path / "run" / ("holder-%d" % idle)
    for value in values:
        assert not directory_contains_window(holder_dir, value, len(value))
    assert spent_rounds(session.holder_stores[idle], sid) == tuple(stocked)
    assert session.reconstruct_and_release(sid, PASSWORD).data == DATA


def test_a_live_rounds_header_past_the_first_round_fails_closed(tmp_path):
    session = make_session(tmp_path)
    sid, _t1 = session.register(DATA, PASSWORD)
    assert tuple(session.precompute(sid, rounds=2)) == (0, 1)
    records = {j: live_record(store, sid)
               for j, store in session.holder_stores.items()}
    send = session.transport.send
    # precomp: code u8, sid16, u32 first_round, u32 n_batches, u8
    # contributor, then live_rounds: a u32 run count and (first, count)
    # pairs. Holder 2 says rounds 0-2 are live; the round starts at 2.
    fired = relabel_on_send(
        session,
        lambda s, r, kind: (kind, s, r) == ("precomp", "holder-2", "holder-3"),
        lambda payload: payload[:34] + (3).to_bytes(4, "big") + payload[38:])
    with pytest.raises(ProtocolError, match="at or past first round 2"):
        session.precompute(sid, rounds=2)
    assert fired == ["precomp"]
    for j, store in session.holder_stores.items():
        share_set = store.get_secret(sid)
        assert live_ids(share_set) == [0, 1]
        assert share_set.next_round == 2
        assert live_record(store, sid) == records[j]

    session.transport.send = send
    assert tuple(session.precompute(sid, rounds=2)) == (2, 3)
    for j in session.params.holder_indices:
        assert held_ids(session, sid, j) == [0, 1, 2, 3]


def test_a_crash_before_the_idle_holders_save_keeps_its_old_record(
        tmp_path):
    # the retirement is durable only through the save that also writes
    # the new stock; at the parent commit it was journaled first, and
    # holder 4 reopened without the stranded rounds
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD, subset=(1, 2, 3))
    store = session.holder_stores[4]
    before = live_record(store, sid)
    old = HolderStore(store.directory).get_secret(sid)

    class Crash(Exception):
        pass

    def crash(secret_id=None):
        raise Crash()

    store.save = crash  # the process dies before holder 4's record moves
    with pytest.raises(Crash):
        session.precompute(sid, rounds=blocks)
    reopened = {j: HolderStore(tmp_path / "run" / ("holder-%d" % j))
                for j in session.params.holder_indices}
    assert live_record(reopened[4], sid) == before
    assert reopened[4].get_secret(sid) == old
    assert live_ids(old) == list(range(blocks))  # stranded too
    for j in (1, 2, 3):
        share_set = reopened[j].get_secret(sid)
        assert live_ids(share_set) == list(range(blocks, 2 * blocks))
        assert share_set.next_round == 2 * blocks


def test_a_holder_directory_holds_its_index_and_record_slots_only(tmp_path):
    # fails at the parent commit: holders kept a journal.log of spends too
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session)
    result = session.reconstruct_and_release(sid, PASSWORD, subset=(1, 2, 3))
    assert result.data == DATA
    session.precompute(sid, rounds=blocks)
    assert session.renew(sid).accepted
    for j in session.params.holder_indices:
        holder_dir = tmp_path / "run" / ("holder-%d" % j)
        slots = {"%s.%s" % (secret.hex(), suffix)
                 for secret, sizes in holder_record_files(holder_dir).items()
                 for suffix in sizes}
        assert slots
        assert {p.name for p in holder_dir.iterdir()} == {"holder.bin"} | slots


def test_an_idle_holders_record_stays_as_small_as_a_responders(tmp_path):
    session = make_session(tmp_path)
    sid, _t1 = session.register(DATA, PASSWORD)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    root = tmp_path / "run"

    def record_bytes(j):
        return sum(holder_record_files(root / ("holder-%d" % j))[sid].values())

    for _cycle in range(20):
        session.precompute(sid, rounds=blocks)
        assert abs(record_bytes(4) - record_bytes(1)) <= 0.05 * record_bytes(1)
        assert session.reconstruct_and_release(sid, PASSWORD).data == DATA


def test_stranded_stock_wider_than_one_spend_retires_in_chunks(tmp_path):
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session, extra_rounds=0)
    session.precompute(sid, rounds=2 * blocks)
    for _ in range(3):
        result = session.reconstruct_and_release(sid, PASSWORD,
                                                 subset=(1, 2, 3))
        assert result.data == DATA
    assert len(held_ids(session, sid, 4)) == 3 * blocks
    session.precompute(sid, rounds=blocks)
    reopened = {j: HolderStore(tmp_path / "run" / ("holder-%d" % j))
                for j in session.params.holder_indices}
    for j, store in reopened.items():
        assert live_ids(store.get_secret(sid)) == list(
            range(3 * blocks, 4 * blocks))


def test_a_recon_ask_that_repeats_a_round_id_spends_nothing(tmp_path):
    session = make_session(tmp_path)
    sid, _t1, blocks = register_and_stock(session)
    store = session.holder_stores[1]
    record = live_record(store, sid)
    calculator, holder = session.CALCULATOR, "holder-1"
    lines = len(session.transcript)
    # the calculator cannot even encode such a list
    with pytest.raises(ImproperRequestError):
        session._send(calculator, holder, "recon-ask", (sid,),
                      bytes((1, 2, 3)), 5, [(0, 1)] * blocks)
    assert len(session.transcript) == lines
    # and runs that name an id twice are refused when the holder decodes
    head = session.codec.encode("recon-ask", sid, bytes((1, 2, 3)), 5, ())
    runs = [(0, blocks - 1), (0, 1)]
    raw = head[:-4] + len(runs).to_bytes(4, "big") + b"".join(
        f.to_bytes(4, "big") + c.to_bytes(4, "big") for f, c in runs)
    with pytest.raises(ImproperRequestError):
        session._deliver(calculator, holder, "recon-ask", raw, (sid,))
    assert live_record(store, sid) == record
    assert live_ids(store.get_secret(sid)) == list(range(blocks))
    assert session.reconstruct_and_release(sid, PASSWORD).data == DATA


def test_each_reconstruction_pins_the_lowest_rounds_its_subset_holds(
        tmp_path):
    # no precompute between the reconstructions, so the holders' live
    # rounds diverge; each request pins the lowest rounds that every
    # holder of its subset still holds, and each of those holders drops
    # every round below the pin's end
    session = make_session(tmp_path)
    sid, _t1 = session.register(DATA, PASSWORD)
    b = session.holder_stores[1].get_secret(sid).block_count
    session.precompute(sid, rounds=3 * b + 2)
    holders = session.params.holder_indices
    for subset, pinned in (((1, 2, 3), range(0, b)),
                           ((2, 3, 4), range(b, 2 * b)),
                           ((1, 2, 4), range(2 * b, 3 * b))):
        before = {j: held_ids(session, sid, j) for j in holders}
        result = session.reconstruct_and_release(sid, PASSWORD,
                                                 subset=subset)
        assert result.data == DATA
        for j in holders:
            assert held_ids(session, sid, j) == [
                rid for rid in before[j] if j not in subset
                or rid >= pinned.stop]
    tail = list(range(3 * b, 3 * b + 2))
    assert held_ids(session, sid, 1) == tail
    assert held_ids(session, sid, 3) == list(range(2 * b, 3 * b)) + tail
    assert held_ids(session, sid, 4) == tail
    # holders 1, 3 and 4 share only the two rounds past the third stock
    records = {j: live_record(session.holder_stores[j], sid)
               for j in holders}
    result = session.reconstruct_and_release(sid, PASSWORD,
                                             subset=(1, 3, 4))
    detail = "2 masking rounds available, %d blocks to serve" % b
    assert (result.outcome, result.detail) == (Outcome.ABORT, detail)
    assert session.transcript[-1] == (
        "verdict sid=%s phase=reconstruction outcome=abort detail=%s"
        % (sid.hex(), detail))
    for j in holders:
        assert live_record(session.holder_stores[j], sid) == records[j]


def test_a_spend_drops_every_round_below_its_pin(tmp_path):
    # (1, 2, 3) spend rounds 0-13, so (1, 2, 4) pin 14-27, the lowest
    # rounds all three hold. No 3-subset can pin 0-13 again, since holders
    # 1-3 spent them, so holder 4 drops them with its spend; at the parent
    # commit it kept them, as [(0, 14), (28, 42)] in 464 more record bytes
    session = make_session(tmp_path)
    data = bytes(range(200))
    sid, _t1 = session.register(data, PASSWORD)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    assert blocks == 14
    session.precompute(sid, rounds=3 * blocks)
    for subset in ((1, 2, 3), (1, 2, 4)):
        result = session.reconstruct_and_release(sid, PASSWORD,
                                                 subset=subset)
        assert result.data == data
    for j in (1, 2, 4):
        assert held_ids(session, sid, j) == list(range(28, 42))
    assert held_ids(session, sid, 3) == list(range(14, 42))
    sizes = {j: len(live_record(store, sid))
             for j, store in session.holder_stores.items()}
    # a live tuple's r and z are 32 bytes in the 127-bit field
    assert sizes[4] == sizes[1] == sizes[2] == sizes[3] - 14 * 32


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 31: at n >= 6 two disjoint subsets pin the same masking "
    "rounds until the calculator keeps a spent-round watermark"))
def test_two_disjoint_subsets_never_pin_the_same_masking_rounds(
        tmp_path, monkeypatch):
    # a (3, 6) deployment, holders 5 and 6 on Koganei-1 and Koganei-2. Two
    # failed attempts on disjoint subsets that share masks give whoever
    # interpolates the responses every mask, and with them an offline
    # test of any password guess
    placement = RolePlacement(holders=("Koganei-1", "Koganei-2",
                                       "Koganei-3", "Koganei-4",
                                       "Koganei-1", "Koganei-2"))
    session = make_session(tmp_path, params=SpssParams(n_sh=6),
                           placement=placement)
    sid, _t1 = session.register(bytes(range(200)), PASSWORD)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    assert blocks == 14
    session.precompute(sid, rounds=2 * blocks)
    pinned = defaultdict(list)
    respond = HolderStore.respond

    def recording(store, secret_id, request):
        pinned[request.subset].append(request.rounds)
        return respond(store, secret_id, request)

    monkeypatch.setattr(HolderStore, "respond", recording)
    for subset in ((1, 2, 3), (4, 5, 6)):
        result = session.reconstruct_and_release(sid, b"a wrong guess",
                                                 subset=subset)
        assert result.outcome is Outcome.FAIL
    rounds = {subset: {rid for runs in asked for first, end in runs
                       for rid in range(first, end)}
              for subset, asked in pinned.items()}
    assert len(rounds[1, 2, 3]) == len(rounds[4, 5, 6]) == blocks
    assert rounds[1, 2, 3].isdisjoint(rounds[4, 5, 6])


def run_every_phase(session):
    sid, _t1, _blocks = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    session.integrity_check(sid)
    session.refute(sid)
    session.renew(sid)
    session.reconstruct_and_release(sid, PASSWORD, offline=(1, 2))
    return sid


def test_a_secrets_phases_read_no_holder_record(tmp_path, monkeypatch):
    # every phase works on one secret, the one each holder has in hand,
    # so a holder reads its record only to open or to change secrets
    session = make_session(tmp_path)
    read = itstore.stores.DISK.read
    paths = []

    def spy(path):
        paths.append(Path(path))
        return read(path)

    monkeypatch.setattr(itstore.stores.DISK, "read", spy)
    sid = run_every_phase(session)
    holder_dirs = {store.directory
                   for store in session.holder_stores.values()}
    assert paths and not [p for p in paths if p.parent in holder_dirs]
    session.register(DATA, PASSWORD)  # a second secret: the first leaves
    assert session.holder_stores[1].get_secret(sid).block_count
    assert [p.parent for p in paths if p.parent in holder_dirs] == [
        session.holder_stores[1].directory]


SID_KINDS = sorted(kind for kind, (_code, fields) in SCHEMA.items()
                   if fields[0][1] == SID)


def test_every_phase_sends_every_kind(tmp_path):
    session = make_session(tmp_path)
    run_every_phase(session)
    sent = {line.split(" kind=")[1].split()[0]
            for line in session.transcript if " kind=" in line}
    assert sent == set(SCHEMA)


@pytest.mark.parametrize("kind", SID_KINDS)
def test_message_naming_another_sid_fails_closed(tmp_path, kind):
    session = make_session(tmp_path)
    wrong = b"\xee" * 16
    fired = relabel_on_send(session, lambda s, r, k: k == kind,
                            lambda payload: payload[:1] + wrong + payload[17:])
    with pytest.raises(ProtocolError):
        run_every_phase(session)
    assert fired
    for j in session.params.holder_indices:
        assert wrong not in session.holder_stores[j].secret_ids()
    assert wrong not in session.calculator_store.ids()
    assert all(r.secret_id != wrong for r in session.verifier_store.records())
    assert wrong not in session.owner_receipts
    assert wrong not in session.end_user_received


@pytest.mark.parametrize("reason", [0, 4])
def test_abort_notice_with_unknown_reason_is_refused(tmp_path, reason):
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session)
    fired = relabel_on_send(session, lambda s, r, k: k == "abort-notice",
                            lambda payload: payload[:17] + bytes([reason]))
    with pytest.raises(ProtocolError):
        session.reconstruct_and_release(sid, PASSWORD, offline=(1, 2))
    assert fired == ["abort-notice"]


# ---------------------------------------------------------- bookkeeping


def test_precompute_round_ids_stay_synchronized(tmp_path):
    session = make_session(tmp_path)
    sid, _ = session.register(DATA, PASSWORD)
    first = session.precompute(sid, rounds=3)
    second = session.precompute(sid, rounds=2)
    assert tuple(first) == (0, 1, 2)
    assert tuple(second) == (3, 4)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    session.precompute(sid, rounds=blocks)
    result = session.reconstruct_and_release(sid, PASSWORD, subset=(1, 2, 4))
    assert result.data == DATA
    spent = spent_rounds(session.holder_stores[1], sid)
    for j in (2, 4):
        assert spent_rounds(session.holder_stores[j], sid) == spent
    # the uncontacted holder kept all its masks
    assert spent_rounds(session.holder_stores[3], sid) == ()


def test_transcript_is_deterministic_across_replays(tmp_path):
    def run(subdir):
        session = make_session(tmp_path, subdir=subdir, master_seed=b"replay")
        sid, _, _ = register_and_stock(session)
        session.reconstruct_and_release(sid, PASSWORD)
        session.integrity_check(sid)
        session.refute(sid, claim_data=DATA[:-1] + b"?")
        session.renew(sid)
        return session

    one = run("one")
    two = run("two")
    assert one.transcript_text() == two.transcript_text()
    assert one.verdicts == two.verdicts
    assert one.net.ledger() == two.net.ledger()


def test_release_is_local_when_owner_hosts_end_user(tmp_path):
    # default placement co-locates owner and end user: the hand-off stays
    # on the node and burns no channel key
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    session.reconstruct_and_release(sid, PASSWORD)
    release_lines = [l for l in session.transcript if " kind=release " in l]
    assert len(release_lines) == 1
    assert release_lines[0].startswith("local ")


def test_roles_can_be_placed_on_distinct_nodes(tmp_path):
    placement = RolePlacement(owner="Ohtemachi-1", end_user="Koganei-4",
                              calculator="Koganei-1", verifier="Koganei-2",
                              holders=("Koganei-1", "Koganei-2", "Koganei-3",
                                       "Koganei-4"))
    session = make_session(tmp_path, placement=placement)
    sid, _, _ = register_and_stock(session)
    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.data == DATA
    release_lines = [l for l in session.transcript if " kind=release " in l]
    assert release_lines[0].startswith("otp ")
    assert session.integrity_check(sid).outcome is Outcome.SUCCESS
    assert session.net.conservation_holds()


def test_placement_must_cover_every_holder(tmp_path):
    with pytest.raises(ConfigurationError):
        make_session(tmp_path, placement=RolePlacement(
            holders=("Koganei-1", "Koganei-2")))


# ----------------------------------------------------------- tied routes

def tied_session(tmp_path, starved):
    """The calculator at N4 sends holder 2 at N3 its shares over L7, L4,
    L5, while the route from N3 to N4 is L1, L2, L8."""
    net = KeyNetwork(tied_topology(starved), master_seed=b"tied")
    net.advance(60_000)
    placement = RolePlacement(holders=("N4", "N3", "N5", "N0"), owner="N0",
                              end_user="N0", calculator="N4", verifier="N5")
    return TpvSession(tmp_path / "run", net=net, placement=placement)


def test_a_registration_whose_send_route_is_starved_aborts_before_any_share(
        tmp_path):
    session = tied_session(tmp_path, "L4")
    with pytest.raises(KeySupplyError):
        session.register(bytes(100), PASSWORD)
    verdict = session.verdicts[-1]
    assert verdict.phase is Phase.REGISTRATION
    assert verdict.outcome is Outcome.ABORT
    assert verdict.detail == (
        "key supply exhausted: cannot deliver 165 bytes calculator->holder-2:"
        " link L4 holds 0 bits, relay needs 1832")
    for store in session.holder_stores.values():
        assert store.secret_ids() == ()
    assert len(session.calculator_store.ids()) == 0
    assert session.net.conservation_holds()


def test_a_registration_is_not_refused_for_a_link_no_send_uses(tmp_path):
    session = tied_session(tmp_path, "L1")
    sid, _ = session.register(bytes(100), PASSWORD)
    assert session.verdicts[-1].outcome is Outcome.SUCCESS
    for store in session.holder_stores.values():
        assert store.secret_ids() == (sid,)
    assert session.net.conservation_holds()


def test_a_registration_waits_whole_steps_for_the_key_its_plan_needs(
        tmp_path):
    # as in the abort test above, the upload is paid for and the fan-out
    # is not; here the session waits for key instead of aborting
    step = 1_000
    session = make_session(tmp_path, advance_ms=1_500,
                           advance_on_exhaustion_ms=step)
    net = session.net
    plan = net.check_sendable
    attempts = []  # (simulated time, whether the plan passed)

    def watched(messages):
        try:
            plan(messages)
        except KeySupplyError:
            attempts.append((net.now_ms, False))
            raise
        attempts.append((net.now_ms, True))

    net.check_sendable = watched
    start = net.now_ms
    sid, _ = session.register(bytes(range(256)) * 16, PASSWORD)

    assert len(attempts) > 1
    assert [ok for _, ok in attempts] == [False] * (len(attempts) - 1) + [True]
    first = attempts[0][0]
    assert [t - first for t, _ in attempts] == [
        step * i for i in range(len(attempts))]
    assert (net.now_ms - start) % step == 0 and net.now_ms > start
    assert session.verdicts[-1].outcome is Outcome.SUCCESS
    assert sid in session.calculator_store.ids()
    for store in session.holder_stores.values():
        assert store.secret_ids() == (sid,)
    assert net.conservation_holds()


# ------------------------------------ verdicts before release; idle refusals


def session_state(session) -> tuple:
    """Every store file's bytes, the key network's counters and the
    transcript: what a refused call must leave as it found them."""
    root = session.calculator_store.directory.parent
    files = {str(p.relative_to(root)): p.read_bytes()
             for p in sorted(root.rglob("*")) if p.is_file()}
    return files, session.net.to_state(), list(session.transcript)


def test_a_register_whose_password_reduces_to_zero_sends_nothing(tmp_path):
    # the owner knows the field, so it refuses the password before
    # register-data leaves; at the parent commit register-data crossed,
    # spending its key, and the calculator refused it then
    session = make_session(tmp_path)
    register_and_stock(session)
    before, ledger = session_state(session), session.net.ledger()
    with pytest.raises(ConfigurationError, match="reduces to zero"):
        session.register(b"data", session.params.field.q.to_bytes(16, "big"))
    assert session_state(session) == before
    assert session.net.ledger() == ledger


def test_a_renewal_count_at_the_u32_limit_refuses_the_next_round(tmp_path):
    # the records count renewal rounds in a u32: the round that brings the
    # count to 2^32 - 1 is saved, and the one after it is refused before
    # anything is sent; at the parent commit every renew-commits and
    # renew-pairs crossed, spending key, before the first holder refused
    session = make_session(tmp_path)
    sid, _t1, _blocks = register_and_stock(session)
    for store in session.holder_stores.values():
        store.get_secret(sid).renewals = 0xFFFFFFFE
        store.save(sid)
    report = session.renew(sid)
    assert report.accepted and report.round_no == 0xFFFFFFFE
    reopened = TpvSession(tmp_path / "run", net=session.net)
    assert [store.get_secret(sid).renewals
            for store in reopened.holder_stores.values()] == [0xFFFFFFFF] * 4
    shares = {j: store.get_secret(sid).shares
              for j, store in session.holder_stores.items()}
    before, ledger = session_state(session), session.net.ledger()
    with pytest.raises(ProtocolError, match="most renewal rounds"):
        session.renew(sid)
    assert session_state(session) == before
    assert session.net.ledger() == ledger
    assert {j: (store.get_secret(sid).shares, store.get_secret(sid).renewals)
            for j, store in session.holder_stores.items()} == {
                j: (shares[j], 0xFFFFFFFF) for j in shares}


def test_verdicts_sent_before_the_first_release_do_not_block_it(tmp_path):
    # every verdict goes to the end user too, so a check or refutation run
    # before the first release leaves verdict bytes there, never payload
    session = make_session(tmp_path)
    sid, t1, blocks = register_and_stock(session)
    session.precompute(sid, rounds=blocks)  # stock for two reconstructions
    end_user = session.END_USER

    checked = session.integrity_check(sid, claim_data=DATA, claim_t1=t1)
    assert checked.outcome is Outcome.SUCCESS
    refuted = session.refute(sid, claim_data=DATA, claim_t1=t1)
    assert (refuted.outcome, refuted.detail) == (Outcome.FAIL,
                                                 "claim is authentic")

    assert received_bytes(session, end_user, sid=sid, kind="release") == 0
    seen = received_bytes(session, end_user, sid=sid)
    assert seen == received_bytes(session, end_user, sid=sid,
                                  kind="verdict") > 0
    assert sid not in session.end_user_received

    result = session.reconstruct_and_release(sid, PASSWORD)
    assert (result.outcome, result.data) == (Outcome.SUCCESS, DATA)
    assert session.end_user_received[sid] == (DATA, t1)
    assert received_bytes(session, end_user, sid=sid, kind="release") > 0
    assert session.verdicts[-1].phase is Phase.RECONSTRUCTION
    # the default subset spent one reconstruction's tuples, holder 4 none
    for j in (1, 2, 3):
        assert len(spent_rounds(session.holder_stores[j], sid)) == blocks
        assert len(live_ids(session.holder_stores[j].get_secret(sid))) == blocks
    assert spent_rounds(session.holder_stores[4], sid) == ()
    assert session.net.conservation_holds()


def test_registering_empty_data_is_refused_before_any_key_is_spent(tmp_path):
    session = make_session(tmp_path)
    before = session_state(session)
    with pytest.raises(ConfigurationError) as info:
        session.register(b"", PASSWORD)
    assert str(info.value) == "cannot register empty data"
    assert session_state(session) == before
    assert session.verdicts == [] and session.owner_receipts == {}
