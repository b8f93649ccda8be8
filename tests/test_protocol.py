"""End-to-end tests for the five-role storage protocol.

Each test runs a real session over the default metropolitan topology:
every cross-node byte rides a one-time-pad channel and every role's
persistent state lives in its own on-disk store.
"""

import dataclasses

import pytest

from itstore.errors import (
    ChannelIntegrityError,
    ConfigurationError,
    KeySupplyError,
    ProtocolError,
)
from itstore.keynet import DEFAULT_TOPOLOGY, KeyNetwork
from itstore.protocol import Outcome, Phase, RolePlacement, TpvSession
from itstore.stores import directory_contains_window
from itstore.wire import SCHEMA, SID

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
    session.advance(1000)
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
    got = session.received_bytes(session.VERIFIER, sid=sid)
    assert got == session.verifier_registration_budget()
    # one code byte + 16-byte id + 8-byte timestamp + k/8-byte tag
    assert session.verifier_registration_budget() == 1 + 16 + 8 + session.k // 8


def test_end_user_sees_nothing_before_release(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    assert session.received_bytes(session.END_USER, sid=sid) == 0
    assert session.received_bytes(session.END_USER) == 0
    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.outcome is Outcome.SUCCESS
    assert session.received_bytes(session.END_USER, sid=sid, kind="release") > 0


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
        assert len(session.holder_stores[j].consumed_rounds(sid)) == blocks


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
        assert store.consumed_rounds(sid) == ()

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
    session.calculator_store.remove(sid)
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


def test_registration_aborts_before_any_share_leaves(tmp_path):
    # enough key for the owner's upload, not enough to fan the shares out
    session = make_session(tmp_path, advance_ms=1_500)
    data = bytes(range(256)) * 16  # 4 KiB
    with pytest.raises(KeySupplyError):
        session.register(data, PASSWORD)

    assert session.verdicts[-1].phase is Phase.REGISTRATION
    assert session.verdicts[-1].outcome is Outcome.ABORT
    # nothing persisted anywhere, nothing fanned out
    assert len(session.calculator_store) == 0
    assert len(session.verifier_store) == 0
    for store in session.holder_stores.values():
        assert store.secret_ids() == ()
    kinds = [line.split(" kind=")[1].split(" ")[0]
             for line in session.transcript if " kind=" in line]
    assert "register-data" in kinds  # the upload itself went through
    assert "shares" not in kinds

    # with supply restored the same registration succeeds
    session.advance(3_600_000)
    sid, _ = session.register(data, PASSWORD)
    assert sid in session.calculator_store.ids()


# -------------------------------------------------------------- renewal


def test_renewal_preserves_payload_and_rerandomizes_shares(tmp_path):
    session = make_session(tmp_path)
    sid, _, blocks = register_and_stock(session)
    before = {j: session.holder_stores[j].get_secret(sid).data_shares
              for j in session.params.holder_indices}
    before_pw = {j: session.holder_stores[j].get_secret(sid).password_share
                 for j in session.params.holder_indices}

    report = session.renew(sid)
    assert report.accepted
    assert report.tracks == blocks
    for j in session.params.holder_indices:
        share_set = session.holder_stores[j].get_secret(sid)
        assert share_set.data_shares != before[j]
        assert share_set.password_share == before_pw[j]
        assert session.holder_stores[j].renewal_rounds(sid) == (0,)

    result = session.reconstruct_and_release(sid, PASSWORD)
    assert result.data == DATA


def test_renewal_destroys_previous_share_bytes(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    field = session.params.field
    old_encoded = [field.encode(v)
                   for v in session.holder_stores[1].get_secret(sid).data_shares]
    assert session.renew(sid).accepted
    holder_dir = session.holder_stores[1].directory
    for raw in old_encoded:
        assert not directory_contains_window(holder_dir, raw, window=16)


def test_renewal_corruption_is_accused_and_changes_nothing(tmp_path):
    session = make_session(tmp_path)
    sid, _, _ = register_and_stock(session)
    before = {j: session.holder_stores[j].get_secret(sid).data_shares
              for j in session.params.holder_indices}

    def poison(sender, recipient, track, pair):
        if sender == 2 and recipient == 3 and track == 0:
            return (pair[0] ^ 1, pair[1])
        return pair

    report = session.renew(sid, pair_tamper=poison)
    assert not report.accepted
    assert any(a.accuser == 3 and a.accused == 2 for a in report.accusations)
    for j in session.params.holder_indices:
        assert session.holder_stores[j].get_secret(sid).data_shares == before[j]
        assert session.holder_stores[j].renewal_rounds(sid) == ()

    # the next honest round goes through
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
    before = {j: session.holder_stores[j].get_secret(sid).data_shares
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
        assert session.holder_stores[j].get_secret(sid).data_shares == before[j]
        assert session.holder_stores[j].renewal_rounds(sid) == ()

    session.transport.send = send
    assert session.renew(sid).accepted


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
        assert session.holder_stores[j].get_secret(sid).tuples == {}

    session.transport.send = send
    assert session.precompute(sid, rounds=2) == (0, 1)
    for j in session.params.holder_indices:
        assert sorted(session.holder_stores[j].get_secret(sid).tuples) == [0, 1]


def run_every_phase(session):
    sid, _t1, _blocks = register_and_stock(session)
    session.cs_register(sid, DATA)
    session.reconstruct_and_release(sid, PASSWORD)
    session.integrity_check(sid)
    session.cs_check(sid, DATA)
    session.refute(sid)
    session.renew(sid)
    session.reconstruct_and_release(sid, PASSWORD, offline=(1, 2))


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


# ------------------------------------------------- computational alternative


def test_cs_mode_round_trip_and_truncation(tmp_path):
    session = make_session(tmp_path, cs_tag_bits=64)
    sid, t1, _ = register_and_stock(session)
    session.cs_register(sid, DATA)
    session.reconstruct_and_release(sid, PASSWORD)

    event = session.cs_check(sid, DATA)
    assert event.outcome is Outcome.SUCCESS

    event = session.cs_check(sid, DATA[:-1] + b"!")
    assert event.outcome is Outcome.FAIL
    assert "digest mismatch" in event.detail

    # the verifier row really is the truncated digest
    rows = [r for r in session.verifier_store.records()
            if r.secret_id == sid and r.tag.k == 64]
    assert len(rows) == 1 and rows[0].t1 == t1

    # never cs-registered id: plain fail, nothing to compare
    other = make_session(tmp_path, subdir="other", cs_tag_bits=64)
    sid2, _, _ = register_and_stock(other)
    other.reconstruct_and_release(sid2, PASSWORD)
    event = other.cs_check(sid2, DATA)
    assert event.outcome is Outcome.FAIL
    assert "no verifier record" in event.detail


def test_cs_tag_width_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        make_session(tmp_path, cs_tag_bits=12)
    with pytest.raises(ConfigurationError):
        make_session(tmp_path, subdir="b", cs_tag_bits=1024)


# ---------------------------------------------------------- bookkeeping


def test_precompute_round_ids_stay_synchronized(tmp_path):
    session = make_session(tmp_path)
    sid, _ = session.register(DATA, PASSWORD)
    first = session.precompute(sid, rounds=3)
    second = session.precompute(sid, rounds=2)
    assert first == (0, 1, 2)
    assert second == (3, 4)
    blocks = session.holder_stores[1].get_secret(sid).block_count
    session.precompute(sid, rounds=blocks)
    result = session.reconstruct_and_release(sid, PASSWORD, subset=(1, 2, 4))
    assert result.data == DATA
    spent = session.holder_stores[1].consumed_rounds(sid)
    for j in (2, 4):
        assert session.holder_stores[j].consumed_rounds(sid) == spent
    # the uncontacted holder kept all its masks
    assert session.holder_stores[3].consumed_rounds(sid) == ()


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
