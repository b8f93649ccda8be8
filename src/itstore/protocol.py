"""Five-role storage protocol with third-party integrity verification.

Roles and their duties:

* data owner       -- supplies the payload and password, receives the
                      registration receipt, releases recovered data to the
                      end user, can dispute a claimed delivery.
* share calculator -- splits the payload into authenticated shares, tags it
                      for the verifier, then forgets everything except one
                      fixed-size record (secret id, timestamp, tag seed).
* share holders    -- store the shares and precomputed masking material;
                      answer reconstruction requests with masked values
                      only.
* verifier         -- keeps (id, t1, tag, t2) rows and adjudicates
                      integrity checks and refutations; it never sees the
                      payload, only tags.
* end user         -- receives the released data and may ask the verifier
                      to confirm it.

Every cross-node exchange rides the key network's one-time-pad channels;
endpoints sharing a node hand bytes over locally (same trust domain, no
key spent). The renewal commitments, which are public, cross in the clear
beside a padded digest that keeps them whole (Transport.send). Message
payloads are length-checked binary with a one-byte type code; the layout
of every kind is in itstore.wire.SCHEMA, and each receiver checks that a
message names the secret id of its exchange (and for precomp and renewal
messages the round, sender and count it expects).
A precomp message also carries its sender's live round ids, one run
that must lie below the round it starts; each holder retires the rounds
it holds that another holder has spent (TpvSession.precompute).

Timestamps are per-role logical clocks (network time plus a configurable
per-role skew); t1 is stamped by the calculator at registration, t2 by the
verifier when it files a row. Every verdict is taken on the verifier's
first row for the claim's (id, t1), the one its registration filed.
* Integrity rule (integrity_check): fail with no row, with a differing
  tag, or with t1 > t2; otherwise success.
* Refutation (refute) has no t1 <= t2 condition: abort with no calculator
  seed or no row; success (refuted) when the tag differs; else fail.

Key exhaustion during registration aborts before any share leaves the
calculator: the full outgoing message list is planned first by
KeyNetwork.check_sendable, which runs the sends' own relay accounting,
route included, on scratch copies of the key counters. A reconstruction
that cannot gather the threshold number of holders, or spends its
precomputed masks, aborts the session without releasing anything;
registration records are untouched by such aborts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .entropy import SeededEntropy
from .errors import (
    ChannelIntegrityError,
    ConfigurationError,
    KeySupplyError,
    PasswordFailureError,
    ProtocolError,
)
from .field import random_polynomial  # noqa: F401 -- perfbench's tracer hooks this name
from .keynet import DEFAULT_TOPOLOGY, KeyNetwork
from .mac import (
    DEFAULT_K,
    MacScheme,
    MacTag,
    au2_hash,
    check_k,
    make_seed,
    recompute_tag,
)
from .renewal import (
    Accusation,
    RenewalGroupConfig,
    RenewalOutcome,
    apply_renewal,
    default_group,
    gen_renewal,
    subgroup_members,
    summed_dealing,
    verify_renewal_share,
)
from .spss import (
    HolderShareSet,
    MaskedResponse,
    SpssParams,
    SpssRequest,
    check_offline,
    check_subset,
    data_block_count,
    password_to_element,
    precompute_round,
    retired_rounds,
    spss_recover,
    spss_register,
    spss_request,
)
from .stores import CalculatorStore, HolderStore, VerifierRecord, VerifierStore
from .wire import (
    INTEGRITY_ONLY,
    SID_BYTES,
    Codec,
    Packed,
    column,
)

__all__ = [
    "Phase",
    "Outcome",
    "VerdictEvent",
    "ReleaseResult",
    "RenewalReport",
    "RolePlacement",
    "Transport",
    "TpvSession",
    "renewal_round",
    "role_endpoints",
]


class Phase(Enum):
    REGISTRATION = "registration"
    RECONSTRUCTION = "reconstruction"
    INTEGRITY_CHECK = "integrity-check"
    REFUTATION = "refutation"


class Outcome(Enum):
    SUCCESS = "success"
    FAIL = "fail"
    ABORT = "abort"


_PHASE_CODE = {p: i + 1 for i, p in enumerate(Phase)}
_OUTCOME_CODE = {o: i + 1 for i, o in enumerate(Outcome)}

# abort-notice reason codes
_ABORT_THRESHOLD = 1
_ABORT_PRECOMPUTATION = 2
_ABORT_AUTHENTICATOR = 3
_ABORT_REASONS = (_ABORT_THRESHOLD, _ABORT_PRECOMPUTATION, _ABORT_AUTHENTICATOR)

# how many times one send or registration plan may wait for key material
MAX_KEY_WAITS = 100_000


@dataclass(frozen=True)
class VerdictEvent:
    """One adjudicated protocol outcome, as announced to both parties."""

    secret_id: bytes
    phase: Phase
    outcome: Outcome
    detail: str = ""


@dataclass(frozen=True)
class ReleaseResult:
    """What a reconstruction attempt delivered (or why it did not)."""

    secret_id: bytes
    outcome: Outcome
    detail: str = ""
    data: "bytes | None" = None


@dataclass(frozen=True)
class RenewalReport:
    """Result of one proactive share-renewal round over a secret."""

    secret_id: bytes
    round_no: int
    accepted: bool
    accusations: tuple = ()
    tracks: int = 0


@dataclass(frozen=True)
class RolePlacement:
    """Which network node hosts each role endpoint.

    Endpoints on the same node exchange messages locally; everything else
    is one-time-padded. holder j lives at holders[j - 1].
    """

    holders: tuple
    owner: str = "Ohtemachi-1"
    end_user: str = "Ohtemachi-1"
    calculator: str = "Koganei-1"
    verifier: str = "Koganei-2"

    @classmethod
    def for_holders(cls, n_sh: int) -> "RolePlacement":
        """The default placement of n_sh holders: holder j on Koganei-j."""
        return cls(holders=tuple("Koganei-%d" % j for j in range(1, n_sh + 1)))


def _stamped(t1: int, data: bytes) -> bytes:
    """What a tag covers: the 8-byte time t1, then the data."""
    return t1.to_bytes(8, "big") + data


def _live_run(share_set: HolderShareSet) -> list:
    """A holder's live rounds as an id list: [(first, next_round)], or []
    when its stock is empty."""
    if share_set.first == share_set.next_round:
        return []
    return [(share_set.first, share_set.next_round)]


class Transport:
    """Moves one payload between two role endpoints and keeps the books.

    Cross-node payloads are encrypted/authenticated by the key network;
    co-located endpoints hand bytes over directly. A payload of a
    wire.INTEGRITY_ONLY kind crosses in the clear beside its digest
    envelope (KeyNetwork.send_digest) once the channel has its hash key,
    and its transcript line is marked body=clear; the first message of a
    channel with no hash key yet is padded as any other. Every delivery
    appends one transcript line, which names the sender, the receiver,
    the kind, the byte count and the secret: that line is the record of
    what each endpoint received.

    advance_on_exhaustion_ms > 0 lets a send wait for key material by
    advancing simulated time instead of failing, up to MAX_KEY_WAITS steps.
    """

    def __init__(self, net: KeyNetwork, transcript: list,
                 advance_on_exhaustion_ms: int = 0):
        self.net = net
        self.transcript = transcript
        self.advance_on_exhaustion_ms = advance_on_exhaustion_ms
        self.tamper = None  # one-shot hook: SecureEnvelope -> SecureEnvelope

    def wait_for_key(self, attempt, *args):
        """Return attempt(*args). While it raises KeySupplyError and
        advance_on_exhaustion_ms > 0, advance simulated time by that much
        and try again, at most MAX_KEY_WAITS times; then let it raise."""
        wait_ms = self.advance_on_exhaustion_ms
        for _ in range(MAX_KEY_WAITS if wait_ms else 0):
            try:
                return attempt(*args)
            except KeySupplyError:
                self.net.advance(wait_ms)
        return attempt(*args)

    def send(self, sender: str, receiver: str, kind: str, payload: bytes,
             sid: "bytes | None" = None) -> bytes:
        node_s = self.net._endpoint_node(sender)
        node_r = self.net._endpoint_node(receiver)
        sid_hex = sid.hex() if sid is not None else "-"
        digest = hashlib.sha256(payload).hexdigest()[:16]
        if node_s == node_r:
            delivered = payload
            self.transcript.append(
                "local %s->%s kind=%s bytes=%d sha=%s sid=%s"
                % (sender, receiver, kind, len(payload), digest, sid_hex))
        else:
            clear = (kind in INTEGRITY_ONLY
                     and self.net.keyed(sender, receiver))
            cost = self.net.message_key_cost(
                sender, receiver,
                self.net.tag_bits // 8 if clear else len(payload))
            self.wait_for_key(self.net.ensure_pair_key, node_s, node_r,
                              cost)
            if clear:
                envelope = self.net.send_digest(sender, receiver, payload)
            else:
                envelope = self.net.secure_send(sender, receiver, payload)
            if self.tamper is not None:
                hook, self.tamper = self.tamper, None
                envelope = hook(envelope)
            try:
                delivered = (self.net.check_digest(envelope, payload)
                             if clear else self.net.secure_recv(envelope))
            except ChannelIntegrityError:
                self.transcript.append(
                    "drop %s->%s kind=%s bytes=%d sid=%s reason=channel-integrity"
                    % (sender, receiver, kind, len(payload), sid_hex))
                raise
            self.transcript.append(
                "otp %s->%s kind=%s bytes=%d sha=%s sid=%s seq=%d%s cost=%d"
                % (sender, receiver, kind, len(payload), digest, sid_hex,
                   envelope.seq, " body=clear" if clear else "", cost))
        return delivered


def renewal_round(shares: dict, degree: int, config: RenewalGroupConfig,
                  sources: dict, deliver, check_source) -> RenewalOutcome:
    """One verified renewal round over every share track.

    shares maps each holder index to a wire.Packed view of its share
    column, one share in F_q per track. sources maps each holder to its
    randomness. Holder by holder, in index order, dealer d deals all its
    tracks with one gen_renewal call and hands the columns to deliver(d,
    commitments, pairs) -> {j: (commitments per track, pair per track)},
    which returns what every other holder j received, as sequences or as
    Packed views of the bytes that arrived. d keeps its own pairs as
    their byte column.

    Before any pair is checked, subgroup_members settles once per round
    the subgroup membership of every distinct commitment any holder
    received from another, streamed out of what arrived: one power each
    for up to 96 of them, else one random-subset batch whose bits come
    from check_source(received), where received lists the commitment
    sequences each holder received, recipient by recipient and dealer by
    dealer. The source must be private to the checkers.

    Then holder by holder, with only that holder's inputs decoded, every
    holder checks each track once: the pairs the other holders sent it,
    summed, against the products of their commitments
    (renewal.summed_dealing, checked by verify_renewal_share). A holder
    does not check its own pairs: nothing can alter them on the way. A
    dealer whose commitments on a track are not exactly `degree` long is
    accused on that track: a dealing of another degree can pass its own
    check, and folded in it would lift the shares off every sharing of
    the secret of this degree. deliver hands on a pair for every track
    (in a session each message's header fixes the track count). If the
    sum fails or a commitment is not a member, the holder checks that
    track dealer by dealer, and every dealer that fails is accused. So a
    track whose summed check fails always accuses someone. Any
    accusation rejects the round with no new shares; otherwise every
    holder folds its own pair and the summed pair into its shares, and
    new_shares holds a Packed view of each holder's renewed column.
    Errors of two or more dealers that cancel at one holder pass the sum,
    and that holder's renewed share is then still correct (see renewal's
    module docstring for why the sum is sound).
    """
    holders = sorted(shares)
    width = config.share_field().byte_width

    # received[j][d] = (commitments, pairs) per track, as j got them from d
    received = {j: {} for j in holders}
    own = {}  # own[d]: d's pairs to itself, per track, as their column
    for d in holders:
        commitments, pairs = gen_renewal(holders, degree, config, sources[d],
                                         len(shares[d]))
        others = [j for j in holders if j != d]
        got = deliver(d, commitments, pairs)
        for j in others:
            received[j][d] = got[j]
        own[d] = Packed(column([v for pair in pairs[d] for v in pair],
                               width), width, 2)
        del commitments, pairs  # d's dealing, as dealt, is not kept

    received_commitments = [received[j][d][0] for j in holders
                            for d in holders if d != j]
    members = subgroup_members((eps for sent in received_commitments
                                for track in sent for eps in track),
                               config, check_source(received_commitments))
    del received_commitments  # so what j received goes once j is done
    accusations = []
    new_shares = {}
    for j in holders:
        dealers = [d for d in holders if d != j]
        n = len(dealers)
        got = received.pop(j)
        renewed = []
        # j's inputs are decoded here, and dropped once j has folded them
        for track, (share, own_pair, *sent) in enumerate(zip(
                shares[j], own.pop(j), *(got[d][0] for d in dealers),
                *(got[d][1] for d in dealers), strict=True)):
            commitments, pairs = sent[:n], sent[n:]
            counted = [len(eps) == degree for eps in commitments]
            summed = all(counted) and summed_dealing(commitments, pairs,
                                                     config, members)
            if summed and verify_renewal_share(j, *summed, config, members):
                renewed.append(apply_renewal(
                    share, (own_pair, summed[1]), config))
                continue
            for d, eps, pair, ok in zip(dealers, commitments, pairs,
                                        counted):
                if not ok or not verify_renewal_share(
                        j, eps, pair, config, members):
                    accusations.append(Accusation(
                        j, d, "commitment check failed on track %d" % track))
        new_shares[j] = Packed(column(renewed, width), width)
    if accusations:
        return RenewalOutcome(accepted=False, accusations=tuple(accusations))
    return RenewalOutcome(accepted=True, new_shares=new_shares)


def role_endpoints(n_sh: int) -> tuple:
    """The role endpoints of a deployment of n_sh holders, the names clock
    skews are keyed by: owner, end-user, calculator, verifier, then
    holder-1 .. holder-n_sh."""
    return ((TpvSession.OWNER, TpvSession.END_USER, TpvSession.CALCULATOR,
             TpvSession.VERIFIER)
            + tuple(TpvSession._holder_ep(j) for j in range(1, n_sh + 1)))


class TpvSession:
    """Deterministic single-machine run of the five-role protocol.

    The session owns the per-role persistent stores under storage_root and
    schedules every message itself, so a fixed master seed and call
    sequence replays to a byte-identical transcript. Role endpoints are
    registered on the key network at construction.
    """

    OWNER = "owner"
    END_USER = "end-user"
    CALCULATOR = "calculator"
    VERIFIER = "verifier"

    def __init__(self, storage_root, net: "KeyNetwork | None" = None,
                 params: "SpssParams | None" = None,
                 scheme: MacScheme = MacScheme.POLYEVAL, k: int = DEFAULT_K,
                 placement: "RolePlacement | None" = None,
                 clock_skews: "dict | None" = None,
                 renewal_group: "RenewalGroupConfig | None" = None,
                 cs_tag_bits=None,  # unused; perfbench's workloads pass it
                 master_seed: bytes = b"tpv-session",
                 advance_on_exhaustion_ms: int = 0):
        self.params = params if params is not None else SpssParams()
        # one MAC; scheme= stays because perfbench's workloads pass it
        self.scheme = scheme
        self.k = int(k)
        check_k(self.k)
        self.placement = placement or RolePlacement.for_holders(self.params.n_sh)
        self.skews = dict(clock_skews or {})
        unknown = set(self.skews) - set(role_endpoints(self.params.n_sh))
        if unknown:
            raise ConfigurationError("clock_skews names no role: %s"
                                     % ", ".join(sorted(unknown)))

        renewal_group = renewal_group or default_group(self.params.field.q)
        self.renewal_group = renewal_group
        self._group_checked = False
        self.codec = Codec(
            W=self.params.field.byte_width,
            P=(renewal_group.p.bit_length() + 7) // 8 if renewal_group else 0,
            tag=self.k // 8, degree=self.params.data_degree)

        self.net = net if net is not None else KeyNetwork(
            DEFAULT_TOPOLOGY, master_seed=master_seed)

        if len(self.placement.holders) != self.params.n_sh:
            raise ConfigurationError(
                "placement lists %d holder nodes, layout needs %d"
                % (len(self.placement.holders), self.params.n_sh))
        self.net.register_endpoint(self.OWNER, self.placement.owner)
        self.net.register_endpoint(self.END_USER, self.placement.end_user)
        self.net.register_endpoint(self.CALCULATOR, self.placement.calculator)
        self.net.register_endpoint(self.VERIFIER, self.placement.verifier)
        for j in self.params.holder_indices:
            self.net.register_endpoint(self._holder_ep(j),
                                       self.placement.holders[j - 1])

        # the stores create their directories at their first write; the
        # root exists from the start, so a deployment that has written
        # nothing yet can still be listed and removed
        root = Path(storage_root)
        root.mkdir(parents=True, exist_ok=True)
        self.calculator_store = CalculatorStore(root / "calculator", k=self.k)
        self.verifier_store = VerifierStore(root / "verifier")
        self.holder_stores = {
            j: HolderStore(root / ("holder-%d" % j), holder=j)
            for j in self.params.holder_indices
        }

        self.transcript = []
        self.verdicts = []
        self.owner_receipts = {}  # sid -> (t1, byte_length)
        self.end_user_received = {}  # sid -> (data, t1)
        self.transport = Transport(
            self.net, self.transcript,
            advance_on_exhaustion_ms=advance_on_exhaustion_ms)

    # ------------------------------------------------------------ utilities

    @staticmethod
    def _holder_ep(j: int) -> str:
        return "holder-%d" % j

    def clock(self, role: str) -> int:
        """Role-local logical time: network time plus configured skew."""
        return self.net.now_ms + self.skews.get(role, 0)

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"

    def _send(self, sender: str, receiver: str, kind: str, header,
              *body) -> tuple:
        """Encode one message (header fields, then body fields), deliver
        it, and return the body fields as the receiver decodes them."""
        payload = self.codec.encode(kind, *header, *body)
        return self._deliver(sender, receiver, kind, payload, header)

    def _deliver(self, sender: str, receiver: str, kind: str,
                 payload: bytes, header=()) -> tuple:
        """Deliver encoded bytes; the receiver decodes them and checks
        that their leading fields equal header, the sid of the exchange
        first (register-data alone has no header and no sid)."""
        delivered = self.transport.send(sender, receiver, kind, payload,
                                        sid=header[0] if header else None)
        return self.codec.decode(kind, delivered, header)

    def _verdict(self, sid: bytes, phase: Phase, outcome: Outcome,
                 detail: str = "") -> VerdictEvent:
        event = VerdictEvent(sid, phase, outcome, detail)
        self.verdicts.append(event)
        self.transcript.append(
            "verdict sid=%s phase=%s outcome=%s detail=%s"
            % (sid.hex(), phase.value, outcome.value, detail or "-"))
        return event

    def _announce(self, sid: bytes, phase: Phase, outcome: Outcome,
                  detail: str) -> VerdictEvent:
        """The verifier announces the outcome to owner and end user."""
        for party in (self.OWNER, self.END_USER):
            self._send(self.VERIFIER, party, "verdict",
                       (sid, _PHASE_CODE[phase], _OUTCOME_CODE[outcome]))
        return self._verdict(sid, phase, outcome, detail)

    def _claim(self, sid: bytes, data: "bytes | None",
               t1: "int | None") -> tuple:
        """(data, t1) of a claim, filled in from the end user's copy."""
        if data is None or t1 is None:
            if sid not in self.end_user_received:
                raise ProtocolError(
                    "end user received nothing for %s" % sid.hex())
            got_data, got_t1 = self.end_user_received[sid]
            data = got_data if data is None else data
            t1 = got_t1 if t1 is None else t1
        return data, t1

    def _compare(self, sender: str, kind: str, sid: bytes, t1: int,
                 tag: bytes) -> tuple:
        """Send (t1, tag) to the verifier; return its row for (sid, t1),
        or None, and the tag as it arrived."""
        v_t1, v_tag = self._send(sender, self.VERIFIER, kind, (sid,), t1, tag)
        return self.verifier_store.find(sid, v_t1), MacTag.from_bytes(v_tag)

    # ---------------------------------------------------------- registration

    def register(self, data: bytes, password: bytes):
        """Owner -> calculator -> {holders, verifier}: split, tag, record.

        Returns (secret_id, t1). Raises KeySupplyError after recording an
        abort verdict if the outgoing shares cannot all be paid for; in
        that case nothing has left the calculator. Empty data, and a
        password that reduces to zero in the field, which the owner knows,
        are refused before anything is sent.
        """
        if not data:
            raise ConfigurationError("cannot register empty data")
        field = self.params.field
        password_to_element(password, field)
        pw, body = self._send(self.OWNER, self.CALCULATOR, "register-data",
                              (), password, data)

        # calculator side
        t1 = self.clock(self.CALCULATOR)
        sid = self.net.supply_randomness(self.CALCULATOR, SID_BYTES * 8)
        sid = sid.to_bytes(SID_BYTES, "big")
        # encoded first, so a t1 outside its u64 field is refused before
        # anything is tagged or sent
        receipt_msg = self.codec.encode("receipt", sid, t1)
        entropy = self.net.entropy_source(self.CALCULATOR)

        pw_element = password_to_element(pw, field)
        seed = make_seed(self.k, entropy)
        tag = au2_hash(seed, _stamped(t1, body))
        holder_sets, _secret = spss_register(body, pw_element, self.params,
                                             entropy, t1)

        # the share columns travel and are stored as they are
        share_msgs = {j: self.codec.encode("shares", sid, ss.shares,
                                           ss.password_share)
                      for j, ss in holder_sets.items()}
        tag_msg = self.codec.encode("tag-report", sid, t1, tag.to_bytes())

        plan = [(self.CALCULATOR, self._holder_ep(j), len(share_msgs[j]))
                for j in self.params.holder_indices]
        plan.append((self.CALCULATOR, self.VERIFIER, len(tag_msg)))
        plan.append((self.CALCULATOR, self.OWNER, len(receipt_msg)))
        # refuse the registration atomically when keys cannot cover it
        try:
            self.transport.wait_for_key(self.net.check_sendable, plan)
        except KeySupplyError as exc:
            self._verdict(sid, Phase.REGISTRATION, Outcome.ABORT,
                          "key supply exhausted: %s" % exc)
            raise

        for j in self.params.holder_indices:
            shares, pw_share = self._deliver(
                self.CALCULATOR, self._holder_ep(j), "shares", share_msgs[j],
                (sid,))
            self.holder_stores[j].put_secret(
                sid, HolderShareSet(j, self.params, shares, pw_share))

        # the verifier files the row stamped t2 on its own clock
        v_t1, v_tag = self._deliver(self.CALCULATOR, self.VERIFIER,
                                    "tag-report", tag_msg, (sid,))
        self.verifier_store.append(VerifierRecord(
            sid, v_t1, MacTag.from_bytes(v_tag), self.clock(self.VERIFIER)))

        self.calculator_store.put(sid, t1, seed)

        (o_t1,) = self._deliver(self.CALCULATOR, self.OWNER, "receipt",
                                receipt_msg, (sid,))
        self.owner_receipts[sid] = (o_t1, len(data))

        self._verdict(sid, Phase.REGISTRATION, Outcome.SUCCESS,
                      "blocks=%d" % holder_sets[1].block_count)
        return sid, t1

    # ---------------------------------------------------------- precompute

    def precompute(self, sid: bytes, rounds: int = 1) -> range:
        """Holders jointly stock `rounds` masking tuples for one secret,
        and retire the rounds some holder has spent.

        spss.precompute_round runs the round over params.batch_count(rounds)
        extraction batches; each holder sends every other holder its
        contributions, one pair per batch, in a single precomp message
        whose run is the byte column precompute_round built, as it is.
        The message also carries the sender's live round ids, the one run
        [first, first new round) or none, in its live_rounds field. The
        receiver checks the header (first round, batch count, contributor)
        and that live_rounds names no id at or past the first round,
        before any holder changes. Once every contribution has arrived,
        each holder retires every round below the highest first live round
        (spss.retired_rounds; a reconstruction spends rounds at the t
        holders it contacts only) with HolderStore.retire, then saves.
        That one save erases the retired rounds and writes the new stock;
        a holder that crashes before it reopens with its record from
        before the precompute. So after a precompute every holder
        holds the same live rounds. Returns the new round ids, a range.
        """
        sets = {j: self.holder_stores[j].get_secret(sid)
                for j in self.params.holder_indices}
        # precompute_round refuses the round before any send unless every
        # holder agrees on this id
        start = sets[1].next_round
        batches = self.params.batch_count(rounds)
        width = self.params.field.byte_width
        live = {j: _live_run(sets[j]) for j in sets}
        reported = {j: [] for j in sets}  # live runs each holder was sent

        def deliver(d, j, body):
            header = (sid, start, batches, d)
            held, values = self._send(self._holder_ep(d), self._holder_ep(j),
                                      "precomp", header, live[d], body.raw)
            if held and held[-1][1] > start:
                raise ProtocolError(
                    "holder %d reports live round %d at or past first "
                    "round %d" % (d, held[-1][1] - 1, start))
            reported[j].append(held)
            return Packed(values, width, 2)

        sources = {j: self.net.entropy_source(self._holder_ep(j))
                   for j in sets}
        new_ids = precompute_round(sets, sources, rounds, deliver)
        for j in sets:
            store = self.holder_stores[j]
            store.retire(sid, retired_rounds(sets[j].first, reported[j],
                                             start))
            store.save(sid)
        self.transcript.append("precompute sid=%s rounds=%d first=%d"
                               % (sid.hex(), rounds, start))
        return new_ids

    # -------------------------------------------------------- reconstruction

    def reconstruct_and_release(self, sid: bytes, password_attempt: bytes,
                                subset=None, offline=(),
                                owner_tamper=None,
                                holder_response_tamper=None) -> ReleaseResult:
        """Owner-driven recovery and hand-off to the end user.

        offline holders are never contacted (fewer than the threshold
        left aborts); holder_response_tamper maps holder index to a
        function rewriting its masked values (a cheating holder);
        owner_tamper rewrites the recovered payload before release (a
        cheating owner). Password failure releases nothing, and a
        recon-response holding other than the expected block count aborts
        once every response is in, releasing nothing either. A subset
        that spss.check_subset refuses, or an offline list that
        spss.check_offline refuses, is refused before any message is
        sent, as is a record that a reachable chosen holder fails to read,
        or renewal counts on which the reachable chosen holders differ; a
        valid subset is contacted in the caller's order.
        """
        if sid not in self.owner_receipts:
            raise ProtocolError("owner holds no receipt for %s" % sid.hex())
        t1, byte_length = self.owner_receipts[sid]
        params = self.params
        field = params.field
        tampers = holder_response_tamper or {}
        chosen = None if subset is None else check_subset(subset, params)
        down = check_offline(offline, params)
        live = [j for j in params.holder_indices if j not in down]
        if chosen is None:
            chosen = tuple(live[:params.t_sh])
        missing = [j for j in chosen if j not in live]
        # the chosen holders that are reachable read their records before
        # any send, so a record that fails its check sends nothing, and
        # shares of two renewal epochs never mix in one reconstruction
        sets = {j: self.holder_stores[j].get_secret(sid)
                for j in chosen if j in live}
        if len({s.renewals for s in sets.values()}) > 1:
            raise ProtocolError("holders disagree on renewal history")

        c_len, attempt = self._send(self.OWNER, self.CALCULATOR,
                                    "recon-request", (sid,), byte_length,
                                    password_attempt)

        if missing:
            return self._abort_reconstruction(
                sid, _ABORT_THRESHOLD,
                "requested holders offline: %s" % missing)
        if len(chosen) < params.t_sh:
            return self._abort_reconstruction(
                sid, _ABORT_THRESHOLD,
                "only %d of %d holders reachable" % (len(chosen),
                                                     params.t_sh))

        # phase 1: what can each chosen holder serve? Each live run
        # travels, and the head of the rounds all of them hold is pinned.
        expected_blocks = data_block_count(c_len, params) + 1
        held = []  # each holder's live run, (0, 0) for none
        for j in chosen:
            holder = self._holder_ep(j)
            self._send(self.CALCULATOR, holder, "avail-query", (sid,))
            blocks, runs = self._send(holder, self.CALCULATOR, "avail-reply",
                                      (sid,), sets[j].block_count,
                                      _live_run(sets[j]))
            if blocks != expected_blocks:
                return self._abort_reconstruction(
                    sid, _ABORT_THRESHOLD,
                    "holder %d stores %d blocks, expected %d"
                    % (j, blocks, expected_blocks))
            held.append(runs[0] if runs else (0, 0))

        first = max(a for a, _ in held)
        available = max(0, min(b for _, b in held) - first)
        if available < expected_blocks:
            return self._abort_reconstruction(
                sid, _ABORT_PRECOMPUTATION,
                "%d masking rounds available, %d blocks to serve"
                % (available, expected_blocks))
        pinned = [(first, first + expected_blocks)]

        # phase 2: masked responses
        try:
            pw_element = password_to_element(attempt, field)
        except ConfigurationError:
            return self._abort_reconstruction(
                sid, _ABORT_AUTHENTICATOR, "unusable password attempt")
        requests = spss_request(pw_element, chosen, params,
                                self.net.entropy_source(self.CALCULATOR),
                                rounds=pinned)
        width = field.byte_width
        responses = []
        for j in chosen:
            holder = self._holder_ep(j)
            members, pw_share, runs = self._send(
                self.CALCULATOR, holder, "recon-ask", (sid,), bytes(chosen),
                requests[j].password_share, pinned)
            response = self.holder_stores[j].respond(
                sid, SpssRequest(tuple(members), pw_share, runs))
            values = response.values.raw
            if j in tampers:
                values = column(tampers[j](tuple(response.values)), width)
            (got,) = self._send(holder, self.CALCULATOR, "recon-response",
                                (sid,), values)
            responses.append(MaskedResponse(j, Packed(got, width)))
        for response in responses:  # spss_recover takes this count as given
            if len(response.values) != expected_blocks:
                return self._abort_reconstruction(
                    sid, _ABORT_THRESHOLD,
                    "holder %d returned %d values, expected %d"
                    % (response.holder, len(response.values),
                       expected_blocks))

        try:
            recovered = spss_recover(responses, pw_element, params,
                                     byte_length=c_len)
        except PasswordFailureError:
            self._send_abort(sid, _ABORT_AUTHENTICATOR)
            self._verdict(sid, Phase.RECONSTRUCTION, Outcome.FAIL,
                          "authenticator mismatch, nothing released")
            return ReleaseResult(sid, Outcome.FAIL,
                                 "authenticator mismatch", None)

        (released,) = self._send(self.CALCULATOR, self.OWNER, "recon-result",
                                 (sid,), recovered)
        if owner_tamper is not None:
            released = bytes(owner_tamper(released))

        e_t1, e_data = self._send(self.OWNER, self.END_USER, "release",
                                  (sid,), t1, released)
        self.end_user_received[sid] = (e_data, e_t1)

        self._verdict(sid, Phase.RECONSTRUCTION, Outcome.SUCCESS,
                      "released %d bytes" % len(released))
        return ReleaseResult(sid, Outcome.SUCCESS, "released", released)

    def _send_abort(self, sid: bytes, reason: int):
        (got,) = self._send(self.CALCULATOR, self.OWNER, "abort-notice",
                            (sid,), reason)
        if got not in _ABORT_REASONS:
            raise ProtocolError("abort notice with unknown reason %d" % got)

    def _abort_reconstruction(self, sid: bytes, reason: int,
                              detail: str) -> ReleaseResult:
        self._send_abort(sid, reason)
        self._verdict(sid, Phase.RECONSTRUCTION, Outcome.ABORT, detail)
        return ReleaseResult(sid, Outcome.ABORT, detail, None)

    # ------------------------------------------------------- integrity check

    def integrity_check(self, sid: bytes, claim_data: "bytes | None" = None,
                        claim_t1: "int | None" = None) -> VerdictEvent:
        """End user asks whether what it received is what was registered.

        The claimed payload travels to the calculator, which recomputes
        the tag under its retained seed and forwards only the tag to the
        verifier, which applies the integrity rule. A timestamp the
        calculator has no record of is a protocol error.
        """
        claim_data, claim_t1 = self._claim(sid, claim_data, claim_t1)
        c_t1, c_data = self._send(self.END_USER, self.CALCULATOR,
                                  "check-request", (sid,), claim_t1,
                                  claim_data)
        t1_stored, seed = self.calculator_store.get(sid)
        if t1_stored != c_t1:
            raise ProtocolError(
                "calculator has no tag record for (%s, t1=%d)"
                % (sid.hex(), c_t1))
        tag2 = recompute_tag(seed, _stamped(c_t1, c_data))
        row, v_tag = self._compare(self.CALCULATOR, "check-tag", sid, c_t1,
                                   tag2.to_bytes())
        if row is None:
            outcome, detail = Outcome.FAIL, "no verifier record"
        elif row.tag != v_tag:
            outcome, detail = Outcome.FAIL, "tag mismatch"
        elif row.t1 > row.t2:
            outcome, detail = (Outcome.FAIL,
                               "claimed time is after the recorded time")
        else:
            outcome, detail = Outcome.SUCCESS, "tag match and t1 <= t2"
        return self._announce(sid, Phase.INTEGRITY_CHECK, outcome, detail)

    # ------------------------------------------------------------ refutation

    def refute(self, sid: bytes, claim_data: "bytes | None" = None,
               claim_t1: "int | None" = None) -> VerdictEvent:
        """Owner disputes a claimed delivery (id, t1, data).

        The calculator recomputes the claim's tag as in integrity_check,
        and the verifier applies refutation's mapping (module docstring).
        """
        claim_data, claim_t1 = self._claim(sid, claim_data, claim_t1)
        c_t1, c_data = self._send(self.OWNER, self.CALCULATOR,
                                  "refute-request", (sid,), claim_t1,
                                  claim_data)
        try:
            _t1_stored, seed = self.calculator_store.get(sid)
        except ProtocolError:
            return self._announce(sid, Phase.REFUTATION, Outcome.ABORT,
                                  "calculator holds no tag seed")
        tag2 = recompute_tag(seed, _stamped(c_t1, c_data))
        row, v_tag = self._compare(self.CALCULATOR, "refute-tag", sid, c_t1,
                                   tag2.to_bytes())
        if row is None:
            outcome, detail = (Outcome.ABORT,
                               "no verifier record, cannot adjudicate")
        elif row.tag != v_tag:
            outcome, detail = Outcome.SUCCESS, "claim refuted: tag differs"
        else:
            outcome, detail = Outcome.FAIL, "claim is authentic"
        return self._announce(sid, Phase.REFUTATION, outcome, detail)

    # --------------------------------------------------------------- renewal

    def renew(self, sid: bytes) -> RenewalReport:
        """One verifiable renewal round over every data-share track.

        renewal_round runs the round. Each holder sends every other holder
        its coefficient commitments and an evaluation pair per track;
        every holder verifies everything it received, and a single
        accusation aborts the round with no share changed anywhere. The
        pairs go padded. The renew-commits body, being Pedersen
        commitments, crosses in the clear beside a digest envelope of
        2 * tag_bits key bits, 512 by default (Transport.send); a body
        that does not match its digest raises ChannelIntegrityError with
        no share changed. A message whose header names another secret,
        round, sender or track count raises ProtocolError with no share
        changed. The password shares are untouched: renewal re-randomizes
        the stored payload sharings only. Holders that disagree on the
        track count or on the renewal count, and a renewal count the
        records' u32 cannot advance, are refused before anything is sent.
        """
        group = self.renewal_group
        if group is None:
            raise ConfigurationError("no renewal group configured")
        if not self._group_checked:
            group.validate()
            if group.q != self.params.field.q:
                raise ConfigurationError(
                    "renewal group order %d does not match the share field"
                    % group.q)
            self._group_checked = True
        params = self.params
        degree = params.data_degree
        width, p_width = params.field.byte_width, self.codec.sizes["P"]
        holders = list(params.holder_indices)

        sets = {j: self.holder_stores[j].get_secret(sid) for j in holders}
        tracks = {s.block_count for s in sets.values()}
        if len(tracks) != 1:
            raise ProtocolError("holders disagree on the track count")
        n_tracks = tracks.pop()
        counts = {sets[j].renewals for j in holders}
        if len(counts) != 1:
            raise ProtocolError("holders disagree on renewal history")
        round_no = counts.pop()  # rounds are numbered 0, 1, ... in turn
        if round_no >= 0xFFFFFFFF:  # the count is stored as a u32
            raise ProtocolError("%s has had the most renewal rounds a "
                                "record counts" % sid.hex())

        def deliver(d, commitments, pairs):
            # each holder keeps the bytes it received, as Packed views
            header = (sid, round_no, d, n_tracks)
            commit_msg = self.codec.encode(
                "renew-commits", *header,
                column([eps for track in commitments for eps in track],
                       p_width))
            received = {}
            for j in holders:
                if j == d:
                    continue
                (commits,) = self._deliver(
                    self._holder_ep(d), self._holder_ep(j),
                    "renew-commits", commit_msg, header)
                (arrived,) = self._send(
                    self._holder_ep(d), self._holder_ep(j), "renew-pairs",
                    header, column([v for pair in pairs[j] for v in pair],
                                   width))
                received[j] = (Packed(commits, p_width, degree),
                               Packed(arrived, width, 2))
            return received

        def check_source(received):
            # Bits no node's pool pays for and no message carries, drawn
            # once everything has arrived: a retried round that received
            # other commitments gets other bits.
            digest = hashlib.sha256()
            for commits in received:
                digest.update(commits.raw)
            return SeededEntropy(self.net.master, "renewal-check|%s|%d|%s"
                                 % (sid.hex(), round_no, digest.hexdigest()))

        sources = {j: self.net.entropy_source(self._holder_ep(j))
                   for j in holders}
        outcome = renewal_round({j: Packed(sets[j].shares, width)
                                 for j in holders},
                                degree, group, sources, deliver,
                                check_source)
        if not outcome.accepted:
            self.transcript.append(
                "renewal sid=%s round=%d rejected accusations=%d"
                % (sid.hex(), round_no, len(outcome.accusations)))
            return RenewalReport(sid, round_no, False, outcome.accusations,
                                 n_tracks)

        for j in holders:
            self.holder_stores[j].apply_renewal(sid, outcome.new_shares[j])
        self.transcript.append("renewal sid=%s round=%d accepted tracks=%d"
                               % (sid.hex(), round_no, n_tracks))
        return RenewalReport(sid, round_no, True, (), n_tracks)
