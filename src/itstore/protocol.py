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
key spent). Message payloads are length-checked binary with a one-byte
type code:

    code  kind              layout after the code byte
    ----  ----------------  -------------------------------------------
    0x01  register-data     u16 pw_len, pw, u32 data_len, data
    0x02  shares            sid16, u32 n_blocks, n_blocks*W share,
                            W password_share
    0x03  tag-report        sid16, u64 t1, k/8 tag
    0x04  receipt           sid16, u64 t1
    0x05  precomp           sid16, u32 first_round, u32 n_rounds,
                            u8 contributor, n_rounds*(W r, W z)
    0x06  recon-request     sid16, u32 byte_length, u16 pw_len, pw
    0x07  avail-query       sid16
    0x08  avail-reply       sid16, u32 n_blocks, u32 n_ids, n_ids*u32
    0x09  recon-ask         sid16, u8 subset_len, subset bytes,
                            W password_share, u32 n_ids, n_ids*u32
    0x0a  recon-response    sid16, u32 n_values, n_values*W
    0x0b  recon-result      sid16, u32 data_len, data
    0x0c  release           sid16, u64 t1, u32 data_len, data
    0x0d  check-request     sid16, u64 t1, u32 data_len, data
    0x0e  check-tag         sid16, u64 t1, k/8 tag
    0x0f  verdict           sid16, u8 phase, u8 outcome
    0x10  refute-request    sid16, u64 t1, u32 data_len, data
    0x11  refute-tag        sid16, u64 t1, k/8 tag
    0x12  cs-tag            sid16, u64 t1, tag_bytes digest
    0x13  cs-check          sid16, u64 t1, tag_bytes digest
    0x14  abort-notice      sid16, u8 reason
    0x15  renew-commits     sid16, u32 round, u8 sender, u32 n_tracks,
                            n_tracks*degree*P commitments
    0x16  renew-pairs       sid16, u32 round, u8 sender, u32 n_tracks,
                            n_tracks*(Q s1, Q s2)

W is the share field's encoding width, P and Q the commitment group's
modulus widths. Timestamps are per-role logical clocks (network time plus
a configurable per-role skew); t1 is stamped by the calculator at
registration, t2 by the verifier when the tag row is recorded, and the
verifier's acceptance rule is tag equality plus t1 <= t2 on its own
record.

Key exhaustion during registration aborts before any share leaves the
calculator: the full outgoing message list is checked against simulated
channel, stream and relay budgets first. A reconstruction that cannot
gather the threshold number of holders, or spends its precomputed masks,
aborts the session without releasing anything; registration records are
untouched by such aborts.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import (
    ChannelIntegrityError,
    ConfigurationError,
    KeySupplyError,
    PasswordFailureError,
    ProtocolError,
    ReconstructionAbortError,
)
from .field import FieldElement, random_polynomial
from .keynet import DEFAULT_TOPOLOGY, KeyNetwork
from .mac import (
    DEFAULT_K,
    MacScheme,
    MacTag,
    au2_hash,
    cr_hash,
    make_seed,
    recompute_tag,
)
from .renewal import (
    MERSENNE127_GROUP,
    Accusation,
    RenewalGroupConfig,
    RenewalPacket,
    gen_renewal,
    verify_renewal_share,
)
from .spss import (
    HolderShareSet,
    MaskedResponse,
    PrecomputedTuple,
    SpssParams,
    SpssRequest,
    data_block_count,
    password_to_element,
    spss_recover,
    spss_register,
    spss_request,
)
from .stores import CalculatorStore, HolderStore, VerifierRecord, VerifierStore

__all__ = [
    "Phase",
    "Outcome",
    "VerdictEvent",
    "ReleaseResult",
    "RenewalReport",
    "RolePlacement",
    "Transport",
    "TpvSession",
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
_PHASE_FROM_CODE = {v: k for k, v in _PHASE_CODE.items()}
_OUTCOME_CODE = {o: i + 1 for i, o in enumerate(Outcome)}
_OUTCOME_FROM_CODE = {v: k for k, v in _OUTCOME_CODE.items()}

# message type codes
_REGISTER_DATA = 0x01
_SHARES = 0x02
_TAG_REPORT = 0x03
_RECEIPT = 0x04
_PRECOMP = 0x05
_RECON_REQUEST = 0x06
_AVAIL_QUERY = 0x07
_AVAIL_REPLY = 0x08
_RECON_ASK = 0x09
_RECON_RESPONSE = 0x0A
_RECON_RESULT = 0x0B
_RELEASE = 0x0C
_CHECK_REQUEST = 0x0D
_CHECK_TAG = 0x0E
_VERDICT = 0x0F
_REFUTE_REQUEST = 0x10
_REFUTE_TAG = 0x11
_CS_TAG = 0x12
_CS_CHECK = 0x13
_ABORT_NOTICE = 0x14
_RENEW_COMMITS = 0x15
_RENEW_PAIRS = 0x16

_SID_BYTES = 16

# abort-notice reason codes
_ABORT_THRESHOLD = 1
_ABORT_PRECOMPUTATION = 2
_ABORT_AUTHENTICATOR = 3


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

    owner: str = "Ohtemachi-1"
    end_user: str = "Ohtemachi-1"
    calculator: str = "Koganei-1"
    verifier: str = "Koganei-2"
    holders: tuple = ("Koganei-1", "Koganei-2", "Koganei-3", "Koganei-4")


class _Reader:
    """Strict cursor over a message body; short reads are protocol errors."""

    __slots__ = ("raw", "pos")

    def __init__(self, raw: bytes, pos: int = 0):
        self.raw = raw
        self.pos = pos

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise ProtocolError("truncated protocol message")
        out = self.raw[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def element(self, width: int) -> int:
        return int.from_bytes(self.take(width), "big")

    def done(self):
        if self.pos != len(self.raw):
            raise ProtocolError("trailing bytes in protocol message")


def _expect(reader: _Reader, code: int) -> None:
    got = reader.u8()
    if got != code:
        raise ProtocolError("expected message code %#04x, got %#04x"
                            % (code, got))


def _renew_header(raw: bytes, code: int, sid: bytes, round_no: int,
                  sender: int, n_tracks: int) -> _Reader:
    """Reader past a renew-commits/renew-pairs header, which must name
    the secret, round, sender and track count the recipient expects."""
    reader = _Reader(raw)
    _expect(reader, code)
    got = (reader.take(_SID_BYTES), reader.u32(), reader.u8(), reader.u32())
    if got != (sid, round_no, sender, n_tracks):
        raise ProtocolError("renewal header mismatch: expected sid=%s "
                            "round=%d sender=%d tracks=%d"
                            % (sid.hex(), round_no, sender, n_tracks))
    return reader


class Transport:
    """Moves one payload between two role endpoints and keeps the books.

    Cross-node payloads are encrypted/authenticated by the key network;
    co-located endpoints hand bytes over directly. Every delivery appends
    one transcript line and bumps a (receiver, secret, kind) byte counter,
    which is what the leakage budgets are asserted against.

    advance_on_exhaustion_ms > 0 lets a send wait for key material by
    advancing simulated time instead of failing, up to max_waits steps.
    """

    def __init__(self, net: KeyNetwork, transcript: list,
                 advance_on_exhaustion_ms: int = 0, max_waits: int = 100_000):
        self.net = net
        self.transcript = transcript
        self.advance_on_exhaustion_ms = advance_on_exhaustion_ms
        self.max_waits = max_waits
        self.counts = {}  # (receiver, sid hex, kind) -> delivered bytes
        self.tamper = None  # one-shot hook: SecureEnvelope -> SecureEnvelope

    # -- byte accounting ----------------------------------------------------

    def _count(self, receiver: str, sid_hex: str, kind: str, n: int):
        key = (receiver, sid_hex, kind)
        self.counts[key] = self.counts.get(key, 0) + n

    def received_bytes(self, receiver: str, sid: "bytes | None" = None,
                       kind: "str | None" = None) -> int:
        """Total payload bytes delivered to an endpoint, optionally
        filtered by secret and message kind."""
        want_sid = sid.hex() if sid is not None else None
        total = 0
        for (rcv, s, k), n in self.counts.items():
            if rcv != receiver:
                continue
            if want_sid is not None and s != want_sid:
                continue
            if kind is not None and k != kind:
                continue
            total += n
        return total

    # -- delivery -----------------------------------------------------------

    def _ensure(self, node_a: str, node_b: str, bits: int):
        waits = 0
        while True:
            try:
                self.net.ensure_pair_key(node_a, node_b, bits)
                return
            except KeySupplyError:
                if not self.advance_on_exhaustion_ms or waits >= self.max_waits:
                    raise
                waits += 1
                self.net.advance(self.advance_on_exhaustion_ms)

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
            cost = self.net.message_key_cost(sender, receiver, len(payload))
            self._ensure(node_s, node_r, cost)
            envelope = self.net.secure_send(sender, receiver, payload)
            if self.tamper is not None:
                hook, self.tamper = self.tamper, None
                envelope = hook(envelope)
            try:
                delivered = self.net.secure_recv(envelope)
            except ChannelIntegrityError:
                self.transcript.append(
                    "drop %s->%s kind=%s bytes=%d sid=%s reason=channel-integrity"
                    % (sender, receiver, kind, len(payload), sid_hex))
                raise
            self.transcript.append(
                "otp %s->%s kind=%s bytes=%d sha=%s sid=%s seq=%d cost=%d"
                % (sender, receiver, kind, len(payload), digest, sid_hex,
                   envelope.seq, cost))
        self._count(receiver, sid_hex, kind, len(delivered))
        return delivered


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
                 scheme: MacScheme = MacScheme.TOEPLITZ, k: int = DEFAULT_K,
                 placement: "RolePlacement | None" = None,
                 clock_skews: "dict | None" = None,
                 renewal_group: "RenewalGroupConfig | None" = None,
                 cs_tag_bits: int = 512,
                 master_seed: bytes = b"tpv-session",
                 advance_on_exhaustion_ms: int = 0):
        self.params = params if params is not None else SpssParams()
        self.scheme = scheme
        self.k = int(k)
        self.placement = placement if placement is not None else RolePlacement()
        self.skews = dict(clock_skews or {})
        if cs_tag_bits % 8 or not 8 <= cs_tag_bits <= 512:
            raise ConfigurationError(
                "cs_tag_bits must be a multiple of 8 in [8, 512]")
        self.cs_tag_bits = cs_tag_bits

        if renewal_group is None and self.params.field.q == (1 << 127) - 1:
            renewal_group = MERSENNE127_GROUP
        self.renewal_group = renewal_group
        self._group_checked = False

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

        root = Path(storage_root)
        self.calculator_store = CalculatorStore(root / "calculator",
                                                scheme=self.scheme, k=self.k)
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

    def advance(self, ms: int):
        self.net.advance(ms)

    def transcript_text(self) -> str:
        return "\n".join(self.transcript) + "\n"

    def received_bytes(self, endpoint: str, sid: "bytes | None" = None,
                       kind: "str | None" = None) -> int:
        return self.transport.received_bytes(endpoint, sid, kind)

    def verifier_registration_budget(self) -> int:
        """Exact bytes the verifier receives per registration: one code
        byte, the secret id, the timestamp and the tag."""
        return 1 + _SID_BYTES + 8 + self.k // 8

    def _verdict(self, sid: bytes, phase: Phase, outcome: Outcome,
                 detail: str = "") -> VerdictEvent:
        event = VerdictEvent(sid, phase, outcome, detail)
        self.verdicts.append(event)
        self.transcript.append(
            "verdict sid=%s phase=%s outcome=%s detail=%s"
            % (sid.hex(), phase.value, outcome.value, detail or "-"))
        return event

    def _announce(self, sid: bytes, phase: Phase, outcome: Outcome):
        """Verifier tells both interested parties the verdict."""
        payload = (bytes([_VERDICT]) + sid
                   + bytes([_PHASE_CODE[phase], _OUTCOME_CODE[outcome]]))
        for party in (self.OWNER, self.END_USER):
            delivered = self.transport.send(self.VERIFIER, party, "verdict",
                                            payload, sid=sid)
            r = _Reader(delivered)
            _expect(r, _VERDICT)
            r.take(_SID_BYTES)
            got_phase = _PHASE_FROM_CODE.get(r.u8())
            got_outcome = _OUTCOME_FROM_CODE.get(r.u8())
            r.done()
            if got_phase is not phase or got_outcome is not outcome:
                raise ProtocolError("verdict announcement corrupted")

    def _plan_or_abort(self, sid: bytes, messages) -> None:
        """Refuse a registration atomically when keys cannot cover it."""
        waits = 0
        while True:
            try:
                self.net.check_sendable(messages)
                return
            except KeySupplyError as exc:
                wait_ms = self.transport.advance_on_exhaustion_ms
                if not wait_ms or waits >= self.transport.max_waits:
                    self._verdict(sid, Phase.REGISTRATION, Outcome.ABORT,
                                  "key supply exhausted: %s" % exc)
                    raise
                waits += 1
                self.net.advance(wait_ms)

    # ---------------------------------------------------------- registration

    def register(self, data: bytes, password: bytes):
        """Owner -> calculator -> {holders, verifier}: split, tag, record.

        Returns (secret_id, t1). Raises KeySupplyError after recording an
        abort verdict if the outgoing shares cannot all be paid for; in
        that case nothing has left the calculator.
        """
        if not data:
            raise ConfigurationError("cannot register empty data")
        field = self.params.field
        width = field.byte_width

        payload = (bytes([_REGISTER_DATA])
                   + struct.pack(">H", len(password)) + password
                   + struct.pack(">I", len(data)) + data)
        delivered = self.transport.send(self.OWNER, self.CALCULATOR,
                                        "register-data", payload)

        # calculator side
        reader = _Reader(delivered)
        _expect(reader, _REGISTER_DATA)
        pw = reader.take(reader.u16())
        body = reader.take(reader.u32())
        reader.done()

        t1 = self.clock(self.CALCULATOR)
        sid = self.net.supply_randomness(self.CALCULATOR, _SID_BYTES * 8)
        sid = sid.to_bytes(_SID_BYTES, "big")
        entropy = self.net.entropy_source(self.CALCULATOR)

        pw_element = password_to_element(pw, field)
        seed = make_seed(self.scheme, self.k, entropy,
                         width_bits=64 + (8 + len(body)) * 8)
        tag = au2_hash(seed, struct.pack(">Q", t1) + body)
        holder_sets, _secret = spss_register(body, pw_element, self.params,
                                             entropy, t1)

        share_msgs = {}
        for j in self.params.holder_indices:
            ss = holder_sets[j]
            parts = [bytes([_SHARES]), sid,
                     struct.pack(">I", ss.block_count)]
            parts.extend(field.encode(v) for v in ss.data_shares)
            parts.append(field.encode(ss.password_share))
            share_msgs[j] = b"".join(parts)
        tag_msg = (bytes([_TAG_REPORT]) + sid + struct.pack(">Q", t1)
                   + tag.to_bytes())
        receipt_msg = bytes([_RECEIPT]) + sid + struct.pack(">Q", t1)

        plan = [(self.CALCULATOR, self._holder_ep(j), len(share_msgs[j]))
                for j in self.params.holder_indices]
        plan.append((self.CALCULATOR, self.VERIFIER, len(tag_msg)))
        plan.append((self.CALCULATOR, self.OWNER, len(receipt_msg)))
        self._plan_or_abort(sid, plan)

        for j in self.params.holder_indices:
            delivered = self.transport.send(
                self.CALCULATOR, self._holder_ep(j), "shares",
                share_msgs[j], sid=sid)
            r = _Reader(delivered)
            _expect(r, _SHARES)
            got_sid = r.take(_SID_BYTES)
            count = r.u32()
            shares = tuple(r.element(width) for _ in range(count))
            pw_share = r.element(width)
            r.done()
            self.holder_stores[j].put_secret(
                got_sid, HolderShareSet(j, self.params, shares, pw_share))

        delivered = self.transport.send(self.CALCULATOR, self.VERIFIER,
                                        "tag-report", tag_msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _TAG_REPORT)
        v_sid = r.take(_SID_BYTES)
        v_t1 = r.u64()
        v_tag = MacTag.from_bytes(r.take(self.k // 8))
        r.done()
        t2 = self.clock(self.VERIFIER)
        self.verifier_store.append(VerifierRecord(v_sid, v_t1, v_tag, t2))

        self.calculator_store.put(sid, t1, seed)
        budget = len(sid) + 8 + seed.byte_count
        if self.calculator_store.record_bytes(sid) != budget:
            raise ProtocolError("calculator record exceeds its byte budget")

        delivered = self.transport.send(self.CALCULATOR, self.OWNER,
                                        "receipt", receipt_msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _RECEIPT)
        o_sid = r.take(_SID_BYTES)
        o_t1 = r.u64()
        r.done()
        self.owner_receipts[o_sid] = (o_t1, len(data))

        self._verdict(sid, Phase.REGISTRATION, Outcome.SUCCESS,
                      "blocks=%d" % holder_sets[1].block_count)
        return sid, t1

    # ---------------------------------------------------------- precompute

    def precompute(self, sid: bytes, rounds: int = 1) -> tuple:
        """Holders jointly stock `rounds` masking tuples for one secret.

        Each holder contributes one random sharing and one zero sharing
        per round, sending every other holder its evaluations in a single
        batched message. Returns the new round ids.
        """
        if rounds < 1:
            raise ConfigurationError("need at least one precompute round")
        params = self.params
        field = params.field
        width = field.byte_width
        sets = {j: self.holder_stores[j].get_secret(sid)
                for j in params.holder_indices}
        starts = {max(s.tuples) + 1 if s.tuples else 0 for s in sets.values()}
        if len(starts) != 1:
            raise ProtocolError("holders disagree on the next round id")
        start = starts.pop()

        # pending[j][d] = list of (r, z) from contributor d, one per round
        pending = {j: {} for j in params.holder_indices}
        for d in params.holder_indices:
            src = self.net.entropy_source(self._holder_ep(d))
            polys = []
            for _ in range(rounds):
                r_poly = random_polynomial(params.password_degree,
                                           field.random_element(src), src)
                z_poly = random_polynomial(params.data_degree,
                                           FieldElement(0, field), src)
                polys.append((r_poly, z_poly))
            for j in params.holder_indices:
                evals = [(r_poly.evaluate(j), z_poly.evaluate(j))
                         for r_poly, z_poly in polys]
                if j == d:
                    pending[j][d] = evals
                    continue
                parts = [bytes([_PRECOMP]), sid,
                         struct.pack(">II", start, rounds), bytes([d])]
                for r_val, z_val in evals:
                    parts.append(field.encode(r_val))
                    parts.append(field.encode(z_val))
                delivered = self.transport.send(
                    self._holder_ep(d), self._holder_ep(j), "precomp",
                    b"".join(parts), sid=sid)
                rd = _Reader(delivered)
                _expect(rd, _PRECOMP)
                rd.take(_SID_BYTES)
                got_start = rd.u32()
                got_rounds = rd.u32()
                contributor = rd.u8()
                if got_start != start or got_rounds != rounds:
                    raise ProtocolError("precompute round window mismatch")
                pending[j][contributor] = [
                    (rd.element(width), rd.element(width))
                    for _ in range(got_rounds)
                ]
                rd.done()

        new_ids = tuple(range(start, start + rounds))
        for j in params.holder_indices:
            share_set = sets[j]
            for offset, rid in enumerate(new_ids):
                r_shares = tuple(pending[j][d][offset][0]
                                 for d in params.holder_indices)
                z_shares = tuple(pending[j][d][offset][1]
                                 for d in params.holder_indices)
                share_set.tuples[rid] = PrecomputedTuple(rid, r_shares,
                                                         z_shares)
            self.holder_stores[j].save(sid)
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
        cheating owner). Password failure releases nothing.
        """
        if sid not in self.owner_receipts:
            raise ProtocolError("owner holds no receipt for %s" % sid.hex())
        t1, byte_length = self.owner_receipts[sid]
        params = self.params
        field = params.field
        width = field.byte_width
        tampers = holder_response_tamper or {}

        request_msg = (bytes([_RECON_REQUEST]) + sid
                       + struct.pack(">I", byte_length)
                       + struct.pack(">H", len(password_attempt))
                       + password_attempt)
        delivered = self.transport.send(self.OWNER, self.CALCULATOR,
                                        "recon-request", request_msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _RECON_REQUEST)
        c_sid = r.take(_SID_BYTES)
        c_len = r.u32()
        attempt = r.take(r.u16())
        r.done()

        live = [j for j in params.holder_indices if j not in set(offline)]
        if subset is not None:
            chosen = tuple(subset)
            if (len(set(chosen)) != params.t_sh
                    or any(j not in params.holder_indices for j in chosen)):
                raise ProtocolError(
                    "reconstruction needs %d distinct holder indices"
                    % params.t_sh)
            missing = [j for j in chosen if j not in live]
            if missing:
                return self._abort_reconstruction(
                    sid, _ABORT_THRESHOLD,
                    "requested holders offline: %s" % missing)
        else:
            chosen = tuple(live[:params.t_sh])
        if len(chosen) < params.t_sh:
            return self._abort_reconstruction(
                sid, _ABORT_THRESHOLD,
                "only %d of %d holders reachable" % (len(chosen),
                                                     params.t_sh))

        # phase 1: what can each chosen holder serve?
        expected_blocks = data_block_count(c_len, params) + 1
        id_sets = []
        for j in chosen:
            q_msg = bytes([_AVAIL_QUERY]) + c_sid
            delivered = self.transport.send(self.CALCULATOR,
                                            self._holder_ep(j),
                                            "avail-query", q_msg, sid=sid)
            qr = _Reader(delivered)
            _expect(qr, _AVAIL_QUERY)
            h_sid = qr.take(_SID_BYTES)
            qr.done()
            share_set = self.holder_stores[j].get_secret(h_sid)
            rounds = share_set.unconsumed_rounds()
            parts = [bytes([_AVAIL_REPLY]), h_sid,
                     struct.pack(">II", share_set.block_count, len(rounds))]
            parts.extend(struct.pack(">I", rid) for rid in rounds)
            delivered = self.transport.send(self._holder_ep(j),
                                            self.CALCULATOR, "avail-reply",
                                            b"".join(parts), sid=sid)
            ar = _Reader(delivered)
            _expect(ar, _AVAIL_REPLY)
            ar.take(_SID_BYTES)
            blocks = ar.u32()
            n_ids = ar.u32()
            ids = [ar.u32() for _ in range(n_ids)]
            ar.done()
            if blocks != expected_blocks:
                return self._abort_reconstruction(
                    sid, _ABORT_THRESHOLD,
                    "holder %d stores %d blocks, expected %d"
                    % (j, blocks, expected_blocks))
            id_sets.append(set(ids))

        common = sorted(set.intersection(*id_sets))
        if len(common) < expected_blocks:
            return self._abort_reconstruction(
                sid, _ABORT_PRECOMPUTATION,
                "%d masking rounds available, %d blocks to serve"
                % (len(common), expected_blocks))
        tuple_ids = tuple(common[:expected_blocks])

        # phase 2: masked responses
        try:
            pw_element = password_to_element(attempt, field)
        except ConfigurationError:
            return self._abort_reconstruction(
                sid, _ABORT_AUTHENTICATOR, "unusable password attempt")
        requests = spss_request(pw_element, chosen, params,
                                self.net.entropy_source(self.CALCULATOR),
                                tuple_ids=tuple_ids)
        responses = []
        for j in chosen:
            req = requests[j]
            parts = [bytes([_RECON_ASK]), c_sid, bytes([len(chosen)]),
                     bytes(chosen), field.encode(req.password_share),
                     struct.pack(">I", len(tuple_ids))]
            parts.extend(struct.pack(">I", rid) for rid in tuple_ids)
            delivered = self.transport.send(self.CALCULATOR,
                                            self._holder_ep(j), "recon-ask",
                                            b"".join(parts), sid=sid)
            kr = _Reader(delivered)
            _expect(kr, _RECON_ASK)
            h_sid = kr.take(_SID_BYTES)
            members = tuple(kr.take(kr.u8()))
            pw_share = kr.element(width)
            ids = tuple(kr.u32() for _ in range(kr.u32()))
            kr.done()
            response = self.holder_stores[j].respond(
                h_sid, SpssRequest(members, pw_share, ids))
            values = response.values
            if j in tampers:
                values = tuple(tampers[j](values))
            parts = [bytes([_RECON_RESPONSE]), h_sid,
                     struct.pack(">I", len(values))]
            parts.extend(field.encode(v) for v in values)
            delivered = self.transport.send(self._holder_ep(j),
                                            self.CALCULATOR,
                                            "recon-response",
                                            b"".join(parts), sid=sid)
            rr = _Reader(delivered)
            _expect(rr, _RECON_RESPONSE)
            rr.take(_SID_BYTES)
            got = tuple(rr.element(width) for _ in range(rr.u32()))
            rr.done()
            responses.append(MaskedResponse(j, got))

        try:
            recovered = spss_recover(responses, pw_element, params,
                                     byte_length=c_len)
        except PasswordFailureError:
            self._send_abort(sid, _ABORT_AUTHENTICATOR)
            self._verdict(sid, Phase.RECONSTRUCTION, Outcome.FAIL,
                          "authenticator mismatch, nothing released")
            return ReleaseResult(sid, Outcome.FAIL,
                                 "authenticator mismatch", None)
        except ReconstructionAbortError as exc:
            return self._abort_reconstruction(sid, _ABORT_THRESHOLD, str(exc))

        result_msg = (bytes([_RECON_RESULT]) + sid
                      + struct.pack(">I", len(recovered)) + recovered)
        delivered = self.transport.send(self.CALCULATOR, self.OWNER,
                                        "recon-result", result_msg, sid=sid)
        orr = _Reader(delivered)
        _expect(orr, _RECON_RESULT)
        orr.take(_SID_BYTES)
        released = orr.take(orr.u32())
        orr.done()
        if owner_tamper is not None:
            released = bytes(owner_tamper(released))

        if (sid not in self.end_user_received
                and self.transport.received_bytes(self.END_USER, sid=sid)):
            raise ProtocolError(
                "end user already saw bytes for %s before release"
                % sid.hex())
        release_msg = (bytes([_RELEASE]) + sid + struct.pack(">Q", t1)
                       + struct.pack(">I", len(released)) + released)
        delivered = self.transport.send(self.OWNER, self.END_USER, "release",
                                        release_msg, sid=sid)
        er = _Reader(delivered)
        _expect(er, _RELEASE)
        e_sid = er.take(_SID_BYTES)
        e_t1 = er.u64()
        e_data = er.take(er.u32())
        er.done()
        self.end_user_received[e_sid] = (e_data, e_t1)

        self._verdict(sid, Phase.RECONSTRUCTION, Outcome.SUCCESS,
                      "released %d bytes" % len(released))
        return ReleaseResult(sid, Outcome.SUCCESS, "released", released)

    def _send_abort(self, sid: bytes, reason: int):
        payload = bytes([_ABORT_NOTICE]) + sid + bytes([reason])
        self.transport.send(self.CALCULATOR, self.OWNER, "abort-notice",
                            payload, sid=sid)

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
        verifier. A timestamp the calculator has no record of is a
        protocol error; a record the verifier lacks is a plain failed
        verdict.
        """
        if claim_data is None or claim_t1 is None:
            if sid not in self.end_user_received:
                raise ProtocolError(
                    "end user received nothing for %s" % sid.hex())
            got_data, got_t1 = self.end_user_received[sid]
            claim_data = got_data if claim_data is None else claim_data
            claim_t1 = got_t1 if claim_t1 is None else claim_t1

        check_msg = (bytes([_CHECK_REQUEST]) + sid
                     + struct.pack(">Q", claim_t1)
                     + struct.pack(">I", len(claim_data)) + claim_data)
        delivered = self.transport.send(self.END_USER, self.CALCULATOR,
                                        "check-request", check_msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _CHECK_REQUEST)
        c_sid = r.take(_SID_BYTES)
        c_t1 = r.u64()
        c_data = r.take(r.u32())
        r.done()

        t1_stored, seed = self.calculator_store.get(c_sid)
        if t1_stored != c_t1:
            raise ProtocolError(
                "calculator has no tag record for (%s, t1=%d)"
                % (c_sid.hex(), c_t1))
        tag2 = recompute_tag(seed, struct.pack(">Q", c_t1) + c_data)

        tag_msg = (bytes([_CHECK_TAG]) + c_sid + struct.pack(">Q", c_t1)
                   + tag2.to_bytes())
        delivered = self.transport.send(self.CALCULATOR, self.VERIFIER,
                                        "check-tag", tag_msg, sid=sid)
        vr = _Reader(delivered)
        _expect(vr, _CHECK_TAG)
        v_sid = vr.take(_SID_BYTES)
        v_t1 = vr.u64()
        v_tag = MacTag.from_bytes(vr.take(self.k // 8))
        vr.done()

        row = self.verifier_store.find(v_sid, v_t1)
        if row is None:
            outcome, detail = Outcome.FAIL, "no verifier record"
        elif row.tag != v_tag:
            outcome, detail = Outcome.FAIL, "tag mismatch"
        elif v_t1 > row.t2:
            outcome, detail = (Outcome.FAIL,
                               "claimed time is after the recorded time")
        else:
            outcome, detail = Outcome.SUCCESS, "tag match and t1 <= t2"
        self._announce(sid, Phase.INTEGRITY_CHECK, outcome)
        return self._verdict(sid, Phase.INTEGRITY_CHECK, outcome, detail)

    # ------------------------------------------------------------ refutation

    def refute(self, sid: bytes, claim_data: "bytes | None" = None,
               claim_t1: "int | None" = None) -> VerdictEvent:
        """Owner disputes a claimed delivery (id, t1, data).

        Success means the claim is refuted (its tag differs from the
        registered one). Failure means the claim checks out. If either
        referee lacks a matching record the dispute cannot be adjudicated
        and the verdict is an abort.
        """
        if claim_data is None or claim_t1 is None:
            if sid not in self.end_user_received:
                raise ProtocolError(
                    "no delivered claim to dispute for %s" % sid.hex())
            got_data, got_t1 = self.end_user_received[sid]
            claim_data = got_data if claim_data is None else claim_data
            claim_t1 = got_t1 if claim_t1 is None else claim_t1

        refute_msg = (bytes([_REFUTE_REQUEST]) + sid
                      + struct.pack(">Q", claim_t1)
                      + struct.pack(">I", len(claim_data)) + claim_data)
        delivered = self.transport.send(self.OWNER, self.CALCULATOR,
                                        "refute-request", refute_msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _REFUTE_REQUEST)
        c_sid = r.take(_SID_BYTES)
        c_t1 = r.u64()
        c_data = r.take(r.u32())
        r.done()

        try:
            _t1_stored, seed = self.calculator_store.get(c_sid)
        except ProtocolError:
            self._announce(sid, Phase.REFUTATION, Outcome.ABORT)
            return self._verdict(sid, Phase.REFUTATION, Outcome.ABORT,
                                 "calculator holds no tag seed")
        tag2 = recompute_tag(seed, struct.pack(">Q", c_t1) + c_data)

        tag_msg = (bytes([_REFUTE_TAG]) + c_sid + struct.pack(">Q", c_t1)
                   + tag2.to_bytes())
        delivered = self.transport.send(self.CALCULATOR, self.VERIFIER,
                                        "refute-tag", tag_msg, sid=sid)
        vr = _Reader(delivered)
        _expect(vr, _REFUTE_TAG)
        v_sid = vr.take(_SID_BYTES)
        v_t1 = vr.u64()
        v_tag = MacTag.from_bytes(vr.take(self.k // 8))
        vr.done()

        row = self.verifier_store.find(v_sid, v_t1)
        if row is None:
            outcome, detail = (Outcome.ABORT,
                               "no verifier record, cannot adjudicate")
        elif row.tag != v_tag:
            outcome, detail = Outcome.SUCCESS, "claim refuted: tag differs"
        else:
            outcome, detail = Outcome.FAIL, "claim is authentic"
        self._announce(sid, Phase.REFUTATION, outcome)
        return self._verdict(sid, Phase.REFUTATION, outcome, detail)

    # ------------------------------------------------- computational option

    def _cs_digest(self, t1: int, data: bytes) -> bytes:
        return cr_hash(struct.pack(">Q", t1) + data)[:self.cs_tag_bits // 8]

    def cs_register(self, sid: bytes, data: bytes) -> None:
        """Computationally-secure option: the owner hashes (t1 | data)
        itself and files the (possibly truncated) digest with the
        verifier; the calculator keeps nothing extra."""
        if sid not in self.owner_receipts:
            raise ProtocolError("owner holds no receipt for %s" % sid.hex())
        t1, _length = self.owner_receipts[sid]
        digest = self._cs_digest(t1, data)
        msg = bytes([_CS_TAG]) + sid + struct.pack(">Q", t1) + digest
        delivered = self.transport.send(self.OWNER, self.VERIFIER, "cs-tag",
                                        msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _CS_TAG)
        v_sid = r.take(_SID_BYTES)
        v_t1 = r.u64()
        v_digest = r.take(self.cs_tag_bits // 8)
        r.done()
        t2 = self.clock(self.VERIFIER)
        self.verifier_store.append(
            VerifierRecord(v_sid, v_t1, MacTag.from_bytes(v_digest), t2))
        self._verdict(sid, Phase.REGISTRATION, Outcome.SUCCESS,
                      "computational digest filed")

    def cs_check(self, sid: bytes, data: bytes,
                 claim_t1: "int | None" = None) -> VerdictEvent:
        """End user's integrity check in the computational option: it
        hashes its copy and the verifier compares digests directly."""
        if claim_t1 is None:
            if sid not in self.end_user_received:
                raise ProtocolError(
                    "end user received nothing for %s" % sid.hex())
            claim_t1 = self.end_user_received[sid][1]
        digest = self._cs_digest(claim_t1, data)
        msg = bytes([_CS_CHECK]) + sid + struct.pack(">Q", claim_t1) + digest
        delivered = self.transport.send(self.END_USER, self.VERIFIER,
                                        "cs-check", msg, sid=sid)
        r = _Reader(delivered)
        _expect(r, _CS_CHECK)
        v_sid = r.take(_SID_BYTES)
        v_t1 = r.u64()
        v_digest = MacTag.from_bytes(r.take(self.cs_tag_bits // 8))
        r.done()

        row = None
        for rec in self.verifier_store.records():
            if (rec.secret_id == v_sid and rec.t1 == v_t1
                    and rec.tag.k == self.cs_tag_bits):
                row = rec
                break
        if row is None:
            outcome, detail = Outcome.FAIL, "no verifier record"
        elif row.tag != v_digest:
            outcome, detail = Outcome.FAIL, "digest mismatch"
        elif v_t1 > row.t2:
            outcome, detail = (Outcome.FAIL,
                               "claimed time is after the recorded time")
        else:
            outcome, detail = Outcome.SUCCESS, "digest match and t1 <= t2"
        self._announce(sid, Phase.INTEGRITY_CHECK, outcome)
        return self._verdict(sid, Phase.INTEGRITY_CHECK, outcome,
                             "computational: " + detail)

    # --------------------------------------------------------------- renewal

    def renew(self, sid: bytes, pair_tamper=None) -> RenewalReport:
        """One verifiable renewal round over every data-share track.

        Each holder broadcasts coefficient commitments and sends every
        other holder an evaluation pair per track; everyone verifies
        everything, and a single accusation aborts the round with no
        share changed anywhere. pair_tamper(sender, recipient, track,
        (s1, s2)) -> (s1, s2) lets tests model a corrupted contribution.
        A message whose header names another secret, round, sender or
        track count raises ProtocolError with no share changed. Each
        distinct commitment's subgroup check runs once per round.
        The password shares are untouched: renewal re-randomizes the
        stored payload sharings only.
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
        field = params.field
        q_width = field.byte_width
        p_width = (group.p.bit_length() + 7) // 8
        degree = params.data_degree
        holders = list(params.holder_indices)

        sets = {j: self.holder_stores[j].get_secret(sid) for j in holders}
        tracks = {s.block_count for s in sets.values()}
        if len(tracks) != 1:
            raise ProtocolError("holders disagree on the track count")
        n_tracks = tracks.pop()
        rounds_seen = {self.holder_stores[j].renewal_rounds(sid)
                       for j in holders}
        if len(rounds_seen) != 1:
            raise ProtocolError("holders disagree on renewal history")
        history = rounds_seen.pop()
        round_no = (max(history) + 1) if history else 0

        # commitments[d][i] and pairs[j][d][i] as verified by recipient j
        commitments = {}
        pairs = {j: {} for j in holders}
        for d in holders:
            src = self.net.entropy_source(self._holder_ep(d))
            packets = [gen_renewal(d, holders, degree, group, src, round_no)
                       for _ in range(n_tracks)]
            commitments[d] = [p.commitments for p in packets]
            commit_parts = [bytes([_RENEW_COMMITS]), sid,
                            struct.pack(">I", round_no), bytes([d]),
                            struct.pack(">I", n_tracks)]
            for packet in packets:
                for eps in packet.commitments:
                    commit_parts.append(eps.to_bytes(p_width, "big"))
            commit_msg = b"".join(commit_parts)
            for j in holders:
                own = [packet.share_pairs[j] for packet in packets]
                if j == d:
                    pairs[j][d] = (commitments[d], own)
                    continue
                delivered = self.transport.send(
                    self._holder_ep(d), self._holder_ep(j), "renew-commits",
                    commit_msg, sid=sid)
                cr = _renew_header(delivered, _RENEW_COMMITS, sid, round_no,
                                   d, n_tracks)
                seen_commits = [
                    tuple(cr.element(p_width) for _ in range(degree))
                    for _ in range(n_tracks)
                ]
                cr.done()
                pair_parts = [bytes([_RENEW_PAIRS]), sid,
                              struct.pack(">I", round_no), bytes([d]),
                              struct.pack(">I", n_tracks)]
                for track, (s1, s2) in enumerate(own):
                    if pair_tamper is not None:
                        s1, s2 = pair_tamper(d, j, track, (s1, s2))
                    pair_parts.append(s1.to_bytes(q_width, "big"))
                    pair_parts.append(s2.to_bytes(q_width, "big"))
                delivered = self.transport.send(
                    self._holder_ep(d), self._holder_ep(j), "renew-pairs",
                    b"".join(pair_parts), sid=sid)
                pr = _renew_header(delivered, _RENEW_PAIRS, sid, round_no,
                                   d, n_tracks)
                seen_pairs = [(pr.element(q_width), pr.element(q_width))
                              for _ in range(n_tracks)]
                pr.done()
                pairs[j][d] = (seen_commits, seen_pairs)

        accusations = []
        members = set()  # commitments proven to be subgroup members this round
        for j in holders:
            for d in holders:
                seen_commits, seen_pairs = pairs[j][d]
                for track in range(n_tracks):
                    packet = RenewalPacket(d, round_no,
                                           tuple(seen_commits[track]), {})
                    if not verify_renewal_share(j, packet, seen_pairs[track],
                                                group, members):
                        accusations.append(Accusation(
                            j, d, "commitment check failed on track %d"
                            % track))
        if accusations:
            self.transcript.append(
                "renewal sid=%s round=%d rejected accusations=%d"
                % (sid.hex(), round_no, len(accusations)))
            return RenewalReport(sid, round_no, False, tuple(accusations),
                                 n_tracks)

        for j in holders:
            share_set = sets[j]
            new_shares = []
            for track in range(n_tracks):
                total = share_set.data_shares[track]
                for d in holders:
                    s1, s2 = pairs[j][d][1][track]
                    total = field.add(total, field.add(s1, s2))
                new_shares.append(total)
            self.holder_stores[j].apply_renewal(sid, tuple(new_shares),
                                                round_no)
        self.transcript.append("renewal sid=%s round=%d accepted tracks=%d"
                               % (sid.hex(), round_no, n_tracks))
        return RenewalReport(sid, round_no, True, (), n_tracks)
