"""Simulated key-supply network: links, relay, OTP channels, entropy taps.

The model follows a metropolitan quantum-key-distribution deployment: five
trusted nodes joined by six point-to-point links, each link growing raw
key material at a configured rate while simulated time advances. Raw link
key is only a budget; usable shared key between two nodes lives in a
per-pair stream and is minted by key relay, which debits every link on
the path by the requested amount (the one-time-pad cost of forwarding)
and credits the endpoint pair. A relay across one shared link is a plain
transfer with no overhead.

Pair-stream content is a keyed PRF over the simulation master seed, so
any byte range can be re-read by offset. Allocation is a monotone cursor:
a bit index is handed out at most once ever, which is the entire one-time
-pad discipline; envelopes carry the offsets their pads came from the way
deployed key-management interfaces carry key ids, and receivers re-read
those ranges instead of allocating. A stream keeps its last two
allocations, a send's body pad and tag pad, until the receiver has read
them, so the receiver's reads are a shift and a mask, not PRF blocks.

Channels between registered endpoints encrypt with fresh pad bits and
carry a Wegman-Carter tag. Each directed channel draws one tag_bits-bit
hash key r from its pair stream on its first send, reduced mod p, the
largest prime below 2^tag_bits, and keeps it for good. A message's tag is
(h_r(seq || ciphertext) + s) mod p: h_r is the PolyEval hash of
mac.polyeval_hash_bytes and s is tag_bits fresh pair-stream bits. Reusing r
is safe because no tag leaves without a fresh pad. The channel keeps the
powers r, ..., r^64 mod p beside r, so h_r runs as 64-block dot products.
A channel thus spends tag_bits bits once, then 8 * nbytes + tag_bits bits
per message. Sequence numbers are strictly increasing per directed pair; a
replayed or reordered envelope is rejected before any pad is touched. The
tag pad sits right after the body pad, and a receiver refuses an envelope
that places them otherwise, so the authenticated tag pad also fixes where
the body pad is read from.

A body that needs integrity but no secrecy can cross in the clear beside
one ordinary envelope whose plaintext is its digest (send_digest,
check_digest): h_r(DIGEST_LABEL || seq || body) in tag_bits / 8 bytes,
under the channel's own hash key r and bound to that envelope's seq. The
label sets the digest's input apart from the seq || ciphertext a tag
hashes. r stays hidden, since every tag carries a fresh pad and the
digest travels padded, so an altered body passes with probability at most
L / p, L its block count. Such a body costs 2 * tag_bits bits, not
8 * nbytes + tag_bits.

Rates, lengths and losses in the default topology are simulation
parameters chosen to look like the published link classes, not
measurements.
"""

from __future__ import annotations

import copy
from collections import deque
from dataclasses import dataclass, field as dc_field

from .entropy import PrfBits, RandomSource, derive_key
from .errors import (
    ChannelIntegrityError,
    ConfigurationError,
    KeySupplyError,
    ProtocolError,
    ReplayError,
)
from .mac import (check_k, polyeval_hash_bytes, polyeval_modulus,
                  polyeval_powers)
from .mac import toeplitz_tag_bits  # noqa: F401 -- perfbench's tracer hooks this name

__all__ = [
    "LinkSpec",
    "NodeSpec",
    "NetworkTopology",
    "SecureEnvelope",
    "KeyNetwork",
    "KsaSource",
    "DEFAULT_TOPOLOGY",
    "CHANNEL_TAG_BITS",
    "DIGEST_LABEL",
]

CHANNEL_TAG_BITS = 256
_SEQ_FIELD_BITS = 64
DIGEST_LABEL = b"itstore clear body"


@dataclass(frozen=True)
class LinkSpec:
    name: str
    a: str
    b: str
    rate_bps: int
    length_km: float = 0.0
    loss_db: float = 0.0
    capacity_bits: int = 10_000_000

    def __post_init__(self):
        if self.a == self.b:
            raise ConfigurationError("link %s joins a node to itself" % self.name)
        if self.rate_bps < 0 or self.capacity_bits <= 0:
            raise ConfigurationError("link %s has a bad rate or capacity" % self.name)


@dataclass(frozen=True)
class NodeSpec:
    name: str
    entropy_rate_bps: int = 1_000_000
    entropy_capacity_bits: int = 200_000_000
    initial_entropy_bits: int = 100_000_000


@dataclass(frozen=True)
class NetworkTopology:
    nodes: tuple
    links: tuple

    def __post_init__(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate node names")
        for name in names:
            # pair-stream PRF labels and snapshot keys join two node names
            # with "|", so a name holding one could alias another pair
            if "|" in name:
                raise ConfigurationError("node name %r contains '|'" % name)
        link_names = [l.name for l in self.links]
        if len(set(link_names)) != len(link_names):
            raise ConfigurationError("duplicate link names")
        known = set(names)
        for link in self.links:
            if link.a not in known or link.b not in known:
                raise ConfigurationError(
                    "link %s references an unknown node" % link.name)
        if names and len(self._reachable(names[0])) != len(names):
            raise ConfigurationError("topology is not connected")
        object.__setattr__(self, "_paths", {})  # (a, b) -> path, filled on use

    def _neighbours(self, node):
        out = []
        for link in self.links:
            if link.a == node:
                out.append((link.b, link))
            elif link.b == node:
                out.append((link.a, link))
        return sorted(out, key=lambda t: (t[0], t[1].name))

    def _reachable(self, start):
        seen = {start}
        queue = deque([start])
        while queue:
            here = queue.popleft()
            for nxt, _ in self._neighbours(here):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def node_names(self):
        return [n.name for n in self.nodes]

    def shortest_path(self, a: str, b: str):
        """Minimum-hop link path from a to b, ties broken by node name so
        replays pick the same route. The topology is frozen, so each
        pair's path is searched once and kept."""
        path = self._paths.get((a, b))
        if path is None:
            path = self._paths[(a, b)] = tuple(self._bfs_path(a, b))
        return list(path)

    def _bfs_path(self, a: str, b: str):
        if a == b:
            return []
        parents = {a: None}
        queue = deque([a])
        while queue:
            here = queue.popleft()
            for nxt, link in self._neighbours(here):
                if nxt not in parents:
                    parents[nxt] = (here, link)
                    if nxt == b:
                        path = []
                        cur = b
                        while parents[cur]:
                            prev, hop = parents[cur]
                            path.append(hop)
                            cur = prev
                        return list(reversed(path))
                    queue.append(nxt)
        raise KeySupplyError("no path between %s and %s" % (a, b))


# Default five-node, six-link layout. Connected: every node reaches the
# hub either directly or through its metro neighbour.
DEFAULT_TOPOLOGY = NetworkTopology(
    nodes=(
        NodeSpec("Koganei-1"),
        NodeSpec("Koganei-2"),
        NodeSpec("Koganei-3"),
        NodeSpec("Koganei-4"),
        NodeSpec("Ohtemachi-1"),
    ),
    links=(
        LinkSpec("NEC-0", "Koganei-1", "Koganei-2", rate_bps=250_000,
                 length_km=1.0, loss_db=0.3),
        LinkSpec("NEC-1", "Koganei-2", "Ohtemachi-1", rate_bps=80_000,
                 length_km=45.0, loss_db=14.5),
        LinkSpec("Toshiba", "Koganei-1", "Ohtemachi-1", rate_bps=300_000,
                 length_km=45.0, loss_db=14.5),
        LinkSpec("NTT-NICT", "Koganei-3", "Ohtemachi-1", rate_bps=2_000,
                 length_km=90.0, loss_db=27.0),
        LinkSpec("Gakushuin", "Koganei-3", "Koganei-4", rate_bps=10_000,
                 length_km=24.0, loss_db=7.0),
        LinkSpec("SeQureNet", "Koganei-4", "Ohtemachi-1", rate_bps=5_000,
                 length_km=24.0, loss_db=7.0),
    ),
)


@dataclass(frozen=True)
class SecureEnvelope:
    """One encrypted, tagged, sequenced message between two endpoints."""

    sender: str
    receiver: str
    seq: int
    ciphertext: bytes
    tag: int  # below the channel modulus p < 2^tag_bits
    pad_offset: int  # bit offset of the body pad in the pair stream
    tag_pad_offset: int  # bit offset of the tag pad


class _LinkState:
    __slots__ = ("spec", "buffered", "generated", "relayed_out", "overflow_lost",
                 "_carry")

    def __init__(self, spec: LinkSpec):
        self.spec = spec
        self.buffered = 0
        self.generated = 0  # bits that entered the buffer
        self.relayed_out = 0
        self.overflow_lost = 0  # produced but dropped at a full buffer
        self._carry = 0  # sub-bit remainder, rate_bps * ms mod 1000

    def advance(self, ms: int):
        raw = self.spec.rate_bps * ms + self._carry
        bits, self._carry = divmod(raw, 1000)
        room = self.spec.capacity_bits - self.buffered
        added = min(bits, room)
        self.buffered += added
        self.generated += added
        self.overflow_lost += bits - added


class _PairStream:
    """Application key between one node pair: PRF content, monotone cursor.

    The last two allocations are kept as (offset, nbits, value), so a
    receiver re-reading the body pad and tag pad a sender just drew gets
    them by shift and mask instead of re-deriving them from the PRF.
    """

    __slots__ = ("pair", "prf", "credited", "cursor", "_kept")

    def __init__(self, pair, master: bytes):
        self.pair = pair
        self.prf = PrfBits(derive_key(master, "pair|%s|%s" % pair))
        self.credited = 0  # total bits ever relayed in
        self.cursor = 0  # total bits ever allocated out
        self._kept = ()  # (offset, nbits, value) of the last two allocations

    @property
    def available(self) -> int:
        return self.credited - self.cursor

    def allocate(self, nbits: int):
        """Hand out the next nbits as (offset, value); never re-issues."""
        if nbits > self.available:
            raise KeySupplyError(
                "pair %s|%s holds %d bits, need %d"
                % (self.pair + (self.available, nbits)))
        offset = self.cursor
        self.cursor += nbits
        value = self.prf.read_bits(offset, nbits)
        self._kept = self._kept[-1:] + ((offset, nbits, value),)
        return offset, value

    def read(self, offset: int, nbits: int) -> int:
        """Re-read an already-allocated range (receiver side)."""
        if offset < 0 or offset + nbits > self.cursor:
            raise ProtocolError("read outside the allocated key range")
        for start, width, value in self._kept:
            below = start + width - offset - nbits  # kept bits after the range
            if offset >= start and below >= 0:
                return (value >> below) & ((1 << nbits) - 1)
        return self.prf.read_bits(offset, nbits)

    def release(self):
        """Drop the kept allocations once their receiver has read them."""
        self._kept = ()


class KsaSource(RandomSource):
    """Node-local randomness tap: a RandomSource over the node's pool."""

    __slots__ = ("node", "prf", "available", "consumed", "capacity", "rate_bps",
                 "_cursor", "_carry")

    def __init__(self, spec: NodeSpec, master: bytes):
        self.node = spec.name
        self.prf = PrfBits(derive_key(master, "ksa|%s" % spec.name))
        self.available = min(spec.initial_entropy_bits, spec.entropy_capacity_bits)
        self.consumed = 0
        self.capacity = spec.entropy_capacity_bits
        self.rate_bps = spec.entropy_rate_bps
        self._cursor = 0
        self._carry = 0

    def advance(self, ms: int):
        raw = self.rate_bps * ms + self._carry
        bits, self._carry = divmod(raw, 1000)
        self.available = min(self.available + bits, self.capacity)

    def take_bits(self, nbits: int) -> int:
        if nbits < 0:
            raise ConfigurationError("cannot draw a negative bit count")
        if nbits == 0:
            return 0
        if nbits > self.available:
            raise KeySupplyError(
                "entropy pool at %s holds %d bits, need %d"
                % (self.node, self.available, nbits))
        value = self.prf.read_bits(self._cursor, nbits)
        self._cursor += nbits
        self.available -= nbits
        self.consumed += nbits
        return value


def _copied(state):
    """A copy of one slotted counter object, for a plan to spend from."""
    copied = object.__new__(type(state))
    for name in state.__slots__:
        setattr(copied, name, getattr(state, name))
    return copied


class _ChannelState:
    """Directed-channel bookkeeping shared by both simulated ends.

    seed_width is 0 until the hash key is drawn and 1 after, so that a key
    draw spends tag_bits + seed_width - 1 bits, the count perfbench's tracer
    reconciles; a Toeplitz-era snapshot recorded its seed's width there.
    """

    __slots__ = ("hash_key", "powers", "seed_width", "next_seq", "last_recv_seq")

    def __init__(self):
        self.hash_key = 0  # r, reduced mod the channel modulus
        self.powers = None  # mac.polyeval_powers(r, modulus), built with r
        self.seed_width = 0
        self.next_seq = 0
        self.last_recv_seq = -1

    def set_hash_key(self, r: int, modulus: int):
        self.hash_key = r % modulus
        self.powers = polyeval_powers(self.hash_key, modulus)
        self.seed_width = 1


class KeyNetwork:
    """The whole simulated key infrastructure plus its conservation ledger."""

    def __init__(self, topology: NetworkTopology = DEFAULT_TOPOLOGY,
                 master_seed: bytes = b"\x00" * 32,
                 tag_bits: int = CHANNEL_TAG_BITS):
        check_k(tag_bits)  # channel tags are PolyEval tags
        self.topology = topology
        self.master = derive_key(master_seed, "keynet")
        self.tag_bits = tag_bits
        self.modulus = polyeval_modulus(tag_bits)
        self.now_ms = 0
        self.links = {l.name: _LinkState(l) for l in topology.links}
        self.pools = {n.name: KsaSource(n, self.master) for n in topology.nodes}
        self.streams = {}
        self.endpoints = {}  # endpoint name -> node name
        self.channels = {}  # (sender endpoint, receiver endpoint) -> state
        self.relay_overhead = 0
        self.messages_sent = 0

    # ------------------------------------------------------------- plumbing

    def advance(self, ms: int):
        """Advance simulated time: links and entropy pools accrue."""
        if ms < 0:
            raise ConfigurationError("time only moves forward")
        self.now_ms += ms
        for link in self.links.values():
            link.advance(ms)
        for pool in self.pools.values():
            pool.advance(ms)

    def _pair(self, a: str, b: str):
        return (a, b) if a <= b else (b, a)

    def pair_stream(self, a: str, b: str) -> _PairStream:
        if a == b:
            raise ConfigurationError("a node needs no key stream with itself")
        for n in (a, b):
            if n not in self.pools:
                raise ConfigurationError("unknown node %r" % n)
        pair = self._pair(a, b)
        if pair not in self.streams:
            self.streams[pair] = _PairStream(pair, self.master)
        return self.streams[pair]

    def relay_keys(self, a: str, b: str, amount: int, path=None):
        """Mint `amount` shared bits for (a, b), spending every hop of the
        route from a to b, or of `path`. This is the only entry a real
        relay takes; its route, per-hop check and debits are _relay's,
        which check_sendable runs on scratch counters to plan sends."""
        if amount <= 0:
            raise ConfigurationError("relay amount must be positive")
        self._relay(a, b, amount, path)

    def _relay(self, a: str, b: str, amount: int, path=None):
        """Check the whole route first, so a short hop fails the relay with
        no partial debit anywhere; then debit every hop and credit (a, b)."""
        stream = self.pair_stream(a, b)
        hops = path if path is not None else self.topology.shortest_path(a, b)
        if not hops:
            raise KeySupplyError("no relay path between %s and %s" % (a, b))
        states = [self.links[h.name if isinstance(h, LinkSpec) else h]
                  for h in hops]
        for st in states:
            if st.buffered < amount:
                raise KeySupplyError(
                    "link %s holds %d bits, relay needs %d"
                    % (st.spec.name, st.buffered, amount))
        for st in states:
            st.buffered -= amount
            st.relayed_out += amount
        stream.credited += amount
        self.relay_overhead += amount * (len(states) - 1)

    def ensure_pair_key(self, a: str, b: str, bits: int):
        """Top the (a, b) stream up to at least `bits` available."""
        stream = self.pair_stream(a, b)
        shortfall = bits - stream.available
        if shortfall > 0:
            self.relay_keys(a, b, shortfall)

    # ------------------------------------------------------------ endpoints

    def register_endpoint(self, endpoint: str, node: str):
        if node not in self.pools:
            raise ConfigurationError("unknown node %r" % node)
        existing = self.endpoints.get(endpoint)
        if existing is not None and existing != node:
            raise ConfigurationError(
                "endpoint %r already registered at %s" % (endpoint, existing))
        self.endpoints[endpoint] = node

    def _endpoint_node(self, endpoint: str) -> str:
        try:
            return self.endpoints[endpoint]
        except KeyError:
            raise ProtocolError("unregistered endpoint %r" % endpoint)

    def entropy_source(self, endpoint_or_node: str) -> KsaSource:
        """The randomness tap at an endpoint's node (or a node directly)."""
        node = self.endpoints.get(endpoint_or_node, endpoint_or_node)
        try:
            return self.pools[node]
        except KeyError:
            raise ProtocolError("no entropy pool for %r" % endpoint_or_node)

    def supply_randomness(self, endpoint_or_node: str, nbits: int) -> int:
        return self.entropy_source(endpoint_or_node).take_bits(nbits)

    # ------------------------------------------------------------- channels

    def _channel(self, sender: str, receiver: str) -> _ChannelState:
        key = (sender, receiver)
        if key not in self.channels:
            self.channels[key] = _ChannelState()
        return self.channels[key]

    def _tag(self, chan: _ChannelState, seq: int, ciphertext: bytes,
             tag_pad: int) -> int:
        message = seq.to_bytes(_SEQ_FIELD_BITS // 8, "big") + ciphertext
        return (polyeval_hash_bytes(chan.hash_key, message, self.modulus,
                                    chan.powers) + tag_pad) % self.modulus

    def keyed(self, sender: str, receiver: str) -> bool:
        """Whether the directed channel has drawn its hash key."""
        chan = self.channels.get((sender, receiver))
        return chan is not None and chan.seed_width > 0

    def message_key_cost(self, sender: str, receiver: str, nbytes: int) -> int:
        """Pair-stream bits a send of nbytes will consume: the hash key on
        the channel's first send, then the body pad and the tag pad. A body
        sent in the clear costs its digest envelope's send, of
        tag_bits / 8 bytes: 2 * tag_bits bits."""
        return ((0 if self.keyed(sender, receiver) else self.tag_bits)
                + nbytes * 8 + self.tag_bits)

    def check_sendable(self, messages) -> None:
        """Raise KeySupplyError unless the whole message sequence could be
        paid for, each send relaying its shortfall first as ensure_pair_key
        does, over the route from the sender's node to the receiver's.

        The plan runs the sends' own accounting -- message_key_cost,
        pair_stream and _relay -- on scratch copies of the link, stream and
        channel counters, then spends each message's cost and marks its
        channel keyed, so it refuses exactly the sequences whose sends
        would fail, and no live state changes. Used by protocol phases
        that must refuse atomically before the first message leaves.
        messages: iterable of (sender, receiver, nbytes).
        """
        plan = copy.copy(self)
        for table in ("links", "streams", "channels"):
            setattr(plan, table, {key: _copied(state) for key, state
                                  in getattr(self, table).items()})
        for sender, receiver, nbytes in messages:
            node_s = self._endpoint_node(sender)
            node_r = self._endpoint_node(receiver)
            if node_s == node_r:
                continue  # local handoff, no key spent
            cost = plan.message_key_cost(sender, receiver, nbytes)
            stream = plan.pair_stream(node_s, node_r)
            if stream.available < cost:
                try:
                    plan._relay(node_s, node_r, cost - stream.available)
                except KeySupplyError as exc:
                    raise KeySupplyError(
                        "cannot deliver %d bytes %s->%s: %s"
                        % (nbytes, sender, receiver, exc)) from exc
            stream.cursor += cost
            plan._channel(sender, receiver).seed_width = 1

    def secure_send(self, sender: str, receiver: str, plaintext: bytes) -> SecureEnvelope:
        """Encrypt, tag and sequence one message. Key cost: one pad bit per
        plaintext bit and tag_bits of tag pad, plus the hash key on the
        channel's first send. A short stream refuses the send atomically:
        no bit is allocated."""
        node_s = self._endpoint_node(sender)
        node_r = self._endpoint_node(receiver)
        if node_s == node_r:
            raise ProtocolError(
                "co-located endpoints exchange data locally, not by envelope")
        stream = self.pair_stream(node_s, node_r)
        chan = self._channel(sender, receiver)

        total = self.message_key_cost(sender, receiver, len(plaintext))
        if stream.available < total:
            raise KeySupplyError(
                "send needs %d key bits, pair %s|%s has %d"
                % (total, stream.pair[0], stream.pair[1], stream.available))
        if not chan.seed_width:
            chan.set_hash_key(stream.allocate(self.tag_bits)[1], self.modulus)
        pad_offset, pad = stream.allocate(len(plaintext) * 8)
        tag_pad_offset, tag_pad = stream.allocate(self.tag_bits)

        seq = chan.next_seq
        chan.next_seq += 1
        ciphertext = (int.from_bytes(plaintext, "big") ^ pad).to_bytes(
            len(plaintext), "big")
        tag = self._tag(chan, seq, ciphertext, tag_pad)
        self.messages_sent += 1
        return SecureEnvelope(sender, receiver, seq, ciphertext, tag,
                              pad_offset, tag_pad_offset)

    def _digest(self, sender: str, receiver: str, seq: int,
                body: bytes) -> bytes:
        chan = self.channels[(sender, receiver)]
        message = (DIGEST_LABEL + seq.to_bytes(_SEQ_FIELD_BITS // 8, "big")
                   + body)
        return polyeval_hash_bytes(chan.hash_key, message, self.modulus,
                                   chan.powers).to_bytes(self.tag_bits // 8,
                                                         "big")

    def send_digest(self, sender: str, receiver: str,
                    body: bytes) -> SecureEnvelope:
        """The envelope that lets body cross in the clear: one secure_send
        whose plaintext is h_r(DIGEST_LABEL || seq || body), r the keyed
        channel's hash key and seq the envelope's own."""
        seq = self.channels[(sender, receiver)].next_seq
        return self.secure_send(sender, receiver,
                                self._digest(sender, receiver, seq, body))

    def check_digest(self, envelope: SecureEnvelope, body: bytes) -> bytes:
        """Receive a digest envelope and return the clear body that came
        with it, or raise ChannelIntegrityError if the body is not the one
        digested."""
        digest = self.secure_recv(envelope)
        if digest != self._digest(envelope.sender, envelope.receiver,
                                  envelope.seq, body):
            raise ChannelIntegrityError(
                "clear body does not match its digest on %s->%s seq %d"
                % (envelope.sender, envelope.receiver, envelope.seq))
        return body

    def secure_recv(self, envelope: SecureEnvelope) -> bytes:
        """Verify sequence and tag, then decrypt. Replay and integrity
        failures raise before any state is updated."""
        node_s = self._endpoint_node(envelope.sender)
        node_r = self._endpoint_node(envelope.receiver)
        stream = self.pair_stream(node_s, node_r)
        chan = self._channel(envelope.sender, envelope.receiver)

        if envelope.seq <= chan.last_recv_seq:
            raise ReplayError(
                "sequence %d not above %d on %s->%s"
                % (envelope.seq, chan.last_recv_seq,
                   envelope.sender, envelope.receiver))
        if not chan.seed_width:
            raise ChannelIntegrityError("no hash key drawn on this channel")
        if envelope.seq >> _SEQ_FIELD_BITS:
            raise ChannelIntegrityError("sequence number wider than its field")
        tag_pad = stream.read(envelope.tag_pad_offset, self.tag_bits)
        if self._tag(chan, envelope.seq, envelope.ciphertext,
                     tag_pad) != envelope.tag:
            raise ChannelIntegrityError(
                "tag mismatch on %s->%s seq %d"
                % (envelope.sender, envelope.receiver, envelope.seq))
        pad = stream.read(envelope.pad_offset, len(envelope.ciphertext) * 8)
        # secure_send allocates the tag pad right after the body pad, so the
        # authenticated tag pad pins where the body pad is read from
        if envelope.tag_pad_offset != (envelope.pad_offset
                                       + 8 * len(envelope.ciphertext)):
            raise ChannelIntegrityError(
                "body pad at bit %d does not end where the tag pad at bit %d"
                " starts" % (envelope.pad_offset, envelope.tag_pad_offset))
        chan.last_recv_seq = envelope.seq
        stream.release()
        return (int.from_bytes(envelope.ciphertext, "big") ^ pad).to_bytes(
            len(envelope.ciphertext), "big")

    # --------------------------------------------------------------- ledger

    def ledger(self) -> dict:
        """Counters for reports and the conservation assertion."""
        link_rows = {
            name: {
                "generated": st.generated,
                "buffered": st.buffered,
                "relayed_out": st.relayed_out,
                "overflow_lost": st.overflow_lost,
            }
            for name, st in sorted(self.links.items())
        }
        pair_rows = {
            "%s|%s" % pair: {
                "credited": st.credited,
                "consumed": st.cursor,
                "buffered": st.available,
            }
            for pair, st in sorted(self.streams.items())
        }
        pool_rows = {
            name: {"available": p.available, "consumed": p.consumed}
            for name, p in sorted(self.pools.items())
        }
        return {
            "time_ms": self.now_ms,
            "links": link_rows,
            "pairs": pair_rows,
            "pools": pool_rows,
            "relay_overhead": self.relay_overhead,
            "messages_sent": self.messages_sent,
        }

    def conservation_holds(self) -> bool:
        """generated == buffered + consumed + relay overhead, exactly."""
        generated = sum(st.generated for st in self.links.values())
        link_buffered = sum(st.buffered for st in self.links.values())
        pair_buffered = sum(st.available for st in self.streams.values())
        consumed = sum(st.cursor for st in self.streams.values())
        return generated == (link_buffered + pair_buffered + consumed
                             + self.relay_overhead)

    # ------------------------------------------------------------ snapshots

    def to_state(self) -> dict:
        """JSON-safe snapshot of all counters and channel state. Pair-stream
        contents are PRF-derived, so cursors are enough to rebuild; the
        master seed is NOT included and must be re-supplied on restore."""
        return {
            "now_ms": self.now_ms,
            "tag_bits": self.tag_bits,
            "links": {
                name: [st.buffered, st.generated, st.relayed_out,
                       st.overflow_lost, st._carry]
                for name, st in self.links.items()
            },
            "pools": {
                name: [p.available, p.consumed, p._cursor, p._carry]
                for name, p in self.pools.items()
            },
            "streams": {
                "%s|%s" % pair: [st.credited, st.cursor]
                for pair, st in self.streams.items()
            },
            "endpoints": dict(self.endpoints),
            "channels": {
                "%s|%s" % key: ["%x" % chan.hash_key, chan.seed_width,
                                chan.next_seq, chan.last_recv_seq]
                for key, chan in self.channels.items()
            },
            "relay_overhead": self.relay_overhead,
            "messages_sent": self.messages_sent,
        }

    @classmethod
    def from_state(cls, state: dict, topology: NetworkTopology,
                   master_seed: bytes) -> "KeyNetwork":
        net = cls(topology, master_seed, tag_bits=state["tag_bits"])
        net.now_ms = state["now_ms"]
        for name, row in state["links"].items():
            st = net.links[name]
            (st.buffered, st.generated, st.relayed_out,
             st.overflow_lost, st._carry) = row
        for name, row in state["pools"].items():
            p = net.pools[name]
            p.available, p.consumed, p._cursor, p._carry = row
        for key, row in state["streams"].items():
            a, b = key.split("|")
            stream = net.pair_stream(a, b)
            stream.credited, stream.cursor = row
        for endpoint, node in state["endpoints"].items():
            net.register_endpoint(endpoint, node)
        for key, row in state["channels"].items():
            if row[1] > 1:
                raise ConfigurationError(
                    "channel %s holds a Toeplitz seed from an older snapshot;"
                    " it cannot serve as a hash key" % key)
            sender, receiver = key.split("|")
            chan = net._channel(sender, receiver)
            if row[1]:
                chan.set_hash_key(int(row[0], 16), net.modulus)
            chan.next_seq, chan.last_recv_seq = row[2:]
        net.relay_overhead = state["relay_overhead"]
        net.messages_sent = state["messages_sent"]
        return net
