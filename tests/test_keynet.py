"""Tests for the simulated key network: generation, relay, channels, ledger."""

import dataclasses
import hashlib
import itertools
import random
import time
from collections import deque

import pytest

from itstore.entropy import PrfBits, derive_key
from itstore.errors import (
    ChannelIntegrityError,
    ConfigurationError,
    KeySupplyError,
    ProtocolError,
    ReplayError,
)
from itstore.keynet import (
    DEFAULT_TOPOLOGY,
    DIGEST_LABEL,
    KeyNetwork,
    LinkSpec,
    NetworkTopology,
    NodeSpec,
    SecureEnvelope,
)
from itstore.mac import polyeval_hash_bytes, polyeval_powers


def line_topology(rate=1000, capacity=1_000_000):
    """A - B - C, two links."""
    return NetworkTopology(
        nodes=(NodeSpec("A", initial_entropy_bits=10_000),
               NodeSpec("B", initial_entropy_bits=10_000),
               NodeSpec("C", initial_entropy_bits=10_000)),
        links=(LinkSpec("ab", "A", "B", rate_bps=rate, capacity_bits=capacity),
               LinkSpec("bc", "B", "C", rate_bps=rate, capacity_bits=capacity)),
    )


def tag_pad_offset(env):
    """Where an envelope's tag pad starts: right after its body pad."""
    return env.pad_offset + 8 * len(env.ciphertext)


def fresh_net(**kw):
    net = KeyNetwork(line_topology(), master_seed=b"test-net", **kw)
    net.register_endpoint("alice", "A")
    net.register_endpoint("carol", "C")
    net.advance(10_000)  # 10 s at 1000 b/s: 10k bits per link
    return net


# ----------------------------------------------------------------- topology

def test_topology_validation():
    with pytest.raises(ConfigurationError):
        NetworkTopology(nodes=(NodeSpec("A"), NodeSpec("A")), links=())
    with pytest.raises(ConfigurationError):
        LinkSpec("x", "A", "A", rate_bps=10)
    with pytest.raises(ConfigurationError):
        NetworkTopology(nodes=(NodeSpec("A"),),
                        links=(LinkSpec("x", "A", "B", rate_bps=1),))
    with pytest.raises(ConfigurationError):  # disconnected
        NetworkTopology(
            nodes=(NodeSpec("A"), NodeSpec("B"), NodeSpec("C"), NodeSpec("D")),
            links=(LinkSpec("ab", "A", "B", rate_bps=1),
                   LinkSpec("cd", "C", "D", rate_bps=1)))


def test_node_names_that_would_alias_a_pair_stream_are_refused():
    # "A|B"-"C" and "A"-"B|C" would key their pair streams with one PRF
    # label, so the first messages on the two pairs would share pad bits
    nodes = (NodeSpec("A|B"), NodeSpec("C"), NodeSpec("A"), NodeSpec("B|C"))
    links = (LinkSpec("l1", "A|B", "C", rate_bps=1),
             LinkSpec("l2", "C", "A", rate_bps=1),
             LinkSpec("l3", "A", "B|C", rate_bps=1))
    with pytest.raises(ConfigurationError, match=r"node name 'A\|B'"):
        NetworkTopology(nodes=nodes, links=links)


def test_default_topology_shape_and_paths():
    topo = DEFAULT_TOPOLOGY
    assert len(topo.nodes) == 5 and len(topo.links) == 6
    assert topo.shortest_path("Koganei-1", "Koganei-1") == []
    direct = topo.shortest_path("Koganei-1", "Ohtemachi-1")
    assert [l.name for l in direct] == ["Toshiba"]
    two_hop = topo.shortest_path("Koganei-3", "Koganei-1")
    assert [l.name for l in two_hop] == ["NTT-NICT", "Toshiba"]
    assert [l.name for l in topo.shortest_path("Koganei-4", "Koganei-1")] == [
        "SeQureNet", "Toshiba"]


def plain_bfs_path(topo, a, b):
    """Minimum-hop links from a to b by a breadth-first search from a that
    visits each node's neighbours in (node name, link name) order."""
    parents = {a: None}
    queue = deque([a])
    while queue:
        here = queue.popleft()
        for nxt, _name, link in sorted(
                (l.b if l.a == here else l.a, l.name, l)
                for l in topo.links if here in (l.a, l.b)):
            if nxt not in parents:
                parents[nxt] = (here, link)
                queue.append(nxt)
    path = []
    while parents[b]:
        b, link = parents[b]
        path.append(link)
    return path[::-1]


def test_memoized_paths_equal_fresh_bfs_paths_for_every_pair(monkeypatch):
    # the square has two two-hop routes from A to D, and parallel links
    # between A and B: ties go to the lower node name, then link name
    square = NetworkTopology(
        nodes=tuple(NodeSpec(n) for n in "DCBA"),
        links=(LinkSpec("ab2", "A", "B", rate_bps=1),
               LinkSpec("ab1", "B", "A", rate_bps=1),
               LinkSpec("cd", "C", "D", rate_bps=1),
               LinkSpec("ac", "A", "C", rate_bps=1),
               LinkSpec("bd", "D", "B", rate_bps=1)))
    assert [l.name for l in square.shortest_path("A", "D")] == ["ab1", "bd"]
    for topo in (DEFAULT_TOPOLOGY, square):
        pairs = list(itertools.product(topo.node_names(), repeat=2))
        searched = {pair: plain_bfs_path(topo, *pair) for pair in pairs}
        for pair in pairs:
            assert topo.shortest_path(*pair) == searched[pair], pair
        topo.shortest_path(*pairs[1]).append("scribble")  # callers get a copy

        def no_search(self, node):
            raise AssertionError("searched from %s again" % node)

        with monkeypatch.context() as patched:
            patched.setattr(NetworkTopology, "_neighbours", no_search)
            for pair in pairs:
                assert topo.shortest_path(*pair) == searched[pair], pair


# --------------------------------------------------------------- generation

def test_generation_rate_arithmetic():
    net = KeyNetwork(line_topology(rate=1000), master_seed=b"gen")
    net.advance(2000)
    assert net.links["ab"].buffered == 2000
    net.advance(0)
    assert net.links["ab"].buffered == 2000


def test_generation_fractional_carry():
    topo = NetworkTopology(
        nodes=(NodeSpec("A"), NodeSpec("B")),
        links=(LinkSpec("ab", "A", "B", rate_bps=333),))
    net = KeyNetwork(topo, master_seed=b"carry")
    for _ in range(3):
        net.advance(1)
    assert net.links["ab"].buffered == 0  # 999 milli-bits accrued
    net.advance(1)
    assert net.links["ab"].buffered == 1  # 1332 -> 1 bit, 332 carried


def test_generation_capacity_clamp():
    net = KeyNetwork(line_topology(rate=1000, capacity=1500), master_seed=b"cap")
    net.advance(10_000)
    link = net.links["ab"]
    assert link.buffered == 1500
    assert link.generated == 1500
    assert link.overflow_lost == 8500


# -------------------------------------------------------------------- relay

def test_two_hop_relay_accounting():
    net = fresh_net()
    net.relay_keys("A", "C", 128)
    assert net.links["ab"].buffered == 10_000 - 128
    assert net.links["bc"].buffered == 10_000 - 128
    stream = net.pair_stream("A", "C")
    assert stream.credited == 128 and stream.available == 128
    assert net.relay_overhead == 128
    assert net.conservation_holds()


def test_single_link_relay_is_plain_transfer():
    net = fresh_net()
    net.relay_keys("A", "B", 500)
    assert net.links["ab"].buffered == 9500
    assert net.pair_stream("A", "B").available == 500
    assert net.relay_overhead == 0
    assert net.conservation_holds()


def test_relay_failure_leaves_no_partial_debit():
    net = KeyNetwork(line_topology(), master_seed=b"partial")
    net.advance(10_000)
    net.relay_keys("B", "C", 9_990)  # leaves bc with 10 bits
    before = {name: st.buffered for name, st in net.links.items()}
    with pytest.raises(KeySupplyError):
        net.relay_keys("A", "C", 100)
    assert {name: st.buffered for name, st in net.links.items()} == before
    with pytest.raises(KeySupplyError):
        net.relay_keys("A", "C", 100, path=[])
    with pytest.raises(ConfigurationError):
        net.relay_keys("A", "C", 0)


def test_ensure_pair_key_tops_up():
    net = fresh_net()
    net.relay_keys("A", "C", 100)
    net.ensure_pair_key("A", "C", 60)  # already enough
    assert net.pair_stream("A", "C").available == 100
    net.ensure_pair_key("A", "C", 300)
    assert net.pair_stream("A", "C").available == 300


def test_pair_stream_validation():
    net = fresh_net()
    with pytest.raises(ConfigurationError):
        net.pair_stream("A", "A")
    with pytest.raises(ConfigurationError):
        net.pair_stream("A", "Zed")


# ----------------------------------------------------------------- channels

def test_channel_round_trip():
    net = fresh_net()
    net.relay_keys("A", "C", 6000)
    for payload in (b"hello across the network", b"", b"\x00" * 17,
                    bytes(range(256))):
        env = net.secure_send("alice", "carol", payload)
        assert net.secure_recv(env) == payload
    assert net.conservation_holds()


def test_channel_sequences_and_pad_disjointness():
    net = fresh_net()
    net.relay_keys("A", "C", 5000)
    envs = [net.secure_send("alice", "carol", b"msg %d" % i) for i in range(4)]
    assert [e.seq for e in envs] == [0, 1, 2, 3]
    ranges = []
    for e in envs:
        ranges.append((e.pad_offset, e.pad_offset + len(e.ciphertext) * 8))
        ranges.append((tag_pad_offset(e), tag_pad_offset(e) + net.tag_bits))
    ranges.sort()
    for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
        assert e1 <= s2  # no two pads share a bit
    for e in envs:
        assert net.secure_recv(e) == b"msg %d" % e.seq


def test_ciphertext_is_not_plaintext():
    net = fresh_net()
    net.relay_keys("A", "C", 4000)
    payload = b"\x00" * 32  # all-zero plaintext exposes the raw pad
    env = net.secure_send("alice", "carol", payload)
    assert env.ciphertext != payload  # 2^-256 flake chance, accepted
    assert net.secure_recv(env) == payload


def test_replay_and_reorder_rejected():
    net = fresh_net()
    net.relay_keys("A", "C", 5000)
    e1 = net.secure_send("alice", "carol", b"first")
    e2 = net.secure_send("alice", "carol", b"second")
    assert net.secure_recv(e2) == b"second"
    with pytest.raises(ReplayError):
        net.secure_recv(e2)
    with pytest.raises(ReplayError):
        net.secure_recv(e1)


def test_tampered_envelope_rejected():
    net = fresh_net()
    net.relay_keys("A", "C", 5000)
    env = net.secure_send("alice", "carol", b"integrity matters")
    flipped = bytes([env.ciphertext[0] ^ 0x80]) + env.ciphertext[1:]
    bad = SecureEnvelope(env.sender, env.receiver, env.seq, flipped,
                         env.tag, env.pad_offset)
    with pytest.raises(ChannelIntegrityError):
        net.secure_recv(bad)
    assert net.secure_recv(env) == b"integrity matters"


def test_forgery_rate_statistical_small_tag():
    # 2000 single-bit tamperings against 16-bit tags: expect ~0.03 passes
    net = KeyNetwork(line_topology(), master_seed=b"forge", tag_bits=16)
    net.register_endpoint("alice", "A")
    net.register_endpoint("carol", "C")
    net.advance(3_600_000)
    net.relay_keys("A", "C", 900_000)
    rng = random.Random(0xf063)
    accepted = 0
    for i in range(2000):
        env = net.secure_send("alice", "carol", b"payload %04d" % i)
        bit = rng.randrange(len(env.ciphertext) * 8)
        tampered = (int.from_bytes(env.ciphertext, "big") ^
                    (1 << bit)).to_bytes(len(env.ciphertext), "big")
        bad = SecureEnvelope(env.sender, env.receiver, env.seq, tampered,
                             env.tag, env.pad_offset)
        try:
            net.secure_recv(bad)
            accepted += 1
        except ChannelIntegrityError:
            pass
    assert accepted <= 2


def small_tag_net(master=b"test-net", receivers=("carol",)):
    """fresh_net at tag_bits=16 (p = 65521, 1-byte hash blocks)."""
    net = KeyNetwork(line_topology(), master_seed=master, tag_bits=16)
    net.register_endpoint("alice", "A")
    for name in receivers:
        net.register_endpoint(name, "C")
    net.advance(10_000)
    return net


def test_channel_tag_round_trip_and_verify_never_consumes():
    net = small_tag_net()
    net.relay_keys("A", "C", 6000)
    stream = net.pair_stream("A", "C")
    env = net.secure_send("alice", "carol", b"12345678")
    cursor = stream.cursor
    assert env.tag >> 8  # so truncating it to 8 bits changes it
    for bad in (dataclasses.replace(env, ciphertext=env.ciphertext[:-1] + bytes(
                    [env.ciphertext[-1] ^ 1])),
                dataclasses.replace(env, tag=env.tag ^ 1),
                dataclasses.replace(env, tag=env.tag & 0xff)):
        with pytest.raises(ChannelIntegrityError):
            net.secure_recv(bad)
    # rejected checks consume nothing: the genuine envelope still opens
    assert net.secure_recv(env) == b"12345678"
    assert stream.cursor == cursor  # receiving allocates no key
    # every message is tagged under a fresh tag pad, never a reused one
    again = net.secure_send("alice", "carol", b"12345678")
    assert tag_pad_offset(again) >= tag_pad_offset(env) + net.tag_bits
    assert net.secure_recv(again) == b"12345678"


def test_channel_tag_of_empty_payload_is_sequence_hash_plus_pad():
    net = small_tag_net()
    net.relay_keys("A", "C", 6000)
    env = net.secure_send("alice", "carol", b"")
    pad = net.pair_stream("A", "C").read(tag_pad_offset(env), net.tag_bits)
    r = net.channels[("alice", "carol")].hash_key
    assert env.tag == (polyeval_hash_bytes(r, bytes(8), net.modulus)
                       + pad) % net.modulus
    assert net.secure_recv(env) == b""


def test_channel_pad_hides_hash():
    # The tag is the hash plus the tag pad mod p, not the hash alone: one
    # seq and ciphertext, checked against another tag pad, needs a tag
    # moved by exactly the difference of the two pads.
    net = small_tag_net()
    net.relay_keys("A", "C", 6000)
    stream = net.pair_stream("A", "C")
    env = net.secure_send("alice", "carol", bytes(8))
    other = net.secure_send("alice", "carol", bytes(8))
    p = net.modulus
    s1 = stream.read(tag_pad_offset(env), net.tag_bits) % p
    s2 = stream.read(tag_pad_offset(other), net.tag_bits) % p
    assert s1 != s2
    moved = dataclasses.replace(env, pad_offset=other.pad_offset)
    with pytest.raises(ChannelIntegrityError):
        net.secure_recv(moved)
    r = net.channels[("alice", "carol")].hash_key
    h = polyeval_hash_bytes(r, env.seq.to_bytes(8, "big") + env.ciphertext, p)
    assert (h + s2) % p == (env.tag - s1 + s2) % p
    assert net.secure_recv(env) == bytes(8)


def test_channel_forgery_census_with_fresh_keys():
    # One bit flipped after tagging, each trial on a channel of its own so
    # that every trial draws a fresh hash key: acceptance should be about
    # 2^-15 (only r = 0 forgives a flip). 10^4 trials, threshold a few
    # sigma above the bound.
    topo = NetworkTopology(
        nodes=(NodeSpec("A"), NodeSpec("B")),
        links=(LinkSpec("ab", "A", "B", rate_bps=1000,
                        capacity_bits=2_000_000),))
    net = KeyNetwork(topo, master_seed=b"wc-forgery", tag_bits=16)
    senders = ["s%d" % i for i in range(100)]
    receivers = ["r%d" % i for i in range(100)]
    for name in senders:
        net.register_endpoint(name, "A")
    for name in receivers:
        net.register_endpoint(name, "B")
    net.advance(1_000_000)
    net.relay_keys("A", "B", 10_000 * (16 + 64 + 16))
    structure = random.Random(0x57a7)
    accepted = 0
    for sender in senders:
        for receiver in receivers:
            msg = structure.getrandbits(64).to_bytes(8, "big")
            env = net.secure_send(sender, receiver, msg)
            flipped = structure.randrange(64)
            forged = (int.from_bytes(env.ciphertext, "big")
                      ^ (1 << flipped)).to_bytes(8, "big")
            try:
                net.secure_recv(dataclasses.replace(env, ciphertext=forged))
                accepted += 1
            except ChannelIntegrityError:
                pass
    assert len(net.channels) == 10_000
    assert accepted <= 4


def test_receive_on_a_channel_without_a_hash_key_fails_closed():
    net = small_tag_net(receivers=("carol", "dave"))
    net.relay_keys("A", "C", 6000)
    env = net.secure_send("alice", "carol", b"addressed to carol")
    pad = net.pair_stream("A", "C").read(tag_pad_offset(env), net.tag_bits)
    # alice->dave has no key: its unset r = 0 would hash anything to 0
    for tag in (env.tag, pad % net.modulus):
        with pytest.raises(ChannelIntegrityError):
            net.secure_recv(dataclasses.replace(env, receiver="dave", tag=tag))
    assert net.secure_recv(env) == b"addressed to carol"


def test_every_single_bit_flip_is_rejected():
    net = small_tag_net()
    net.relay_keys("A", "C", 6000)
    env = net.secure_send("alice", "carol", bytes(range(100)))
    value = int.from_bytes(env.ciphertext, "big")
    for bit in range(len(env.ciphertext) * 8):
        bad = dataclasses.replace(env, ciphertext=(value ^ (1 << bit)).to_bytes(
            len(env.ciphertext), "big"))
        with pytest.raises(ChannelIntegrityError):
            net.secure_recv(bad)
    assert net.secure_recv(env) == bytes(range(100))


@pytest.mark.parametrize("edit", ["append-zero", "drop-last"])
def test_changing_the_ciphertext_length_is_rejected(edit):
    # Sends until a ciphertext ends in 0x00: with 1-byte blocks, a hash
    # that did not encode the length would read c, c || 0x00 and c minus
    # its last byte alike.
    net = small_tag_net()
    net.advance(100_000)
    net.relay_keys("A", "C", 100_000)
    for i in range(2000):
        payload = b"length %d" % i
        env = net.secure_send("alice", "carol", payload)
        if env.ciphertext[-1] == 0:
            break
        assert net.secure_recv(env) == payload
    assert env.ciphertext[-1] == 0
    if edit == "append-zero":
        changed = env.ciphertext + b"\x00"
    else:
        changed = env.ciphertext[:-1]
    with pytest.raises(ChannelIntegrityError):
        net.secure_recv(dataclasses.replace(env, ciphertext=changed))
    assert net.secure_recv(env) == payload


def test_bogus_offsets_rejected():
    net = fresh_net()
    net.relay_keys("A", "C", 5000)
    env = net.secure_send("alice", "carol", b"offset games")
    outside = SecureEnvelope(env.sender, env.receiver, env.seq, env.ciphertext,
                             env.tag, 10 ** 9)
    with pytest.raises(ChannelIntegrityError, match="outside the allocated"):
        net.secure_recv(outside)
    # the tag pad moved to where the body pad starts
    shifted = SecureEnvelope(env.sender, env.receiver, env.seq, env.ciphertext,
                             env.tag, 2 * env.pad_offset - tag_pad_offset(env))
    with pytest.raises(ChannelIntegrityError):
        net.secure_recv(shifted)


def test_body_pad_must_end_where_the_tag_pad_starts():
    # The tag covers seq || ciphertext, not the offset; an envelope whose
    # body pad is pointed at an earlier message's pad would decrypt to
    # garbage if it were accepted. Its tag pad moves with it, so the
    # earlier message's tag pad fails the tag.
    net = fresh_net()
    net.relay_keys("A", "C", 5000)
    first = net.secure_send("alice", "carol", b"first message, 18B")
    second = net.secure_send("alice", "carol", b"other message, 18B")
    # one allocation: the body pad, then the tag pad, which ends it
    assert net.pair_stream("A", "C").cursor == \
        second.pad_offset + 8 * 18 + net.tag_bits
    assert net.secure_recv(first) == b"first message, 18B"
    moved = dataclasses.replace(second, pad_offset=first.pad_offset)
    with pytest.raises(ChannelIntegrityError, match="tag mismatch"):
        net.secure_recv(moved)
    assert net.secure_recv(second) == b"other message, 18B"  # nothing spent


@pytest.mark.parametrize("tag_bits", [16, 256])
def test_pads_and_tag_are_prf_reads_of_adjacent_allocations(tag_bits):
    net = fresh_net(tag_bits=tag_bits)
    net.relay_keys("A", "C", 9000)
    stream = net.pair_stream("A", "C")
    p = net.modulus
    r = stream.prf.read_bits(0, tag_bits) % p  # the first send draws the key
    for payload in (b"", b"x", bytes(range(70))):
        env = net.secure_send("alice", "carol", payload)
        nbits = 8 * len(payload)
        assert stream.cursor == tag_pad_offset(env) + tag_bits
        pad = stream.prf.read_bits(env.pad_offset, nbits)
        assert int.from_bytes(env.ciphertext, "big") == \
            int.from_bytes(payload, "big") ^ pad
        tag_pad = stream.prf.read_bits(tag_pad_offset(env), tag_bits)
        message = env.seq.to_bytes(8, "big") + env.ciphertext
        assert env.tag == (polyeval_hash_bytes(r, message, p) + tag_pad) % p
        assert net.secure_recv(env) == payload
    assert net.channels[("alice", "carol")].powers == polyeval_powers(r, p)


def test_every_sub_range_read_of_the_kept_allocations_equals_the_prf(
        monkeypatch):
    net = fresh_net()
    net.relay_keys("A", "C", 1000)
    stream = net.pair_stream("A", "C")
    stream.allocate(5)
    stream.allocate(13)  # not kept: an allocation follows it
    kept = stream.allocate(90)  # off byte edges
    end = stream.cursor
    assert kept[1] == stream.prf.read_bits(kept[0], 90)
    want = {(a, b): stream.prf.read_bits(a, b - a)
            for a in range(end + 1) for b in range(a, end + 1)}
    inside = [(a, b) for a, b in want if kept[0] <= a]
    hashed = []
    block = PrfBits._block
    monkeypatch.setattr(PrfBits, "_block",
                        lambda prf, i: hashed.append(i) or block(prf, i))
    for a, b in inside:
        assert stream.read(a, b - a) == want[(a, b)], (a, b)
    assert hashed == []  # served from the kept allocations
    for (a, b), bits in want.items():  # the rest reads the PRF
        assert stream.read(a, b - a) == bits, (a, b)
    stream.release()
    assert stream.read(kept[0], 90) == kept[1]


def test_moved_or_out_of_range_pad_offsets_fail_as_before():
    # The receiver reads both pads as one range, then checks the tag; a
    # moved offset moves both pads and fails at one of the two steps.
    net = fresh_net()
    net.relay_keys("A", "C", 5000)
    env = net.secure_send("alice", "carol", b"eighteen byte body")
    end = net.pair_stream("A", "C").cursor
    body_bits = tag_pad_offset(env) - env.pad_offset
    cases = [  # the first three move the tag pad to end - 8, -1 and one
        # bit early, as an envelope naming its tag pad apart could
        (dict(pad_offset=end - 8 - body_bits), "outside the allocated"),
        (dict(pad_offset=-1 - body_bits), "outside the allocated"),
        (dict(pad_offset=env.pad_offset - 1), "tag mismatch"),
        (dict(pad_offset=end), "outside the allocated"),
        (dict(pad_offset=-8), "outside the allocated"),
        (dict(pad_offset=env.pad_offset + 8), "outside the allocated"),
        (dict(pad_offset=0), "tag mismatch"),
    ]
    for change, match in cases:
        with pytest.raises(ChannelIntegrityError, match=match):
            net.secure_recv(dataclasses.replace(env, **change))
    assert net.secure_recv(env) == b"eighteen byte body"


def test_send_exhaustion_is_atomic():
    net = fresh_net()
    net.relay_keys("A", "C", 64)  # far too little for seed + pads
    stream = net.pair_stream("A", "C")
    with pytest.raises(KeySupplyError):
        net.secure_send("alice", "carol", b"way more than sixty-four bits")
    assert stream.cursor == 0  # nothing was allocated
    assert net._channel("alice", "carol").next_seq == 0


def test_message_key_cost_is_exact():
    net = fresh_net()
    net.relay_keys("A", "C", 8000)
    stream = net.pair_stream("A", "C")
    for payload in (b"abc", b"abc", b"a much longer payload than before"):
        cost = net.message_key_cost("alice", "carol", len(payload))
        before = stream.cursor
        net.secure_send("alice", "carol", payload)
        assert stream.cursor - before == cost


def test_growing_sends_cost_one_key_then_pads():
    net = fresh_net()
    net.relay_keys("A", "C", 9000)
    stream = net.pair_stream("A", "C")
    sizes = (0, 1, 5, 31, 32, 100, 300)
    for n in sizes:
        net.secure_recv(net.secure_send("alice", "carol", bytes(n)))
    assert stream.cursor == net.tag_bits + sum(8 * n + net.tag_bits
                                               for n in sizes)


def test_a_clear_body_is_checked_against_its_seq_bound_digest():
    net = fresh_net()
    net.relay_keys("A", "C", 9000)
    stream = net.pair_stream("A", "C")
    assert not net.keyed("alice", "carol")
    net.secure_recv(net.secure_send("alice", "carol", b"first"))
    assert net.keyed("alice", "carol") and not net.keyed("carol", "alice")
    chan = net.channels[("alice", "carol")]
    body = b"public commitments" * 5
    cursor = stream.cursor
    env = net.send_digest("alice", "carol", body)
    # one ordinary envelope of tag_bits / 8 bytes carries the digest
    assert stream.cursor - cursor == 2 * net.tag_bits \
        == net.message_key_cost("alice", "carol", net.tag_bits // 8)
    assert env.seq == 1 and len(env.ciphertext) == net.tag_bits // 8
    pad = stream.read(env.pad_offset, 8 * len(env.ciphertext))
    digest = polyeval_hash_bytes(chan.hash_key,
                                 DIGEST_LABEL + (1).to_bytes(8, "big") + body,
                                 net.modulus)
    assert int.from_bytes(env.ciphertext, "big") ^ pad == digest
    assert net.check_digest(env, body) == body
    for altered in (body[:-1], body + b"\x00",
                    bytes([body[0] ^ 0x80]) + body[1:]):
        env = net.send_digest("alice", "carol", body)
        with pytest.raises(ChannelIntegrityError, match="does not match"):
            net.check_digest(env, altered)
    # each envelope digests the same body under its own seq
    envs = [net.send_digest("alice", "carol", body) for _ in range(2)]
    digests = {int.from_bytes(e.ciphertext, "big")
               ^ stream.read(e.pad_offset, 8 * len(e.ciphertext))
               for e in envs}
    assert len(digests) == 2
    assert [net.check_digest(e, body) for e in envs] == [body, body]
    assert net.conservation_holds()


def test_tag_width_floor():
    for bits in (0, 8, 12, 20):
        with pytest.raises(ConfigurationError):
            KeyNetwork(line_topology(), tag_bits=bits)
    assert KeyNetwork(line_topology(), tag_bits=16).modulus == 65521


def test_sequence_number_wider_than_its_field_is_rejected():
    net = fresh_net()
    net.relay_keys("A", "C", 4000)
    env = net.secure_send("alice", "carol", b"seq")
    with pytest.raises(ChannelIntegrityError):
        net.secure_recv(dataclasses.replace(env, seq=env.seq + (1 << 64)))
    assert net.secure_recv(env) == b"seq"


def test_endpoint_rules():
    net = fresh_net()
    net.register_endpoint("alice", "A")  # same node again: fine
    with pytest.raises(ConfigurationError):
        net.register_endpoint("alice", "B")
    with pytest.raises(ConfigurationError):
        net.register_endpoint("bob", "Nowhere")
    with pytest.raises(ProtocolError):
        net.secure_send("ghost", "carol", b"x")
    net.register_endpoint("aide", "A")
    with pytest.raises(ConfigurationError,
                       match="a node needs no key stream with itself"):
        net.secure_send("alice", "aide", b"co-located")


# ----------------------------------------------------------------- entropy

def test_supply_randomness_accounting():
    net = fresh_net()
    pool = net.entropy_source("alice")
    start = pool.available
    value = net.supply_randomness("alice", 256)
    assert 0 <= value < (1 << 256)
    assert pool.available == start - 256 and pool.consumed == 256
    assert net.supply_randomness("A", 0) == 0
    assert pool.consumed == 256
    with pytest.raises(KeySupplyError):
        net.supply_randomness("alice", pool.available + 1)
    with pytest.raises(ProtocolError):
        net.entropy_source("nowhere")


def test_sequential_draws_hash_each_prf_block_once(monkeypatch):
    net = fresh_net()
    pool = net.entropy_source("alice")
    hashed = []
    block = PrfBits._block
    monkeypatch.setattr(PrfBits, "_block",
                        lambda prf, i: hashed.append(i) or block(prf, i))
    values = [pool.take_bits(127) for _ in range(100)]
    assert hashed == list(range(-(-100 * 127 // 512)))  # 25 blocks, once each
    joined = 0
    for v in values:
        joined = (joined << 127) | v
    assert joined == PrfBits(pool.prf._key).read_bits(0, 100 * 127)


def test_prf_blocks_equal_one_shot_keyed_blake2b():
    key = derive_key(b"prf-check", "blocks")

    def one_shot(i):
        return hashlib.blake2b(i.to_bytes(8, "big"), key=key,
                               digest_size=64).digest()

    prf = PrfBits(key)
    for i in (0, 1, 2, 255, 2 ** 40 + 3):
        assert prf._block(i) == one_shot(i)
    stream = b"".join(one_shot(i) for i in range(5))
    for start, nbytes in ((0, 320), (1, 200), (63, 2), (100, 150), (64, 64)):
        assert prf.read_bytes(start, nbytes) == stream[start:start + nbytes]
        assert PrfBits(key).read_bytes(start, nbytes) == \
            stream[start:start + nbytes]


def test_entropy_pool_regrows_with_time():
    topo = NetworkTopology(
        nodes=(NodeSpec("A", entropy_rate_bps=100, entropy_capacity_bits=1000,
                        initial_entropy_bits=0),
               NodeSpec("B")),
        links=(LinkSpec("ab", "A", "B", rate_bps=1),))
    net = KeyNetwork(topo, master_seed=b"pool")
    assert net.pools["A"].available == 0
    net.advance(2000)
    assert net.pools["A"].available == 200
    net.advance(60_000)
    assert net.pools["A"].available == 1000  # capacity clamp


def test_concurrent_requesters_conserve_bits():
    net = fresh_net()
    net.register_endpoint("aide", "A")
    pool = net.entropy_source("A")
    start = pool.available
    rng = random.Random(7)
    total = 0
    for _ in range(200):
        who = rng.choice(("alice", "aide"))
        n = rng.randrange(0, 64)
        net.supply_randomness(who, n)
        total += n
    assert pool.consumed == total
    assert pool.available == start - total


# ---------------------------------------------------------------- determinism

def test_deterministic_replay():
    def run():
        net = fresh_net()
        net.relay_keys("A", "C", 4000)
        out = []
        for i in range(3):
            out.append(net.secure_send("alice", "carol", b"det %d" % i))
        return out, net.ledger()

    first, ledger1 = run()
    second, ledger2 = run()
    assert first == second
    assert ledger1 == ledger2
    other = KeyNetwork(line_topology(), master_seed=b"other-seed")
    other.register_endpoint("alice", "A")
    other.register_endpoint("carol", "C")
    other.advance(10_000)
    other.relay_keys("A", "C", 4000)
    env = other.secure_send("alice", "carol", b"det 0")
    assert env.ciphertext != first[0].ciphertext


def test_state_snapshot_round_trip():
    net = fresh_net()
    net.relay_keys("A", "C", 6000)
    e1 = net.secure_send("alice", "carol", b"before snapshot")
    state = net.to_state()

    restored = KeyNetwork.from_state(state, line_topology(), b"test-net")
    assert restored.ledger() == net.ledger()
    # a message sealed before the snapshot opens after it
    assert restored.secure_recv(e1) == b"before snapshot"
    # both copies produce identical next envelopes
    a = net.secure_send("alice", "carol", b"after snapshot")
    b = restored.secure_send("alice", "carol", b"after snapshot")
    assert a == b


def test_snapshot_with_a_toeplitz_seed_is_refused():
    net = fresh_net()
    net.relay_keys("A", "C", 6000)
    net.secure_send("alice", "carol", b"before snapshot")
    state = net.to_state()
    assert state["channels"]["alice|carol"][1] == 1
    # a Toeplitz-era row: the seed value and the widest MAC input it covered
    state["channels"]["alice|carol"] = ["%x" % (1 << 300), 64 + 8 * 15, 1, -1]
    with pytest.raises(ConfigurationError):
        KeyNetwork.from_state(state, line_topology(), b"test-net")


@pytest.mark.parametrize("bits,message", [
    (12, "PolyEval needs k >= 16 for whole-byte blocks, got 12"),
    (20, "tags are whole bytes, so k must be a multiple of 8, got 20"),
    (65536, "PolyEval needs k <= 512 for a prompt modulus search, got 65536"),
], ids=["narrow", "not-whole-bytes", "wide"])
def test_a_snapshot_with_an_unusable_tag_width_is_refused(bits, message):
    # channel tags are PolyEval tags, so the snapshot's width follows
    # mac.check_k; a wide one would stall the load in the modulus search
    state = dict(fresh_net().to_state(), tag_bits=bits)
    started = time.process_time()
    with pytest.raises(ConfigurationError) as info:
        KeyNetwork.from_state(state, line_topology(), b"test-net")
    assert str(info.value) == message
    assert time.process_time() - started < 1.0


def test_conservation_through_busy_schedule():
    net = KeyNetwork(line_topology(rate=5000), master_seed=b"busy")
    net.register_endpoint("alice", "A")
    net.register_endpoint("carol", "C")
    rng = random.Random(0xbe)
    pending = []
    for step in range(120):
        net.advance(rng.randrange(0, 500))
        op = rng.randrange(4)
        try:
            if op == 0:
                net.relay_keys("A", "C", rng.randrange(1, 400))
            elif op == 1:
                net.relay_keys("A", "B", rng.randrange(1, 200))
            elif op == 2:
                pending.append(net.secure_send(
                    "alice", "carol", bytes(rng.randrange(256)
                                            for _ in range(rng.randrange(40)))))
            elif pending:
                net.secure_recv(pending.pop(0))
        except KeySupplyError:
            pass
        assert net.conservation_holds()


def test_check_sendable_plans_without_mutating():
    net = fresh_net()
    before = net.ledger()
    # affordable: a couple of small messages, relays included
    net.check_sendable([("alice", "carol", 40), ("alice", "carol", 40)])
    # unaffordable: one message bigger than everything both links hold
    with pytest.raises(KeySupplyError):
        net.check_sendable([("alice", "carol", 1_000_000)])
    # a fleet of messages whose sum (but no single one) exceeds supply
    with pytest.raises(KeySupplyError):
        net.check_sendable([("alice", "carol", 900)] * 40)
    assert net.ledger() == before
    # the passing plan is actually executable afterwards
    net.ensure_pair_key("A", "C", net.message_key_cost("alice", "carol", 40))
    net.secure_recv(net.secure_send("alice", "carol", bytes(40)))
    assert net.conservation_holds()


def test_check_sendable_counts_seed_growth_once_per_channel():
    net = fresh_net()
    # The widest message dictates the one-off seed growth; a plan listing
    # ascending sizes must cost the same as descending sizes.
    plan_up = [("alice", "carol", n) for n in (10, 20, 40)]
    plan_down = list(reversed(plan_up))
    net.check_sendable(plan_up)
    net.check_sendable(plan_down)
    # exact execution: pay for the plan message by message and confirm the
    # planner's verdict matched reality
    for _, _, n in plan_up:
        net.ensure_pair_key("A", "C", net.message_key_cost("alice", "carol", n))
        net.secure_recv(net.secure_send("alice", "carol", bytes(n)))
    assert net.conservation_holds()


# ------------------------------------------------------------- tied routes

TIED_LINKS = (("N0", "N1"), ("N0", "N3"), ("N0", "N5"), ("N0", "N6"),
              ("N1", "N2"), ("N1", "N3"), ("N1", "N6"), ("N2", "N4"),
              ("N4", "N5"))


def tied_topology(starved=None):
    """Seven nodes where some pairs have two shortest routes of equal
    length, and the route from a to b is not the one from b to a. Every
    link runs at 10 Mbit/s except `starved`, which makes no key."""
    return NetworkTopology(
        nodes=tuple(NodeSpec("N%d" % i) for i in range(7)),
        links=tuple(
            LinkSpec("L%d" % i, a, b, capacity_bits=10**9,
                     rate_bps=0 if "L%d" % i == starved else 10_000_000)
            for i, (a, b) in enumerate(TIED_LINKS)))


def test_the_tied_topology_routes_each_direction_its_own_way():
    topo = tied_topology()
    def route(a, b):
        return [link.name for link in topo.shortest_path(a, b)]

    assert route("N4", "N3") == ["L7", "L4", "L5"]
    assert route("N3", "N4") == ["L1", "L2", "L8"]


@pytest.mark.parametrize("starved",
                         ["L%d" % i for i in range(len(TIED_LINKS))])
def test_check_sendable_refuses_exactly_the_sends_that_cannot_be_paid(starved):
    for x, y in itertools.permutations(["N%d" % i for i in range(7)], 2):
        net = KeyNetwork(tied_topology(starved), master_seed=b"tied")
        net.register_endpoint("from", x)
        net.register_endpoint("to", y)
        net.advance(60_000)
        before = net.ledger()
        try:
            net.check_sendable([("from", "to", 100)])
            planned = True
        except KeySupplyError:
            planned = False
        assert net.ledger() == before
        try:
            net.ensure_pair_key(x, y, net.message_key_cost("from", "to", 100))
            net.secure_send("from", "to", bytes(100))
            paid = True
        except KeySupplyError:
            paid = False
        assert planned == paid, (starved, x, y)
        assert net.conservation_holds()


# --------------------------------------------------------------- refusals

def test_a_link_with_a_negative_rate_or_no_capacity_is_refused():
    for keys in (dict(rate_bps=-1), dict(rate_bps=1, capacity_bits=0)):
        with pytest.raises(ConfigurationError) as info:
            LinkSpec("x", "A", "B", **keys)
        assert str(info.value) == "link x has a bad rate or capacity"


def test_a_topology_naming_two_links_alike_is_refused():
    with pytest.raises(ConfigurationError, match="^duplicate link names$"):
        NetworkTopology(
            nodes=(NodeSpec("A"), NodeSpec("B"), NodeSpec("C")),
            links=(LinkSpec("x", "A", "B", rate_bps=1),
                   LinkSpec("x", "B", "C", rate_bps=1)))


def test_a_negative_draw_or_time_step_is_refused_and_changes_nothing():
    net = fresh_net()
    pool = net.entropy_source("A")
    before = net.ledger()
    with pytest.raises(ConfigurationError,
                       match="^cannot draw a negative bit count$"):
        pool.take_bits(-1)
    with pytest.raises(ConfigurationError, match="^time only moves forward$"):
        net.advance(-1)
    assert net.ledger() == before
    # the pool's cursor did not move either: the next draw is the first
    untouched = KeyNetwork(line_topology(), master_seed=b"test-net")
    assert pool.take_bits(64) == untouched.entropy_source("A").take_bits(64)
