"""Tests for verifiable share renewal.

Frozen values are hand-worked in the toy group p=23, q=11, g=2, h=8.
The commitment oracle multiplies out g^a h^b by repeated multiplication,
independent of mod_exp.
"""

import functools
import itertools
import random

import pytest

import itstore.protocol
import itstore.renewal
from itstore.entropy import SeededEntropy
from itstore.errors import ConfigurationError, KeySupplyError, ProtocolError
from itstore.field import PrimeField, interpolate_at_zero, random_polynomial
from itstore.keynet import KsaSource, NodeSpec
from itstore.protocol import renewal_round
from itstore.renewal import (
    EXACT_CHECKS,
    MERSENNE127_GROUP,
    RFC5114_GROUP,
    SUBSET_TESTS,
    TOY_GROUP,
    RenewalGroupConfig,
    Accusation,
    RenewalPacket,
    apply_renewal,
    derive_subgroup_element,
    gen_renewal,
    group_by_name,
    subgroup_members,
    subset_products,
    verify_renewal_share,
)


def commit_oracle(group, a, b):
    """g^a h^b by repeated multiplication (toy-sized exponents only)."""
    out = 1
    for _ in range(a % group.q):
        out = out * group.g % group.p
    for _ in range(b % group.q):
        out = out * group.h % group.p
    return out


def make_shares(secret, degree, field, rng, holders=(1, 2, 3, 4)):
    """One-track shares of secret: {holder: (share,)}."""
    poly = random_polynomial(degree, secret, field, rng)
    return {j: (poly.evaluate(j),) for j in holders}


def one_source(rng, holders=(1, 2, 3, 4)):
    """Every holder draws from rng, in index order."""
    return {j: rng for j in holders}


def forward(d, packets, holders=(1, 2, 3, 4)):
    """What every holder other than d receives from d's packets when the
    transport changes nothing; None for a pair a packet does not carry."""
    return {j: ([packet.commitments for packet in packets],
                [packet.share_pairs.get(j) for packet in packets])
            for j in holders if j != d}


F11 = PrimeField(11)


# ------------------------------------------------------------------- groups

def test_all_shipped_groups_validate():
    for group in (TOY_GROUP, MERSENNE127_GROUP, RFC5114_GROUP):
        group.validate()
    assert group_by_name("toy") is TOY_GROUP
    with pytest.raises(ConfigurationError):
        group_by_name("nope")


def test_group_validation_rejects_bad_configs():
    with pytest.raises(ConfigurationError):
        RenewalGroupConfig(p=23, q=7, g=2, h=8).validate()  # 7 does not divide 22
    with pytest.raises(ConfigurationError):
        RenewalGroupConfig(p=25, q=11, g=2, h=8).validate()  # p composite
    with pytest.raises(ConfigurationError):
        RenewalGroupConfig(p=23, q=11, g=5, h=8).validate()  # 5 outside subgroup
    with pytest.raises(ConfigurationError):
        RenewalGroupConfig(p=23, q=11, g=2, h=2).validate()  # g == h
    with pytest.raises(ConfigurationError):
        RenewalGroupConfig(p=23, q=11, g=1, h=8).validate()  # identity


def test_shipped_groups_derive_from_public_constants():
    # both large groups take g and h as cofactor powers of 2 and 3
    for group in (MERSENNE127_GROUP, RFC5114_GROUP):
        assert group.g == derive_subgroup_element(2, group.p, group.q)
        assert group.h == derive_subgroup_element(3, group.p, group.q)
    assert MERSENNE127_GROUP.q == (1 << 127) - 1
    assert MERSENNE127_GROUP.p == ((1 << 129) + 62) * MERSENNE127_GROUP.q + 1


# -------------------------------------------------------------- commitments

def test_commit_frozen_toy():
    # a = 5, b = 7: 2^5 * 8^7 mod 23 = 16
    assert commit_oracle(TOY_GROUP, 5, 7) == 16
    assert TOY_GROUP.commit(5, 7) == 16
    assert TOY_GROUP.commit(0, 0) == 1


def test_commit_matches_oracle_randomized():
    rng = random.Random(0xc0)
    for _ in range(40):
        a, b = rng.randrange(22), rng.randrange(22)
        assert TOY_GROUP.commit(a, b) == commit_oracle(TOY_GROUP, a, b)


@pytest.mark.parametrize("group", [TOY_GROUP, MERSENNE127_GROUP, RFC5114_GROUP],
                         ids=lambda g: g.name)
def test_commit_tables_match_pow_oracle(group):
    p, q = group.p, group.q

    def oracle(a, b):
        return pow(group.g, a % q, p) * pow(group.h, b % q, p) % p

    edges = (0, 1, q - 1, q, q + 1, 2 * q + 5, -1, -q, -q - 3, -(3 * q) + 7)
    cases = list(itertools.product(edges, repeat=2))
    rng = random.Random(0x5eed ^ q)
    cases += [(rng.randrange(-q, 3 * q), rng.randrange(-q, 3 * q))
              for _ in range(200)]
    for a, b in cases:
        assert group.commit(a, b) == oracle(a, b), (a, b)


def test_verify_frozen_toy():
    # sender polynomials P1 = 5x, P2 = 7x; recipient 3 gets (4, 10);
    # check: 2^4 * 8^10 = 2 = 16^3 mod 23
    packet = RenewalPacket(sender=1, round_no=0, commitments=(16,),
                           share_pairs={3: (4, 10)})
    assert verify_renewal_share(3, packet, (4, 10), TOY_GROUP)
    assert not verify_renewal_share(3, packet, (5, 10), TOY_GROUP)
    assert not verify_renewal_share(3, packet, (4, 9), TOY_GROUP)


def test_verify_all_zero_polynomials():
    packet = RenewalPacket(sender=2, round_no=0, commitments=(1, 1),
                           share_pairs={1: (0, 0)})
    assert verify_renewal_share(1, packet, (0, 0), TOY_GROUP)


def test_verify_rejects_elements_outside_subgroup():
    # 5 has order 22 mod 23, not 11
    packet = RenewalPacket(sender=1, round_no=0, commitments=(5,),
                           share_pairs={2: (0, 0)})
    assert not verify_renewal_share(2, packet, (0, 0), TOY_GROUP)


def accusations_without_shared_set(tracks, holders, group):
    """What renewal_round must accuse, recipient by recipient, track by
    track and sender by sender, each check made with no shared set;
    tracks[k] holds every sender's packet on track k."""
    return tuple(Accusation(c, packet.sender,
                            "commitment check failed on track %d" % k)
                 for c in holders for k, packets in enumerate(tracks)
                 for packet in packets
                 if c != packet.sender and not verify_renewal_share(
                     c, packet, packet.share_pairs[c], group))


def test_non_member_commitments_are_accused_by_every_recipient():
    # p - eps has order 2q: in range, but its q-th power is -1. For even
    # recipients the sign cancels on the right-hand side (c^j is even),
    # so only the membership check rejects them. eps + p is congruent to
    # eps, so only the range check rejects it, for every recipient.
    group = MERSENNE127_GROUP
    holders = (1, 2, 3, 4)
    sent = {}

    def corrupt(d, packets):
        (packet,) = packets
        if d == 1:
            twisted = group.p - packet.commitments[0]
            packet.commitments = (twisted,) + packet.commitments[1:]
        if d == 3:
            out_of_range = packet.commitments[1] + group.p
            packet.commitments = packet.commitments[:1] + (out_of_range,)
        sent[d] = packet
        return forward(d, packets)

    shares = {j: (0,) for j in holders}
    outcome = renewal_round(shares, 2, group,
                            one_source(SeededEntropy(b"non-member")),
                            deliver=corrupt)
    packets = [sent[d] for d in holders]
    first, second = packets[0], packets[2]
    twisted = first.commitments[0]
    out_of_range = second.commitments[1]
    for c in (2, 4):
        rhs = pow(twisted, c, group.p) * pow(first.commitments[1], c * c,
                                             group.p) % group.p
        assert rhs == group.commit(*first.share_pairs[c])

    expected = accusations_without_shared_set([packets], holders, group)
    assert {(a.accuser, a.accused) for a in expected} == {
        (2, 1), (3, 1), (4, 1), (1, 3), (2, 3), (4, 3)}
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == expected

    members = set()
    for packet in packets:
        for c in holders:
            verify_renewal_share(c, packet, packet.share_pairs[c], group,
                                 members)
    assert twisted not in members and out_of_range not in members
    assert all(0 < eps < group.p and pow(eps, group.q, group.p) == 1
               for eps in members)
    assert {eps for packet in (packets[1], packets[3])
            for eps in packet.commitments} <= members
    for c in (2, 4):
        assert not verify_renewal_share(c, first, first.share_pairs[c],
                                        group, members)


def test_round_checks_each_commitment_once(monkeypatch):
    group = MERSENNE127_GROUP
    holders = (1, 2, 3, 4)
    exponents = []

    def counting_mod_exp(base, exponent, modulus):
        exponents.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    outcome = renewal_round({j: (0,) for j in holders}, 2, group,
                            one_source(SeededEntropy(b"check-once")))
    assert outcome.accepted
    # 4 packets x 2 commitments checked once each; each of 4 recipients
    # checks the dealers' summed pair once, 2 right-hand-side powers with
    # exponents c^j <= 16
    assert exponents.count(group.q) == 8
    assert len(exponents) == 8 + 8
    assert max(e for e in exponents if e != group.q) == 16


def in_subgroup(group, x):
    return pow(x, group.q, group.p) == 1


def test_subset_products_match_a_product_per_subset():
    group = MERSENNE127_GROUP
    rng = random.Random(0x5b5e7)
    values = [group.commit(rng.getrandbits(127), rng.getrandbits(127))
              for _ in range(300)]
    selectors = rng.randbytes(8 * len(values))
    products = subset_products(values, selectors, group.p)
    assert len(products) == SUBSET_TESTS
    for r, product in enumerate(products):
        expected = 1
        for i, eps in enumerate(values):
            if int.from_bytes(selectors[8 * i:8 * i + 8], "little") >> r & 1:
                expected = expected * eps % group.p
        assert product == expected, r


@pytest.mark.parametrize("outsiders", [1, 2, 3])
def test_a_non_member_passes_at_most_half_of_every_subset_choice(outsiders):
    # Six values give 2^6 = 64 subset choices, one per subset test: value
    # i is in subset r when bit i of r is set. Every mix of members and
    # 1-3 non-members of Z_23^* passes at most 32 of the 64.
    group = TOY_GROUP
    members = [x for x in range(1, group.p) if in_subgroup(group, x)]
    others = [x for x in range(1, group.p) if not in_subgroup(group, x)]
    assert len(members) == group.q and len(others) == group.p - 1 - group.q
    selectors = b"".join(
        sum(1 << r for r in range(64) if r >> i & 1).to_bytes(8, "little")
        for i in range(6))
    rng = random.Random(outsiders)
    for _ in range(200):
        values = (rng.sample(others, outsiders)
                  + rng.sample(members, 6 - outsiders))
        rng.shuffle(values)
        products = subset_products(values, selectors, group.p)
        for r, product in enumerate(products):
            chosen = [x for i, x in enumerate(values) if r >> i & 1]
            assert product == functools.reduce(
                lambda a, b: a * b % group.p, chosen, 1)
        assert sum(in_subgroup(group, x) for x in products) <= 32


def test_subgroup_members_drops_values_out_of_range():
    group = TOY_GROUP
    values = [0, 1, 2, 5, group.p, group.p + 2, -3]
    assert subgroup_members(values, group, None) == {1, 2}


def test_subgroup_members_is_exact_either_side_of_the_batch():
    group = MERSENNE127_GROUP
    rng = random.Random(0xba7c)
    honest = [group.commit(rng.getrandbits(127), rng.getrandbits(127))
              for _ in range(EXACT_CHECKS + 40)]
    for values in (honest[:EXACT_CHECKS], honest):
        source = SeededEntropy(b"members-%d" % len(values))
        assert subgroup_members(values, group, source) == set(values)
        batched = len(values) > EXACT_CHECKS
        assert source.bits_drawn == batched * SUBSET_TESTS * len(values)
        tainted = values[:-1] + [group.p - values[-1], values[0] + group.p]
        assert (subgroup_members(tainted, group, source)
                == set(values[:-1]))


def test_an_honest_batched_round_makes_subset_tests_powers_of_q(
        monkeypatch):
    group = MERSENNE127_GROUP
    holders = (1, 2, 3, 4)
    tracks = 16  # 4 * 16 * 2 = 128 commitments
    assert len(holders) * tracks * 2 > EXACT_CHECKS
    exponents = []

    def counting_mod_exp(base, exponent, modulus):
        exponents.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    outcome = renewal_round({j: (0,) * tracks for j in holders}, 2, group,
                            one_source(SeededEntropy(b"batched")))
    assert outcome.accepted
    assert exponents.count(group.q) == SUBSET_TESTS
    assert len(exponents) == SUBSET_TESTS + 4 * tracks * 2


@pytest.mark.parametrize("group", [MERSENNE127_GROUP, RFC5114_GROUP],
                         ids=lambda g: g.name)
def test_a_batched_round_accuses_exactly_what_the_exact_checks_do(
        group, monkeypatch):
    # 13 tracks of 4 holders at degree 2: 104 commitments, more than
    # EXACT_CHECKS. A twisted p - eps and an out-of-range eps + p ride in
    # it; the failed batch falls back to one check per value.
    holders = (1, 2, 3, 4)
    tracks = 13
    sent = {}
    powers_of_q = []

    def corrupt(d, packets):
        if d == 1:
            packet = packets[4]
            packet.commitments = ((group.p - packet.commitments[0],)
                                  + packet.commitments[1:])
        if d == 3:
            packet = packets[11]
            packet.commitments = (packet.commitments[:1]
                                  + (packet.commitments[1] + group.p,))
        sent[d] = packets
        return forward(d, packets)

    def counting_mod_exp(base, exponent, modulus):
        powers_of_q.append(exponent == group.q)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    outcome = renewal_round({j: (0,) * tracks for j in holders}, 2, group,
                            one_source(SeededEntropy(b"batched-accusal")),
                            deliver=corrupt)
    monkeypatch.undo()
    in_range = {eps for packets in sent.values() for packet in packets
                for eps in packet.commitments if eps < group.p}
    assert len(in_range) > EXACT_CHECKS
    assert sum(powers_of_q) > len(in_range)  # a batch ran, then the fallback
    expected = accusations_without_shared_set(
        [[sent[d][k] for d in holders] for k in range(tracks)], holders,
        group)
    assert {(a.accuser, a.accused) for a in expected} == {
        (2, 1), (3, 1), (4, 1), (1, 3), (2, 3), (4, 3)}
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == expected


def test_single_coordinate_perturbations_all_rejected():
    # every (s1 + d, s2) and (s1, s2 + d) with d != 0 fails, for every
    # recipient: exhaustive at toy scale
    rng = SeededEntropy(b"perturb")
    (packet,) = gen_renewal(1, (1, 2, 3, 4), 2, TOY_GROUP, rng, 1)
    for c in (1, 2, 3, 4):
        s1, s2 = packet.share_pairs[c]
        assert verify_renewal_share(c, packet, (s1, s2), TOY_GROUP)
        for d in range(1, 11):
            assert not verify_renewal_share(
                c, packet, ((s1 + d) % 11, s2), TOY_GROUP)
            assert not verify_renewal_share(
                c, packet, (s1, (s2 + d) % 11), TOY_GROUP)


def test_collinear_equivocation_is_the_known_binding_limit():
    # In the toy group log_g h = 3 is public knowledge, and any pair on
    # the line (s1 + 3t, s2 - t) opens the same commitment. Verification
    # accepting it is the Pedersen algebra working as designed; binding
    # comes from that log being unknown in the real groups.
    rng = SeededEntropy(b"collinear")
    (packet,) = gen_renewal(1, (2,), 1, TOY_GROUP, rng, 1)
    s1, s2 = packet.share_pairs[2]
    forged = ((s1 + 3) % 11, (s2 - 1) % 11)
    assert verify_renewal_share(2, packet, forged, TOY_GROUP)


# ------------------------------------------------------------ packet shapes

def test_gen_renewal_shape_and_completeness():
    rng = SeededEntropy(b"shape")
    for group in (TOY_GROUP, MERSENNE127_GROUP):
        for degree in (1, 2):
            (packet,) = gen_renewal(7, (1, 2, 3, 4), degree, group, rng, 1)
            assert packet.sender == 7
            assert len(packet.commitments) == degree
            assert set(packet.share_pairs) == {1, 2, 3, 4}
            for c in (1, 2, 3, 4):
                assert verify_renewal_share(
                    c, packet, packet.share_pairs[c], group)
    with pytest.raises(ConfigurationError):
        gen_renewal(1, (1, 2), 0, TOY_GROUP, rng, 1)


def test_gen_renewal_is_zero_rooted():
    # the contribution polynomials interpolate to 0 at x = 0
    rng = SeededEntropy(b"zero-root")
    (packet,) = gen_renewal(1, (1, 2, 3), 2, TOY_GROUP, rng, 1)
    for part in (0, 1):
        pts = [(c, packet.share_pairs[c][part]) for c in (1, 2, 3)]
        assert interpolate_at_zero(pts, F11) == 0


def test_rfc_group_verify_completeness():
    rng = SeededEntropy(b"rfc-run")
    (packet,) = gen_renewal(1, (1, 2, 3), 2, RFC5114_GROUP, rng, 1)
    for c in (1, 2, 3):
        assert verify_renewal_share(
            c, packet, packet.share_pairs[c], RFC5114_GROUP)


def dealings_one_track_at_a_time(recipients, degree, group, randomness,
                                 tracks):
    """(commitments, pairs) per track, each track dealt on its own: one
    random_int per coefficient, a_1..a_degree then b_1..b_degree;
    commitments by pow, pairs by Horner."""
    field = group.share_field()
    out = []
    for _ in range(tracks):
        drawn = [field.random_int(randomness) for _ in range(2 * degree)]
        a, b = [0] + drawn[:degree], [0] + drawn[degree:]
        commitments = tuple(pow(group.g, x, group.p) * pow(group.h, y, group.p)
                            % group.p for x, y in zip(a[1:], b[1:]))
        pairs = {c: (field.poly_eval_int(a, c), field.poly_eval_int(b, c))
                 for c in recipients}
        out.append((commitments, pairs))
    return out


def bits_taken(source):
    return (source.bits_drawn if isinstance(source, SeededEntropy)
            else source.consumed)


@pytest.mark.parametrize("pool", ["seeded", "ksa"])
@pytest.mark.parametrize("group", [TOY_GROUP, MERSENNE127_GROUP],
                         ids=lambda g: g.name)
def test_columnar_dealing_equals_one_dealing_per_track(group, pool):
    # the toy field's 4-bit draws reject 5 of 16 values, so the one draw
    # of every track's coefficients also crosses rejections
    def source():
        if pool == "seeded":
            return SeededEntropy(b"columns")
        return KsaSource(NodeSpec("A"), b"columns")

    recipients = (1, 2, 3, 4)
    for degree, tracks in ((1, 1), (2, 1), (2, 7), (3, 40)):
        dealt_from, oracle_from = source(), source()
        packets = gen_renewal(3, recipients, degree, group, dealt_from,
                              tracks, round_no=5)
        assert [(packet.commitments, packet.share_pairs)
                for packet in packets] == dealings_one_track_at_a_time(
                    recipients, degree, group, oracle_from, tracks)
        assert all(packet.sender == 3 and packet.round_no == 5
                   for packet in packets)
        assert bits_taken(dealt_from) == bits_taken(oracle_from)
        assert dealt_from.take_bits(64) == oracle_from.take_bits(64)


def test_a_pool_short_of_the_whole_dealing_refuses_before_taking_a_bit():
    # 5 tracks at degree 2 draw 20 values of 127 bits in one pass: a pool
    # one bit short refuses, though it holds enough for four tracks
    needed = 5 * 2 * 2 * 127
    pool = KsaSource(NodeSpec("A", initial_entropy_bits=needed - 1),
                     b"short")
    with pytest.raises(KeySupplyError):
        gen_renewal(1, (1, 2, 3, 4), 2, MERSENNE127_GROUP, pool, 5)
    assert pool.consumed == 0 and pool.available == needed - 1


# -------------------------------------------------------------------- rounds

def test_honest_round_preserves_secret_randomized():
    rng = SeededEntropy(b"invariance")
    picks = random.Random(41)
    for _ in range(100):
        secret = picks.randrange(11)
        shares = make_shares(secret, 2, F11, rng)
        outcome = renewal_round(shares, 2, TOY_GROUP, one_source(rng))
        assert outcome.accepted and not outcome.accusations
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            pts = [(j, outcome.new_shares[j][0]) for j in subset]
            assert interpolate_at_zero(pts, F11) == secret


def test_honest_round_large_group():
    group = MERSENNE127_GROUP
    field = group.share_field()
    rng = SeededEntropy(b"large-round")
    secret = field.random_int(rng)
    shares = make_shares(secret, 2, field, rng)
    outcome = renewal_round(shares, 2, group, one_source(rng))
    assert outcome.accepted
    pts = [(j, outcome.new_shares[j][0]) for j in (1, 3, 4)]
    assert interpolate_at_zero(pts, field) == secret
    assert outcome.new_shares != shares


def test_mixed_old_new_shares_break_reconstruction():
    rng = SeededEntropy(b"mixing")
    mismatches = 0
    trials = 200
    for _ in range(trials):
        shares = make_shares(6, 2, F11, rng)
        outcome = renewal_round(shares, 2, TOY_GROUP, one_source(rng))
        pts = [(1, shares[1][0]), (2, outcome.new_shares[2][0]),
               (3, outcome.new_shares[3][0])]
        mismatches += interpolate_at_zero(pts, F11) != 6
    # each mix misses except when the renewal offsets cancel (prob 1/11);
    # 165 is four sigma below the binomial mean of 181.8
    assert mismatches >= 165


def test_tampered_pair_triggers_accusation_and_no_update():
    rng = SeededEntropy(b"tamper")
    shares = make_shares(9, 2, F11, rng)
    sent = {}

    def tamper(d, packets):
        (packet,) = packets
        sent[d] = packet
        if d == 2:
            s1, s2 = packet.share_pairs[4]
            packet.share_pairs[4] = ((s1 + 1) % 11, s2)
        return forward(d, packets)

    outcome = renewal_round(shares, 2, TOY_GROUP, one_source(rng),
                            deliver=tamper)
    assert not outcome.accepted
    assert outcome.new_shares is None
    assert any(a.accuser == 4 and a.accused == sent[2].sender
               for a in outcome.accusations)


def test_missing_pair_triggers_accusation():
    rng = SeededEntropy(b"missing-pair")
    shares = make_shares(3, 2, F11, rng)
    sent = {}

    def drop(d, packets):
        (packet,) = packets
        sent[d] = packet
        if d == 1:
            del packet.share_pairs[2]
        return forward(d, packets)

    outcome = renewal_round(shares, 2, TOY_GROUP, one_source(rng),
                            deliver=drop)
    assert not outcome.accepted
    assert any(a.accuser == 2 and a.accused == sent[1].sender
               for a in outcome.accusations)


def test_zero_participant_round_is_noop():
    outcome = renewal_round({}, 2, TOY_GROUP, {})
    assert outcome.accepted and outcome.new_shares == {}


def test_round_needs_randomness_or_packets():
    with pytest.raises(ConfigurationError):
        renewal_round({1: (4,), 2: (5,), 3: (6,)}, 2, TOY_GROUP,
                      {1: SeededEntropy(b"one-source")})


def test_round_with_per_holder_randomness():
    shares = make_shares(2, 2, F11, SeededEntropy(b"per-holder-setup"))
    sources = {j: SeededEntropy(b"holder-rng-%d" % j) for j in shares}
    outcome = renewal_round(shares, 2, TOY_GROUP, sources)
    assert outcome.accepted
    pts = [(j, outcome.new_shares[j][0]) for j in (1, 2, 4)]
    assert interpolate_at_zero(pts, F11) == 2


def test_multi_track_round_renews_every_track_and_names_a_failed_one():
    rng = SeededEntropy(b"tracks")
    secrets = (3, 7, 10)
    polys = [random_polynomial(2, secret, F11, rng) for secret in secrets]
    shares = {j: tuple(poly.evaluate(j) for poly in polys)
              for j in (1, 2, 3, 4)}
    senders = []

    def deliver(d, packets):
        senders.append((d, len(packets)))
        return forward(d, packets)

    outcome = renewal_round(shares, 2, TOY_GROUP, one_source(rng),
                            deliver=deliver)
    assert senders == [(d, 3) for d in (1, 2, 3, 4)]
    assert outcome.accepted
    for track, secret in enumerate(secrets):
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            pts = [(j, outcome.new_shares[j][track]) for j in subset]
            assert interpolate_at_zero(pts, F11) == secret

    def tamper(d, packets):
        got = forward(d, packets)
        if d == 3:
            s1, s2 = got[1][1][2]
            got[1][1][2] = ((s1 + 1) % 11, s2)
        return got

    renewed = outcome.new_shares
    outcome = renewal_round(renewed, 2, TOY_GROUP, one_source(rng),
                            round_no=1, deliver=tamper)
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == (
        Accusation(1, 3, "commitment check failed on track 2"),)


def recording_checks(monkeypatch):
    """Route renewal_round's checks through a recorder: (recipient,
    sender, passed) per call, sender 0 for a dealers' summed packet."""
    checks = []

    def recording(recipient, packet, pair, config, members=None):
        passed = verify_renewal_share(recipient, packet, pair, config,
                                      members)
        checks.append((recipient, packet.sender, passed))
        return passed

    monkeypatch.setattr(itstore.protocol, "verify_renewal_share", recording)
    return checks


def test_every_wrong_pair_fails_the_summed_check_and_names_its_dealer(
        monkeypatch):
    # Exhaustive over every dealer, recipient and nonzero shift (d1, d2)
    # of the pair sent. The toy group's log_g h = 3 is public, so a shift
    # with d1 + 3 d2 = 0 mod 11 opens the same commitment (the binding
    # limit above): the dealer's own check passes it too. Every other
    # shift fails the summed check, and the fallback accuses that dealer
    # and no one else.
    group = TOY_GROUP
    holders = (1, 2, 3, 4)
    assert group.h == pow(group.g, 3, group.p)
    checks = recording_checks(monkeypatch)
    rng = SeededEntropy(b"every-shift")
    for dealer, recipient in itertools.permutations(holders, 2):
        for d1, d2 in itertools.product(range(11), repeat=2):
            if d1 == d2 == 0:
                continue

            def shift(d, packets):
                got = forward(d, packets)
                if d == dealer:
                    s1, s2 = got[recipient][1][0]
                    got[recipient][1][0] = ((s1 + d1) % 11, (s2 + d2) % 11)
                return got

            checks.clear()
            outcome = renewal_round(make_shares(5, 2, F11, rng), 2, group,
                                    one_source(rng), deliver=shift)
            summed = [(c, passed) for c, sender, passed in checks
                      if sender == 0]
            if (d1 + 3 * d2) % 11 == 0:
                assert summed == [(c, True) for c in holders]
                assert outcome.accepted
                continue
            assert summed == [(c, c != recipient) for c in holders]
            assert not outcome.accepted and outcome.new_shares is None
            assert outcome.accusations == (Accusation(
                recipient, dealer, "commitment check failed on track 0"),)


def test_errors_that_cancel_at_one_recipient_pass_and_keep_the_secret():
    # Dealers 1 and 2 shift their pairs to holder 4 by opposite amounts.
    # Each wrong pair fails its own dealer's check, but their sum is the
    # honest sum, which is all holder 4 adds to its share.
    group = MERSENNE127_GROUP
    field = group.share_field()
    q = field.q
    holders = (1, 2, 3, 4)
    rng = SeededEntropy(b"cancel")
    secret = field.random_int(rng)
    shares = make_shares(secret, 2, field, rng)
    wrong = {}

    def cancel(d, packets):
        got = forward(d, packets)
        if d in (1, 2):
            sign = 1 if d == 1 else -1
            s1, s2 = got[4][1][0]
            got[4][1][0] = ((s1 + sign * 5) % q, (s2 - sign * 9) % q)
            wrong[d] = RenewalPacket(d, 0, got[4][0][0], {4: got[4][1][0]})
        return got

    outcome = renewal_round(shares, 2, group, one_source(rng),
                            deliver=cancel)
    for packet in wrong.values():
        assert not verify_renewal_share(4, packet, packet.share_pairs[4],
                                        group)
    assert outcome.accepted and not outcome.accusations
    assert all(outcome.new_shares[j] != shares[j] for j in holders)
    for subset in itertools.combinations(holders, 3):
        pts = [(j, outcome.new_shares[j][0]) for j in subset]
        assert interpolate_at_zero(pts, field) == secret


def test_apply_renewal_missing_recipient():
    rng = SeededEntropy(b"apply-miss")
    (packet,) = gen_renewal(1, (1, 2), 1, TOY_GROUP, rng, 1)
    with pytest.raises(ProtocolError):
        apply_renewal(5, 3, [packet], TOY_GROUP)
