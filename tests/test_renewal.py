"""Tests for verifiable share renewal.

Frozen values are hand-worked in the toy group p=23, q=11, g=2, h=8.
The commitment oracle multiplies out g^a h^b by repeated multiplication,
independent of mod_exp.
"""

import collections
import functools
import itertools
import random

import pytest

import itstore.protocol
import itstore.renewal
from itstore.entropy import SeededEntropy
from itstore.errors import ConfigurationError, KeySupplyError
from itstore.field import PrimeField, random_polynomial
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
    gen_renewal,
    group_by_name,
    subgroup_members,
    subset_products,
    summed_dealing,
    verify_renewal_share,
)
from itstore.wire import Packed, column
from oracles import (
    bits_drawn,
    derive_subgroup_element,
    interpolate_at_zero,
    members_of,
    random_int,
    renew,
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


def forward(d, commitments, pairs, holders=(1, 2, 3, 4)):
    """What every holder other than d receives from d's columns when the
    transport changes nothing, in lists of its own."""
    return {j: (list(commitments), list(pairs[j]))
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
    members = members_of((16,), TOY_GROUP)
    assert verify_renewal_share(3, (16,), (4, 10), TOY_GROUP, members)
    assert not verify_renewal_share(3, (16,), (5, 10), TOY_GROUP, members)
    assert not verify_renewal_share(3, (16,), (4, 9), TOY_GROUP, members)


def test_verify_all_zero_polynomials():
    assert verify_renewal_share(1, (1, 1), (0, 0), TOY_GROUP,
                                members_of((1, 1), TOY_GROUP))


def test_verify_rejects_elements_outside_subgroup():
    # 5 has order 22 mod 23, not 11
    assert not verify_renewal_share(2, (5,), (0, 0), TOY_GROUP,
                                    members_of((5,), TOY_GROUP))


def accusations_without_shared_set(sent, group):
    """What renewal_round must accuse, recipient by recipient, track by
    track and dealer by dealer, each check made with no shared set;
    sent[d] holds dealer d's (commitments, pairs) columns."""
    holders = sorted(sent)
    tracks = len(sent[holders[0]][0])
    return tuple(Accusation(c, d, "commitment check failed on track %d" % k)
                 for c in holders for k in range(tracks) for d in holders
                 if c != d and not verify_renewal_share(
                     c, sent[d][0][k], sent[d][1][c][k], group,
                     members_of(sent[d][0][k], group)))


def test_non_member_commitments_are_accused_by_every_recipient():
    # p - eps has order 2q: in range, but its q-th power is -1. For even
    # recipients the sign cancels on the right-hand side (c^j is even),
    # so only the membership check rejects them. eps + p is congruent to
    # eps, so only the range check rejects it, for every recipient.
    group = MERSENNE127_GROUP
    holders = (1, 2, 3, 4)
    sent = {}

    def corrupt(d, commitments, pairs):
        (eps,) = commitments
        if d == 1:
            twisted = group.p - eps[0]
            commitments[0] = (twisted,) + eps[1:]
        if d == 3:
            out_of_range = eps[1] + group.p
            commitments[0] = eps[:1] + (out_of_range,)
        sent[d] = (commitments, pairs)
        return forward(d, commitments, pairs)

    shares = {j: (0,) for j in holders}
    outcome = renew(shares, 2, group,
                    one_source(SeededEntropy(b"non-member")),
                    deliver=corrupt)
    (first,), first_pairs = sent[1]
    (second,), _ = sent[3]
    twisted = first[0]
    out_of_range = second[1]
    for c in (2, 4):
        rhs = pow(twisted, c, group.p) * pow(first[1], c * c,
                                             group.p) % group.p
        assert rhs == group.commit(*first_pairs[c][0])

    expected = accusations_without_shared_set(sent, group)
    assert {(a.accuser, a.accused) for a in expected} == {
        (2, 1), (3, 1), (4, 1), (1, 3), (2, 3), (4, 3)}
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == expected

    members = subgroup_members(
        (eps for d in holders for eps in sent[d][0][0]), group, None)
    assert twisted not in members and out_of_range not in members
    assert all(0 < eps < group.p and pow(eps, group.q, group.p) == 1
               for eps in members)
    assert {eps for d in (2, 4) for eps in sent[d][0][0]} <= members
    for c in (2, 4):
        assert not verify_renewal_share(c, first, first_pairs[c][0],
                                        group, members)


def test_round_checks_each_commitment_once(monkeypatch):
    group = MERSENNE127_GROUP
    holders = (1, 2, 3, 4)
    exponents = []

    def counting_mod_exp(base, exponent, modulus):
        exponents.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    outcome = renew({j: (0,) for j in holders}, 2, group,
                    one_source(SeededEntropy(b"check-once")))
    assert outcome.accepted
    # 4 packets x 2 commitments checked once each; each of 4 recipients
    # checks the dealers' summed pair once, 2 right-hand-side powers with
    # exponents c^j <= 16
    assert exponents.count(group.q) == 8
    assert len(exponents) == 8 + 8
    assert max(e for e in exponents if e != group.q) == 16


def test_a_non_member_commitment_costs_no_power_past_the_membership_check(
        monkeypatch):
    # fails at the parent commit: its per-dealer fallback powered p - 1
    # again at each of the three recipients that dealer 1 dealt to
    group = MERSENNE127_GROUP
    holders = (1, 2, 3, 4)
    exponents = []

    def twist(d, commitments, pairs):
        if d == 1:  # p - 1 is in range, and its q-th power is -1
            (eps,) = commitments
            commitments[0] = (group.p - 1,) + eps[1:]
        return forward(d, commitments, pairs)

    def counting_mod_exp(base, exponent, modulus):
        exponents.append(exponent)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    outcome = renew({j: (0,) for j in holders}, 2, group,
                    one_source(SeededEntropy(b"twisted")), deliver=twist)
    # subgroup_members powers the 8 distinct commitments once each;
    # holder 1 checks the summed pair with 2 right-hand-side powers, and
    # holders 2-4 check dealer by dealer: 2 powers for each of their two
    # honest dealers, none for dealer 1
    assert exponents.count(group.q) == 8
    assert len(exponents) == 8 + 2 + 3 * 2 * 2
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == tuple(
        Accusation(c, 1, "commitment check failed on track 0")
        for c in (2, 3, 4))


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
        assert bits_drawn(source) == batched * SUBSET_TESTS * len(values)
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
    outcome = renew({j: (0,) * tracks for j in holders}, 2, group,
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

    def corrupt(d, commitments, pairs):
        if d == 1:
            eps = commitments[4]
            commitments[4] = (group.p - eps[0],) + eps[1:]
        if d == 3:
            eps = commitments[11]
            commitments[11] = eps[:1] + (eps[1] + group.p,)
        sent[d] = (commitments, pairs)
        return forward(d, commitments, pairs)

    def counting_mod_exp(base, exponent, modulus):
        powers_of_q.append(exponent == group.q)
        return pow(base, exponent, modulus)

    monkeypatch.setattr(itstore.renewal, "mod_exp", counting_mod_exp)
    outcome = renew({j: (0,) * tracks for j in holders}, 2, group,
                    one_source(SeededEntropy(b"batched-accusal")),
                    deliver=corrupt)
    monkeypatch.undo()
    in_range = {eps for commitments, _ in sent.values()
                for track in commitments for eps in track if eps < group.p}
    assert len(in_range) > EXACT_CHECKS
    assert sum(powers_of_q) > len(in_range)  # a batch ran, then the fallback
    expected = accusations_without_shared_set(sent, group)
    assert {(a.accuser, a.accused) for a in expected} == {
        (2, 1), (3, 1), (4, 1), (1, 3), (2, 3), (4, 3)}
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == expected


def test_single_coordinate_perturbations_all_rejected():
    # every (s1 + d, s2) and (s1, s2 + d) with d != 0 fails, for every
    # recipient: exhaustive at toy scale
    rng = SeededEntropy(b"perturb")
    (eps,), pairs = gen_renewal((1, 2, 3, 4), 2, TOY_GROUP, rng, 1)
    for c in (1, 2, 3, 4):
        ((s1, s2),) = pairs[c]
        members = members_of(eps, TOY_GROUP)
        assert verify_renewal_share(c, eps, (s1, s2), TOY_GROUP, members)
        for d in range(1, 11):
            assert not verify_renewal_share(
                c, eps, ((s1 + d) % 11, s2), TOY_GROUP, members)
            assert not verify_renewal_share(
                c, eps, (s1, (s2 + d) % 11), TOY_GROUP, members)


def test_collinear_equivocation_is_the_known_binding_limit():
    # In the toy group log_g h = 3 is public knowledge, and any pair on
    # the line (s1 + 3t, s2 - t) opens the same commitment. Verification
    # accepting it is the Pedersen algebra working as designed; binding
    # comes from that log being unknown in the real groups.
    rng = SeededEntropy(b"collinear")
    (eps,), pairs = gen_renewal((2,), 1, TOY_GROUP, rng, 1)
    ((s1, s2),) = pairs[2]
    forged = ((s1 + 3) % 11, (s2 - 1) % 11)
    assert verify_renewal_share(2, eps, forged, TOY_GROUP,
                                members_of(eps, TOY_GROUP))


# ------------------------------------------------------------ dealing shapes

def test_gen_renewal_shape_and_completeness():
    rng = SeededEntropy(b"shape")
    for group in (TOY_GROUP, MERSENNE127_GROUP):
        for degree in (1, 2):
            (eps,), pairs = gen_renewal((1, 2, 3, 4), degree, group, rng, 1)
            assert len(eps) == degree
            assert set(pairs) == {1, 2, 3, 4}
            for c in (1, 2, 3, 4):
                assert verify_renewal_share(c, eps, pairs[c][0], group,
                                            members_of(eps, group))


def test_gen_renewal_is_zero_rooted():
    # the contribution polynomials interpolate to 0 at x = 0
    rng = SeededEntropy(b"zero-root")
    _, pairs = gen_renewal((1, 2, 3), 2, TOY_GROUP, rng, 1)
    for part in (0, 1):
        pts = [(c, pairs[c][0][part]) for c in (1, 2, 3)]
        assert interpolate_at_zero(pts, F11) == 0


class FixedBits:
    """A source that hands out one fixed integer's bits, once."""

    def __init__(self, value):
        self.value = value

    def take_bits(self, nbits):
        value, self.value = self.value, None
        assert value is not None and value >> nbits == 0
        return value


def toy_view(recipient, a, b):
    """What one recipient sees of the toy one-track degree-2 dealing with
    P1 coefficients a and P2 coefficients b: (commitments, its pair), as
    gen_renewal deals it. Every value is below 11, so the field's 4-bit
    draws keep each in order."""
    bits = 0
    for v in a + b:
        bits = bits << 4 | v
    (eps,), pairs = gen_renewal((recipient,), 2, TOY_GROUP, FixedBits(bits),
                                1)
    return eps, pairs[recipient][0]


def test_commitments_beside_one_pair_reveal_nothing_more_than_the_pair():
    # Over all 121 blinding vectors (b1, b2), two dealings whose P1 agree
    # at c give c the same multiset of (commitments, pair). So a holder
    # that sees a dealer's commitments in the clear learns no more of the
    # dealer's P1 than its own pair tells it, which is why renew-commits
    # bodies may travel unpadded.
    vectors = list(itertools.product(range(11), repeat=2))
    for c in (1, 2, 3, 4):
        views = collections.defaultdict(list)
        for a in vectors:
            at_c = (a[0] * c + a[1] * c * c) % 11
            views[at_c].append(collections.Counter(
                toy_view(c, a, b) for b in vectors))
        assert sorted(views) == list(range(11))
        for same in views.values():
            assert len(same) == 11
            assert all(view == same[0] for view in same), c
        # the pair does show P1(c): dealings that differ there differ
        assert views[0][0] != views[1][0]


def test_rfc_group_verify_completeness():
    rng = SeededEntropy(b"rfc-run")
    (eps,), pairs = gen_renewal((1, 2, 3), 2, RFC5114_GROUP, rng, 1)
    for c in (1, 2, 3):
        assert verify_renewal_share(c, eps, pairs[c][0], RFC5114_GROUP,
                                    members_of(eps, RFC5114_GROUP))


def dealings_one_track_at_a_time(recipients, degree, group, randomness,
                                 tracks):
    """(commitments, pairs) per track, each track dealt on its own: one
    random_int per coefficient, a_1..a_degree then b_1..b_degree;
    commitments by pow, pairs by Horner."""
    field = group.share_field()
    out = []
    for _ in range(tracks):
        drawn = [random_int(field, randomness) for _ in range(2 * degree)]
        a, b = [0] + drawn[:degree], [0] + drawn[degree:]
        commitments = tuple(pow(group.g, x, group.p) * pow(group.h, y, group.p)
                            % group.p for x, y in zip(a[1:], b[1:]))
        pairs = {c: (field.poly_eval_int(a, c), field.poly_eval_int(b, c))
                 for c in recipients}
        out.append((commitments, pairs))
    return out


def bits_taken(source):
    return (bits_drawn(source) if isinstance(source, SeededEntropy)
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
        commitments, pairs = gen_renewal(recipients, degree, group,
                                         dealt_from, tracks)
        assert set(pairs) == set(recipients)
        assert [(commitments[k], {c: pairs[c][k] for c in recipients})
                for k in range(tracks)] == dealings_one_track_at_a_time(
                    recipients, degree, group, oracle_from, tracks)
        assert bits_taken(dealt_from) == bits_taken(oracle_from)
        assert dealt_from.take_bits(64) == oracle_from.take_bits(64)


def test_a_pool_short_of_the_whole_dealing_refuses_before_taking_a_bit():
    # 5 tracks at degree 2 draw 20 values of 127 bits in one pass: a pool
    # one bit short refuses, though it holds enough for four tracks
    needed = 5 * 2 * 2 * 127
    pool = KsaSource(NodeSpec("A", initial_entropy_bits=needed - 1),
                     b"short")
    with pytest.raises(KeySupplyError):
        gen_renewal((1, 2, 3, 4), 2, MERSENNE127_GROUP, pool, 5)
    assert pool.consumed == 0 and pool.available == needed - 1


# -------------------------------------------------------------------- rounds

def test_honest_round_preserves_secret_randomized():
    rng = SeededEntropy(b"invariance")
    picks = random.Random(41)
    for _ in range(100):
        secret = picks.randrange(11)
        shares = make_shares(secret, 2, F11, rng)
        outcome = renew(shares, 2, TOY_GROUP, one_source(rng))
        assert outcome.accepted and not outcome.accusations
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            pts = [(j, outcome.new_shares[j][0]) for j in subset]
            assert interpolate_at_zero(pts, F11) == secret


def test_honest_round_large_group():
    group = MERSENNE127_GROUP
    field = group.share_field()
    rng = SeededEntropy(b"large-round")
    secret = random_int(field, rng)
    shares = make_shares(secret, 2, field, rng)
    outcome = renew(shares, 2, group, one_source(rng))
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
        outcome = renew(shares, 2, TOY_GROUP, one_source(rng))
        pts = [(1, shares[1][0]), (2, outcome.new_shares[2][0]),
               (3, outcome.new_shares[3][0])]
        mismatches += interpolate_at_zero(pts, F11) != 6
    # each mix misses except when the renewal offsets cancel (prob 1/11);
    # 165 is four sigma below the binomial mean of 181.8
    assert mismatches >= 165


def test_tampered_pair_triggers_accusation_and_no_update():
    rng = SeededEntropy(b"tamper")
    shares = make_shares(9, 2, F11, rng)

    def tamper(d, commitments, pairs):
        if d == 2:
            s1, s2 = pairs[4][0]
            pairs[4][0] = ((s1 + 1) % 11, s2)
        return forward(d, commitments, pairs)

    outcome = renew(shares, 2, TOY_GROUP, one_source(rng),
                    deliver=tamper)
    assert not outcome.accepted
    assert outcome.new_shares is None
    assert any(a.accuser == 4 and a.accused == 2
               for a in outcome.accusations)


def test_zero_participant_round_is_noop():
    outcome = renew({}, 2, TOY_GROUP, {})
    assert outcome.accepted and outcome.new_shares == {}


def test_round_with_per_holder_randomness():
    shares = make_shares(2, 2, F11, SeededEntropy(b"per-holder-setup"))
    sources = {j: SeededEntropy(b"holder-rng-%d" % j) for j in shares}
    outcome = renew(shares, 2, TOY_GROUP, sources)
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

    def deliver(d, commitments, pairs):
        senders.append((d, len(commitments)))
        return forward(d, commitments, pairs)

    outcome = renew(shares, 2, TOY_GROUP, one_source(rng),
                    deliver=deliver)
    assert senders == [(d, 3) for d in (1, 2, 3, 4)]
    assert outcome.accepted
    for track, secret in enumerate(secrets):
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            pts = [(j, outcome.new_shares[j][track]) for j in subset]
            assert interpolate_at_zero(pts, F11) == secret

    def tamper(d, commitments, pairs):
        got = forward(d, commitments, pairs)
        if d == 3:
            s1, s2 = got[1][1][2]
            got[1][1][2] = ((s1 + 1) % 11, s2)
        return got

    renewed = outcome.new_shares
    outcome = renew(renewed, 2, TOY_GROUP, one_source(rng),
                    deliver=tamper)
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == (
        Accusation(1, 3, "commitment check failed on track 2"),)


def test_a_dealing_of_the_wrong_degree_is_accused_on_every_track():
    # Dealer 1 hands holders 2-4 a consistent degree-3 dealing: each pair
    # lies on the committed polynomials, so the per-dealer check alone
    # passes it, but folded in it lifts the shares off every degree-2
    # sharing of the secret. The commitment count is what refuses it.
    group = MERSENNE127_GROUP
    field = group.share_field()
    holders = (1, 2, 3, 4)
    rng = SeededEntropy(b"wrong-degree")
    polys = [random_polynomial(2, random_int(field, rng), field, rng)
             for _ in range(2)]
    shares = {j: tuple(poly.evaluate(j) for poly in polys) for j in holders}
    dealt = {}

    def degree_three(d, commitments, pairs):
        if d == 1:
            commitments, pairs = gen_renewal(
                holders, 3, group, SeededEntropy(b"degree-three"), 2)
            dealt.update(commitments=commitments, pairs=pairs)
        return forward(d, commitments, pairs)

    outcome = renew(shares, 2, group,
                    one_source(SeededEntropy(b"round")),
                    deliver=degree_three)
    assert all(len(eps) == 3 for eps in dealt["commitments"])
    assert all(verify_renewal_share(c, eps, pair, group,
                                    members_of(eps, group))
               for c in (2, 3, 4) for eps, pair in zip(
                   dealt["commitments"], dealt["pairs"][c]))
    assert not outcome.accepted and outcome.new_shares is None
    assert outcome.accusations == tuple(
        Accusation(c, 1, "commitment check failed on track %d" % track)
        for c in (2, 3, 4) for track in range(2))

    honest = renew(shares, 2, group,
                   one_source(SeededEntropy(b"round")),
                   deliver=forward)
    assert honest.accepted and not honest.accusations
    assert {j: len(renewed) for j, renewed in honest.new_shares.items()} == {
        j: 2 for j in holders}
    for track, poly in enumerate(polys):
        for subset in itertools.combinations(holders, 3):
            pts = [(j, honest.new_shares[j][track]) for j in subset]
            assert interpolate_at_zero(pts, field) == poly.evaluate(0)


def recording_checks(monkeypatch):
    """Route renewal_round's checks through a recorder: (recipient,
    summed, passed) per call, summed true for a check of the dealers'
    summed dealing."""
    checks = []
    latest = [None]  # the products of the last summed dealing

    def summing(commitments, pairs, config, members):
        dealing = summed_dealing(commitments, pairs, config, members)
        latest[0] = dealing and dealing[0]
        return dealing

    def recording(recipient, commitments, pair, config, members):
        passed = verify_renewal_share(recipient, commitments, pair, config,
                                      members)
        checks.append((recipient, commitments is latest[0], passed))
        return passed

    monkeypatch.setattr(itstore.protocol, "summed_dealing", summing)
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

            def shift(d, commitments, pairs):
                got = forward(d, commitments, pairs)
                if d == dealer:
                    s1, s2 = got[recipient][1][0]
                    got[recipient][1][0] = ((s1 + d1) % 11, (s2 + d2) % 11)
                return got

            checks.clear()
            outcome = renew(make_shares(5, 2, F11, rng), 2, group,
                            one_source(rng), deliver=shift)
            summed = [(c, passed) for c, is_sum, passed in checks
                      if is_sum]
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
    secret = random_int(field, rng)
    shares = make_shares(secret, 2, field, rng)
    wrong = {}

    def cancel(d, commitments, pairs):
        got = forward(d, commitments, pairs)
        if d in (1, 2):
            sign = 1 if d == 1 else -1
            s1, s2 = got[4][1][0]
            got[4][1][0] = ((s1 + sign * 5) % q, (s2 - sign * 9) % q)
            wrong[d] = (got[4][0][0], got[4][1][0])
        return got

    outcome = renew(shares, 2, group, one_source(rng),
                    deliver=cancel)
    for eps, pair in wrong.values():
        assert not verify_renewal_share(4, eps, pair, group,
                                        members_of(eps, group))
    assert outcome.accepted and not outcome.accusations
    assert all(outcome.new_shares[j] != shares[j] for j in holders)
    for subset in itertools.combinations(holders, 3):
        pts = [(j, outcome.new_shares[j][0]) for j in subset]
        assert interpolate_at_zero(pts, field) == secret


@pytest.mark.parametrize("fault", ["honest", "shifted", "twisted"])
def test_a_round_fed_byte_columns_renews_as_one_fed_tuples(fault):
    # The same sources fed twice: once as tuples (the shares, through
    # oracles.renew) and the lists a deliver hands on, once as Packed
    # views of share, commitment and pair columns. A twisted commitment,
    # p - 1, is in range but outside the subgroup.
    group = MERSENNE127_GROUP
    field = group.share_field()
    q, width = field.q, field.byte_width
    p_width = (group.p.bit_length() + 7) // 8
    holders = (1, 2, 3, 4)
    rng = SeededEntropy(b"fed-columns")
    polys = [random_polynomial(2, random_int(field, rng), field, rng)
             for _ in range(3)]
    shares = {j: tuple(poly.evaluate(j) for poly in polys) for j in holders}

    def faulty(d, commitments, pairs):
        got = forward(d, commitments, pairs)
        if d == 2 and fault == "shifted":
            s1, s2 = got[3][1][1]
            got[3][1][1] = ((s1 + 1) % q, s2)
        if d == 2 and fault == "twisted":
            got[3][0][1] = (group.p - 1,) + got[3][0][1][1:]
        return got

    def as_columns(d, commitments, pairs):
        return {j: (Packed(column([eps for track in eps_list
                                   for eps in track], p_width), p_width, 2),
                        Packed(column([v for pair in sent for v in pair],
                                      width), width, 2))
                for j, (eps_list, sent) in faulty(d, commitments,
                                                  pairs).items()}

    fed_tuples = renew(shares, 2, group,
                       one_source(SeededEntropy(b"same-sources")),
                       deliver=faulty)
    sources = one_source(SeededEntropy(b"same-sources"))
    fed_columns = renewal_round(
        {j: Packed(column(shares[j], width), width) for j in holders}, 2,
        group, sources, as_columns, lambda _: sources[1])
    assert fed_columns.accepted == fed_tuples.accepted == (fault == "honest")
    assert fed_columns.accusations == fed_tuples.accusations
    if fault == "honest":
        assert {j: tuple(view) for j, view
                in fed_columns.new_shares.items()} == fed_tuples.new_shares
        assert all(isinstance(view, Packed)
                   for view in fed_columns.new_shares.values())
        assert fed_tuples.new_shares != shares
    else:
        assert fed_columns.new_shares is fed_tuples.new_shares is None
        assert fed_tuples.accusations == (Accusation(
            3, 2, "commitment check failed on track 1"),)


# ------------------------------------------------------------ refusals


def test_a_group_of_composite_moduli_is_refused():
    # 45 - 1 and 19 - 1 are multiples of 11 and of 9, so only primality
    # fails; 45 = 5 * 9 and 9 = 3 * 3
    for p, q, message in ((45, 11, "commitment modulus p is not prime"),
                          (19, 9, "share modulus q is not prime")):
        with pytest.raises(ConfigurationError) as info:
            RenewalGroupConfig(p=p, q=q, g=2, h=3).validate()
        assert str(info.value) == message
