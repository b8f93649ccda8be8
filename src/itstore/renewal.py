"""Verifiable share renewal with Pedersen commitments.

Periodically every holder i contributes a pair of polynomials P_i1, P_i2
of the track's degree with zero constant term, commits to the coefficient
pairs as

    eps_ij = g^{a_ij} h^{b_ij} mod p        (j = 1 .. degree)

and sends each other holder c the evaluation pair (P_i1(c), P_i2(c)).
Recipient c checks every pair against the public commitments,

    g^{s1} h^{s2} == prod_j eps_ij^{c^j}  (mod p, exponents mod q),

and on unanimous acceptance every holder folds all contributions into its
share: new(i) = old(i) + sum_d (P_d1(i) + P_d2(i)) mod q. The zero
constant terms leave the shared secret untouched while re-randomizing all
shares, so leaked pre-renewal shares stop combining with post-renewal
ones. Any failed check aborts the round with the sender accused and no
share changed.

Shares live in F_q and q must divide p - 1 so the commitments sit in the
order-q subgroup mod p. Binding rests on nobody knowing log_g h, which is
why the shipped groups derive g and h from tiny public constants by
cofactor exponentiation. Transport concerns belong to the protocol layer:
the evaluation pairs travel one-time padded, and the commitments, which
are perfectly hiding and so may be public, travel in the clear under a
padded Wegman-Carter digest that keeps them whole. This module works on
the cleartext values.

Cost model. g and h are fixed, so commit() reads g^a h^b off fixed-base
window tables (Brickell-Gordon-McCurley-Wilson, EUROCRYPT 1992): one row
of 256 powers per 8-bit digit of the exponent and base, so a commitment
is 2 * ceil(bits(q) / 8) table look-ups and mulmods instead of two full
exponentiations. The tables are built on a group's first commit and kept
on the group object (mersenne127: 32 rows, about 8,000 mulmods and 0.5 MB).
A commitment's subgroup membership (0 < eps < p and eps^q == 1) is
settled once per round for every distinct value received, by
subgroup_members before any pair is checked; verify_renewal_share fails
any commitment outside the members it proved, and powers none. Up to
EXACT_CHECKS = 96 distinct values are checked one full-width power
each. Above that, one random-subset batch
(Bellare-Garay-Rabin, EUROCRYPT 1998) checks them all: each value gets
64 private random bits, bit r putting it in subset r, and each of the 64
subset products must have a q-th power of 1. The members form a
subgroup, so for a value x outside it, with every other bit fixed, a
product with x and the same product without x cannot both be members:
each test passes x with probability at most 1/2, and a round holding a
non-member passes the batch with probability at most 2^-64, whatever
the group and the order of x. (The small-exponent test gives no such
bound here: mersenne127's cofactor 2 * 7 * 41^2 * 577 * 65407 *
(90-bit prime) has small factors; Boyd-Pavlovski, ASIACRYPT 2000.) A
failed batch falls back to one power per value, so the values proven
members, and hence every accusation, are the ones the exact check gives.
The batch costs 64 powers, 8 bucket mulmods per value and 4,080 mulmods
to fold the buckets, against one power per value.
A round (protocol.renewal_round, which TpvSession.renew runs over its
transport) works in columns from the dealer to apply_renewal. Each
dealer deals all T of its tracks with one gen_renewal call: one
random_ints draw of 2*t*T coefficients and one eval_columns pass per
recipient, giving a column of T commitment tuples and, per recipient, a
column of T pairs. In a session each holder keeps the commitment and
pair columns it received as the bytes that arrived, its own pairs and
its shares as byte columns too (wire.Packed views), and the round
decodes one holder's at a time: membership streams the distinct values
out of every received column, and a holder's inputs are decoded only
while it checks and folds its tracks, into the renewed column that
apply_renewal stores. Each holder c checks each track once, against
the pairs the other dealers d sent it, summed:

    g^{sum_d s1_d} h^{sum_d s2_d} == prod_j (prod_d eps_dj)^{c^j}.

Its own pairs cannot be altered on the way and are not checked. The
check is sound for what renewal needs: by binding, a passing sum equals
the sum of the committed polynomials' values at c, and that sum is all
apply_renewal adds. One wrong pair fails it. Errors of two or more
dealers that cancel at one recipient pass it, and the renewed share is
then still the right one; one check per dealer would have aborted that
round. A dealer that sent a track other than exactly t commitments is
accused on it, since a consistent dealing of another degree passes its
own check. A failed sum or a commitment outside the round's members
sends the track back to one check per dealer, which accuses whoever
fails. The summed check is the product of the dealers' own checks, so
a failed sum has at least one dealer that fails, and no track is folded
without passing its summed check. A product of members is a member, so
summed_dealing adds the products to the members and they cost no
full-width power.
Cost of an honest round with n holders, degree t and T tracks, so
K = n*T*t commitments: K commitments to deal and n*T to check, all from
the tables; n*T*t calls of mod_exp for the right-hand-side powers, whose
exponents are the recipient's index powers c^j (at most 16 in a (3,4)
layout); and the membership check: K full-width powers when K <= 96,
else 64. At n = 4, t = 2, T = 652 that is 7,824 commitments and 5,216
right-hand-side powers, against 13,040 and 15,648 with one check per
dealer.

Both checks rest on the commitments being a broadcast: every holder
must get the same eps_dj from dealer d. Holders never compare the
commitments a dealer sent each of them, so a dealer that sent each
holder commitments to a different polynomial could pass every check
with pairs that lie on no one zero-rooted polynomial, and the renewed
shares would stop interpolating to the secret. TpvSession.renew encodes
one renew-commits message per dealer and sends its bytes to every
holder, so the simulation never does this, but nothing checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

from .errors import ConfigurationError
from .field import PrimeField, is_probable_prime, mod_exp
from .field import random_polynomial  # noqa: F401 -- perfbench's tracer hooks this name

__all__ = [
    "RenewalGroupConfig",
    "RenewalOutcome",
    "Accusation",
    "gen_renewal",
    "verify_renewal_share",
    "summed_dealing",
    "subgroup_members",
    "subset_products",
    "SUBSET_TESTS",
    "EXACT_CHECKS",
    "apply_renewal",
    "TOY_GROUP",
    "MERSENNE127_GROUP",
    "RFC5114_GROUP",
    "group_by_name",
    "default_group",
]


@dataclass(frozen=True)
class RenewalGroupConfig:
    """Commitment group: order-q subgroup of the integers mod p.

    validate() is not called on import (the 2048-bit primality checks are
    not free); protocol setup and the test suite both run it.
    """

    p: int
    q: int
    g: int
    h: int
    name: str = ""

    def validate(self) -> "RenewalGroupConfig":
        if (self.p - 1) % self.q:
            raise ConfigurationError("q must divide p - 1")
        if not is_probable_prime(self.p):
            raise ConfigurationError("commitment modulus p is not prime")
        if not is_probable_prime(self.q):
            raise ConfigurationError("share modulus q is not prime")
        for label, x in (("g", self.g), ("h", self.h)):
            if not 1 < x < self.p:
                raise ConfigurationError("%s outside (1, p)" % label)
            if mod_exp(x, self.q, self.p) != 1:
                raise ConfigurationError("%s is not in the order-q subgroup" % label)
        if self.g == self.h:
            raise ConfigurationError("g and h must differ")
        return self

    def commit(self, a: int, b: int) -> int:
        """g^a h^b mod p with exponents reduced into the subgroup order."""
        rows, width = self._window_tables
        p = self.p
        digits = ((a % self.q).to_bytes(width, "little")
                  + (b % self.q).to_bytes(width, "little"))
        acc = 1
        for row, digit in zip(rows, digits):
            acc = acc * row[digit] % p
        return acc

    @cached_property
    def _window_tables(self) -> tuple:
        """(rows, width): rows[i][d] = g^(d * 256^i) for the width byte
        digits of an exponent, then the same rows for h."""
        width = (self.q.bit_length() + 7) // 8
        rows = []
        for base in (self.g, self.h):
            for _ in range(width):
                row = [1] * 256
                for d in range(1, 256):
                    row[d] = row[d - 1] * base % self.p
                rows.append(row)
                base = row[255] * base % self.p
        return rows, width

    def share_field(self) -> PrimeField:
        return PrimeField(self.q)


# Toy group for exhaustive correctness tests; logs here are trivially
# computable and that is fine, binding is only exercised at the bigger sizes.
TOY_GROUP = RenewalGroupConfig(p=23, q=11, g=2, h=8, name="toy")

# Companion group for the default 2^127 - 1 share field: p = c*q + 1 with
# c = 2^129 + 62 is prime, so those shares renew without leaving their
# field. g = 2^((p-1)/q), h = 3^((p-1)/q) (first generators clear of 1).
MERSENNE127_GROUP = RenewalGroupConfig(
    p=0x10000000000000000000000000000001cffffffffffffffffffffffffffffffc3,
    q=(1 << 127) - 1,
    g=0x2ec54e29df5fcc039deb3d68ee51e7550957746d2a842bc51d73ccb7ace3f10f,
    h=0xc19bf858b26d81edf57abc4949f97181ac55d2c08fc4beab90f681e5bb595230,
    name="mersenne127",
)

# 2048-bit MODP group with a 256-bit prime-order subgroup, from the
# published RFC 5114 data sets. The listed generator there equals
# 2^((p-1)/q) mod p, so h is derived the same way from the next public
# constant, 3 (tests re-derive both).
_RFC5114_P = int(
    "87A8E61DB4B6663CFFBBD19C651959998CEEF608660DD0F25D2CEED4435E3B00"
    "E00DF8F1D61957D4FAF7DF4561B2AA3016C3D91134096FAA3BF4296D830E9A7C"
    "209E0C6497517ABD5A8A9D306BCF67ED91F9E6725B4758C022E0B1EF4275BF7B"
    "6C5BFC11D45F9088B941F54EB1E59BB8BC39A0BF12307F5C4FDB70C581B23F76"
    "B63ACAE1CAA6B7902D52526735488A0EF13C6D9A51BFA4AB3AD8347796524D8E"
    "F6A167B5A41825D967E144E5140564251CCACB83E6B486F6B3CA3F7971506026"
    "C0B857F689962856DED4010ABD0BE621C3A3960A54E710C375F26375D7014103"
    "A4B54330C198AF126116D2276E11715F693877FAD7EF09CADB094AE91E1A1597", 16)
_RFC5114_Q = int(
    "8CF83642A709A097B447997640129DA299B1A47D1EB3750BA308B0FE64F5FBD3", 16)
_RFC5114_G = int(
    "3FB32C9B73134D0B2E77506660EDBD484CA7B18F21EF205407F4793A1A0BA125"
    "10DBC15077BE463FFF4FED4AAC0BB555BE3A6C1B0C6B47B1BC3773BF7E8C6F62"
    "901228F8C28CBB18A55AE31341000A650196F931C77A57F2DDF463E5E9EC144B"
    "777DE62AAAB8A8628AC376D282D6ED3864E67982428EBC831D14348F6F2F9193"
    "B5045AF2767164E1DFC967C1FB3F2E55A4BD1BFFE83B9C80D052B985D182EA0A"
    "DB2A3B7313D3FE14C8484B1E052588B9B7D2BBD2DF016199ECD06E1557CD0915"
    "B3353BBB64E0EC377FD028370DF92B52C7891428CDC67EB6184B523D1DB246C3"
    "2F63078490F00EF8D647D148D47954515E2327CFEF98C582664B4C0F6CC41659", 16)
_RFC5114_H = int(
    "410b4296fd6c7be3b00e0684e19bceb7286f980c034a0cf84b3855f7489fe25b"
    "f3f60e3bfac5b9cdf7c9fe6ddf70022af4c4b6966f12e9fbdd3c5d0f849016b2"
    "88920bc0fd23795418c8f8a3baa21acd45ad7bbb1a4146d0917eea2ae4a42866"
    "b38ce6380a93aa70211f34171d0f6a7cec6773b736fef7646d8c1d6b61e720ab"
    "a1e191481b42d0eb4909b18d8bdb6605b1d2522cd8f56f7f0cbbcfe129291f88"
    "8bf24e8feb651de759450c4b83a8c5b4b0c8eea0642355dc788b6a9458ef597f"
    "3a3476d5871aa5485c195609c13ac23d5275d2fc7eff8ade9b2b3344e9cd77cf"
    "15f8e11c667856f9a7ca7db9fa216b744dbc72ffcb6ba6d3102092df231d1b24", 16)
RFC5114_GROUP = RenewalGroupConfig(
    p=_RFC5114_P, q=_RFC5114_Q, g=_RFC5114_G, h=_RFC5114_H, name="rfc5114")

_GROUPS = {g.name: g for g in (TOY_GROUP, MERSENNE127_GROUP, RFC5114_GROUP)}


def group_by_name(name: str) -> RenewalGroupConfig:
    try:
        return _GROUPS[name]
    except KeyError:
        raise ConfigurationError("unknown renewal group %r (have: %s)"
                                 % (name, ", ".join(sorted(_GROUPS))))


def default_group(q: int) -> "RenewalGroupConfig | None":
    """The group that renews shares in F_q when none is named, if any."""
    return MERSENNE127_GROUP if q == MERSENNE127_GROUP.q else None


@dataclass(frozen=True)
class Accusation:
    accuser: int
    accused: int
    reason: str = "commitment check failed"


@dataclass(frozen=True)
class RenewalOutcome:
    accepted: bool
    accusations: tuple = ()
    new_shares: "dict | None" = None


def gen_renewal(recipients, degree: int, config: RenewalGroupConfig,
                randomness, tracks: int) -> tuple:
    """Deal one holder's tracks: per track two zero-rooted polynomials,
    their coefficient commitments and an evaluation pair per recipient.

    Returns (commitments, pairs): commitments[k] is track k's tuple of
    degree commitments and pairs[c][k] recipient c's (P_1(c), P_2(c)) on
    track k. Track by track, P1's coefficients a_1..a_degree then P2's
    b_1..b_degree come from one random_ints draw of 2 * degree * tracks
    values, the same values and bits as one draw per track; a source
    that cannot pay for the whole draw raises before any bit is taken.
    Every recipient's pairs come from one eval_columns pass over all
    tracks.
    """
    field = config.share_field()
    stride = 2 * degree
    drawn = field.random_ints(randomness, stride * tracks)
    commitments = [tuple(map(config.commit, drawn[k:k + degree],
                             drawn[k + degree:k + stride]))
                   for k in range(0, stride * tracks, stride)]
    # column i: every track's a_i, then every track's b_i
    columns = [[0] * (2 * tracks)] + [
        drawn[i::stride] + drawn[degree + i::stride] for i in range(degree)]
    pairs = {}
    for c in recipients:
        values = field.eval_columns(columns, c)
        pairs[c] = list(zip(values[:tracks], values[tracks:]))
    return commitments, pairs


def verify_renewal_share(recipient: int, commitments, pair,
                         config: RenewalGroupConfig, members: set) -> bool:
    """Check one evaluation pair against a dealer's commitments on one
    track, at a recipient index of at least 1.

    members holds the values proven to lie in the order-q subgroup this
    round (subgroup_members, and the products summed_dealing adds); a
    commitment outside it fails the check, and no power is spent on it.
    """
    if not members.issuperset(commitments):
        return False
    s1, s2 = pair
    lhs = config.commit(s1, s2)
    rhs = 1
    exponent = 1
    for eps in commitments:
        exponent = exponent * recipient % config.q
        rhs = rhs * mod_exp(eps, exponent, config.p) % config.p
    return lhs == rhs


def summed_dealing(commitments, pairs, config: RenewalGroupConfig,
                   members: set):
    """(products, pair): one dealing standing for every dealer of a track
    at one recipient, where commitments[d] and pairs[d] are what dealer d
    sent it. products are the dealers' commitments multiplied column by
    column, and pair is the sum of their pairs. A product of members is
    a member, so the products join members.

    Every dealer must have sent the same number of commitments and a
    pair. None when a commitment is not in members: then only each
    dealer's own commitments and pair can be checked.
    """
    p, q = config.p, config.q
    products = []
    for column in zip(*commitments):
        if not members.issuperset(column):
            return None
        products.append(prod(column) % p)
    members.update(products)
    return tuple(products), (sum(s1 for s1, _ in pairs) % q,
                             sum(s2 for _, s2 in pairs) % q)


# Subset tests in one membership batch: a round holding a non-member
# passes them all with probability at most 2^-SUBSET_TESTS.
SUBSET_TESTS = 64
# Most distinct values checked one full-width power each. The batch costs
# SUBSET_TESTS powers, 8 mulmods per value and 4,080 to fold the buckets;
# timed on a 2-core x86-64 host under CPython 3.11, it breaks even with
# one power per value at 80-88 values in mersenne127 and rfc5114 alike.
EXACT_CHECKS = 96


def subset_products(values, selectors: bytes, p: int) -> list:
    """The SUBSET_TESTS products mod p of the subsets of values that the
    selectors pick: product r multiplies every values[i] whose selector,
    the little-endian integer in bytes [w*i, w*(i + 1)) of selectors with
    w = SUBSET_TESTS // 8, has bit r set.

    Each byte position of the selectors sorts the values into 256
    buckets by their byte there; folding the buckets in half, top bit
    first, yields that byte's 8 products in 510 mulmods.
    """
    width = SUBSET_TESTS // 8
    products = []
    for b in range(width):
        buckets = [1] * 256
        for eps, byte in zip(values, selectors[b::width]):
            buckets[byte] = buckets[byte] * eps % p
        by_bit = []  # bits 7 .. 0 of this byte
        half = 128
        while half:
            top = 1
            for x in buckets[half:]:
                top = top * x % p
            by_bit.append(top)
            buckets = [buckets[v] * buckets[v + half] % p
                       for v in range(half)]
            half >>= 1
        products += reversed(by_bit)
    return products


def subgroup_members(values, config: RenewalGroupConfig,
                     randomness) -> set:
    """The distinct values that lie in the order-q subgroup: 0 < eps < p
    and eps^q == 1 mod p.

    Up to EXACT_CHECKS candidates are checked one by one. More are
    checked as one random-subset batch whose selectors, SUBSET_TESTS
    bits per candidate in increasing order, are drawn from randomness,
    which must be private to the checker and drawn after the values are
    fixed. If any subset test fails, every candidate is checked one by
    one. So the result is the exact one, except with probability at most
    2^-SUBSET_TESTS when a non-member is present.
    """
    p, q = config.p, config.q
    candidates = {eps for eps in values if 0 < eps < p}
    if len(candidates) > EXACT_CHECKS:
        selectors = randomness.take_bytes(SUBSET_TESTS // 8
                                          * len(candidates))
        products = subset_products(sorted(candidates), selectors, p)
        if all(mod_exp(product, q, p) == 1 for product in products):
            return candidates
    return {eps for eps in candidates if mod_exp(eps, q, p) == 1}


def apply_renewal(share: int, pairs, config: RenewalGroupConfig) -> int:
    """new(i) = old(i) + sum over pairs (P_1(i), P_2(i)) of P_1(i) + P_2(i)
    mod q."""
    return (share + sum(s1 + s2 for s1, s2 in pairs)) % config.q
