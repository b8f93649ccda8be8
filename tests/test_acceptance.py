"""Release acceptance gate.

One test per end-to-end guarantee the package makes, each checked at its
stated tolerance with an independent in-test oracle where the guarantee
is numeric.  These intentionally re-measure properties that unit tests
cover piecewise: the gate is that the assembled system meets the numbers,
not that the parts look right.

Statistical tests draw from seeded generators, so every run measures the
same sample; the tolerances (3 or 4 sigma, stated per test) are what the
measured rates are held to.
"""

import dataclasses
import itertools
import math
import random
import time
from collections import defaultdict

import pytest

from itstore.config import derive_payload, load_scenario, parse_scenario
from itstore.entropy import SeededEntropy
from itstore.errors import PasswordFailureError
from itstore.field import PrimeField, random_polynomial
from itstore.harness import run_bench, run_scenario
from itstore.keynet import DEFAULT_TOPOLOGY, KeyNetwork, _PairStream
from itstore.mac import (
    make_seed,
    polyeval_modulus,
    polyeval_tag_blocks,
    recompute_tag,
)
from itstore.protocol import TpvSession
from itstore.renewal import (
    MERSENNE127_GROUP,
    TOY_GROUP,
    gen_renewal,
    verify_renewal_share,
)
from itstore.spss import (
    SpssParams,
    data_block_count,
    holder_respond,
    spss_recover,
    spss_register,
    spss_request,
)
from oracles import (directory_contains_window, interpolate_at_zero,
                     members_of, renew, stock)
from tests.test_config import SCENARIO_DIR


def reconstruct_once(holders, secret, params, attempt, subset, rng):
    ids = [stock(holders, rng)[0] for _ in range(len(secret.blocks) + 1)]
    requests = spss_request(attempt, subset, params, rng, tuple_ids=ids)
    responses = [holder_respond(holders[j], requests[j]) for j in subset]
    return spss_recover(responses, attempt, params,
                        byte_length=secret.byte_length)


# ---------------------------------------------------------------------------
# 1. Registration-hash collision census, exhaustive over every seed.
#    At k = 8 the polynomial family runs over q_u = 251; for 4-symbol
#    messages the collision fraction across ALL seeds must stay within
#    2^-8 * log2|D|, and the whole census must finish inside 10 seconds.


def test_exhaustive_seed_census_meets_collision_bound():
    started = time.perf_counter()
    k = 8
    q = polyeval_modulus(k)
    assert q == 251

    def family_oracle(r, blocks):
        # independent term-by-term definition: sum blocks[i-1] * r^i
        return sum(b * pow(r, i, q) for i, b in enumerate(blocks, 1)) % q

    rnd = random.Random(0xACC1)
    for _ in range(25):  # the shipped hash must BE that family
        r = rnd.randrange(q)
        blocks = [rnd.randrange(q) for _ in range(4)]
        assert polyeval_tag_blocks(r, blocks, q) == family_oracle(r, blocks)

    pairs = 120
    bound = 2 ** -k * math.log2(float(q) ** 4)  # |D| = q^4 message space
    worst = 0.0
    for _ in range(pairs):
        a = [rnd.randrange(q) for _ in range(4)]
        b = [rnd.randrange(q) for _ in range(4)]
        while b == a:
            b = [rnd.randrange(q) for _ in range(4)]
        collisions = sum(
            family_oracle(r, a) == family_oracle(r, b) for r in range(q))
        worst = max(worst, collisions / q)
        assert collisions / q <= bound
    assert worst <= bound
    assert time.perf_counter() - started < 10.0


# ---------------------------------------------------------------------------
# 2. Tamper-acceptance and false-claim non-refutation rates at k = 16:
#    each measured over 1e5 independent seeds and held to
#    2^-16 * log2|D| plus three binomial sigma, inside 60 seconds.


def test_tamper_acceptance_and_false_claim_rates_within_tolerance():
    started = time.perf_counter()
    k = 16
    trials = 100_000
    message_bytes = 64
    bound = 2 ** -k * (message_bytes * 8)  # log2|D| for 64-byte messages
    sigma = math.sqrt(bound * (1 - bound) / trials)
    tolerance = bound + 3 * sigma

    seeds = SeededEntropy(b"acceptance-mac-rates")
    rnd = random.Random(0xACC2)

    tamper_hits = 0
    for _ in range(trials):
        seed = make_seed(k, seeds)
        message = rnd.randbytes(message_bytes)
        tag = recompute_tag(seed, message)
        bit = rnd.randrange(message_bytes * 8)
        tampered = bytearray(message)
        tampered[bit // 8] ^= 1 << (bit % 8)
        if recompute_tag(seed, bytes(tampered)).value == tag.value:
            tamper_hits += 1
    assert tamper_hits / trials <= tolerance

    claim_hits = 0
    for _ in range(trials):
        seed = make_seed(k, seeds)
        message = rnd.randbytes(message_bytes)
        claim = rnd.randbytes(message_bytes)
        while claim == message:
            claim = rnd.randbytes(message_bytes)
        if recompute_tag(seed, claim).value == recompute_tag(
                seed, message).value:
            claim_hits += 1
    assert claim_hits / trials <= tolerance
    assert time.perf_counter() - started < 60.0


# ---------------------------------------------------------------------------
# 3. Share round trips: a thousand randomized register/reconstruct cycles
#    over the 31-bit field recover bit-exactly through every 3-of-4 holder
#    subset; with a wrong password at toy q = 31 the failure rate over 1e5
#    attempts is at least 1 - l/q within three binomial sigma.


def test_thousand_roundtrips_all_subsets_and_wrong_password_rate():
    params = SpssParams(field=PrimeField.mersenne(31))
    rng = SeededEntropy(b"acceptance-roundtrip")
    sizes = random.Random(0xACC3)
    recoveries = 0
    for _ in range(1000):
        data = sizes.randbytes(sizes.randrange(1, 25))
        password = sizes.randrange(1, params.field.q - 1)
        holders, secret = spss_register(data, password, params, rng)
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            got = reconstruct_once(holders, secret, params, password,
                                   subset, rng)
            assert got == data
            recoveries += 1
    assert recoveries == 4000  # 100% bit-exact recovery

    toy = SpssParams(field=PrimeField.mersenne(5))
    password = 7
    blocks = data_block_count(1, toy)
    floor = 1 - blocks / 31
    trials = 100_000
    sigma = math.sqrt(floor * (1 - floor) / trials)
    attempts = random.Random(0xACC4)
    failures = 0
    # Re-register every 500 attempts: each attempt burns fresh masking
    # rounds, and a bounded tuple stock keeps round bookkeeping O(1).
    holders = secret = None
    for trial in range(trials):
        if trial % 500 == 0:
            holders, secret = spss_register(b"\xa5", password, toy, rng)
        attempt = attempts.randrange(1, 31)
        while attempt == password:
            attempt = attempts.randrange(1, 31)
        try:
            reconstruct_once(holders, secret, toy, attempt, (1, 2, 3), rng)
        except PasswordFailureError:
            failures += 1
    assert failures / trials >= floor - 3 * sigma


# ---------------------------------------------------------------------------
# 4. Share secrecy census: with a 3-of-4 layout any two holders' shares of
#    a data block are jointly uniform.  Measured over 1e4 registrations at
#    q = 31 with a chi-square statistic held within four sigma for every
#    holder pair.


def test_any_two_data_shares_are_jointly_uniform():
    q = 31
    params = SpssParams(field=PrimeField.mersenne(5))
    rng = SeededEntropy(b"acceptance-secrecy")
    registrations = 10_000
    samples = []
    for _ in range(registrations):
        holders, _secret = spss_register(b"\x5a", 7, params, rng)
        samples.append({j: holders[j].data_shares[0] for j in (1, 2, 3, 4)})

    cells = q * q
    expected = registrations / cells
    # chi-square with q^2 - 1 degrees of freedom: mean df, sigma sqrt(2 df)
    df = cells - 1
    ceiling = df + 4 * math.sqrt(2 * df)
    for j1, j2 in itertools.combinations((1, 2, 3, 4), 2):
        counts = [0] * cells
        for row in samples:
            counts[row[j1] * q + row[j2]] += 1
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        assert chi2 <= ceiling, "holder pair (%d, %d)" % (j1, j2)


# ---------------------------------------------------------------------------
# 5. Verifiable renewal: a hundred honest rounds leave the reconstructed
#    secret untouched, and in the toy commitment group every single-value
#    perturbation of a dealing -- any commitment coefficient over the whole
#    ambient group, any share component over the share field -- is
#    rejected by the verification equation, exhaustively.


def test_renewal_preserves_the_secret_and_rejects_every_perturbation():
    group = MERSENNE127_GROUP.validate()
    field = group.share_field()
    rng = SeededEntropy(b"acceptance-renewal")
    secret = 0x1234567890ABCDEF
    poly = random_polynomial(2, secret, field, rng)
    shares = {j: (poly.evaluate(j),) for j in (1, 2, 3, 4)}
    initial = dict(shares)
    for _ in range(100):
        outcome = renew(shares, 2, group, {j: rng for j in shares})
        assert outcome.accepted and not outcome.accusations
        shares = outcome.new_shares
    assert shares != initial  # the shares themselves must have moved
    pts = [(j, track) for j, (track,) in sorted(shares.items())]
    assert interpolate_at_zero(pts, field) == secret

    toy = TOY_GROUP.validate()
    (eps,), pairs = gen_renewal((1, 2, 3), 2, toy,
                                SeededEntropy(b"toy-packet"), 1)
    members = members_of(eps, toy)
    for recipient in (1, 2, 3):
        assert verify_renewal_share(recipient, eps, pairs[recipient][0], toy,
                                    members)
    for idx in range(len(eps)):
        for wrong in range(1, toy.p):
            if wrong == eps[idx]:
                continue
            mutated = list(eps)
            mutated[idx] = wrong
            for recipient in (1, 2, 3):
                assert not verify_renewal_share(
                    recipient, tuple(mutated), pairs[recipient][0], toy,
                    members_of(mutated, toy))
    for recipient in (1, 2, 3):
        ((s1, s2),) = pairs[recipient]
        for wrong in range(toy.q):
            if wrong != s1:
                assert not verify_renewal_share(recipient, eps,
                                                (wrong, s2), toy, members)
            if wrong != s2:
                assert not verify_renewal_share(recipient, eps,
                                                (s1, wrong), toy, members)


# ---------------------------------------------------------------------------
# 6. Key-supply books: every shipped scenario ends with exact conservation
#    (generated = buffered + consumed + relay overhead) and no two
#    encrypted messages ever share a single pad bit. Every pair-stream
#    allocation, channel hash keys included, is recorded too, and no two
#    allocations share a bit.


def test_shipped_scenarios_conserve_keys_and_never_reuse_pad_bits(
        monkeypatch):
    original = KeyNetwork.secure_send
    allocations = []

    def recording_send(self, sender, receiver, payload):
        envelope = original(self, sender, receiver, payload)
        pair = tuple(sorted((self._endpoint_node(sender),
                             self._endpoint_node(receiver))))
        allocations.append((pair, envelope.pad_offset,
                            len(envelope.ciphertext) * 8))
        allocations.append((pair, envelope.pad_offset
                            + len(envelope.ciphertext) * 8, self.tag_bits))
        return envelope

    monkeypatch.setattr(KeyNetwork, "secure_send", recording_send)

    original_allocate = _PairStream.allocate
    drawn = []

    def recording_allocate(self, nbits):
        offset, value = original_allocate(self, nbits)
        drawn.append((self.pair, offset, nbits))
        return offset, value

    monkeypatch.setattr(_PairStream, "allocate", recording_allocate)

    scenario_files = sorted(p for p in SCENARIO_DIR.glob("*.yaml")
                            if p.stem != "bench")
    assert len(scenario_files) == 8
    for path in scenario_files:
        allocations.clear()
        drawn.clear()
        result = run_scenario(load_scenario(path))
        assert result.conservation_ok, path.name
        assert result.failures == (), path.name  # shipped verdicts hold
        assert allocations, path.name  # encrypted traffic was observed
        by_pair = {}
        for pair, start, bits in allocations:
            by_pair.setdefault(pair, []).append((start, start + bits))
        for pair, spans in by_pair.items():
            spans.sort()
            for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
                assert end_a <= start_b, (path.name, pair)
        # every allocation, hash-key draws included, is disjoint from all
        # others on its pair, and holds one envelope's body and tag pads,
        # after its channel's hash key on the channel's first send
        all_spans = {}
        for pair, start, bits in drawn:
            all_spans.setdefault(pair, []).append((start, start + bits))
        for pair, spans in all_spans.items():
            spans.sort()
            for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
                assert end_a <= start_b, (path.name, pair)
        sent = {(pair, start, tag + bits) for (pair, start, _), (_, tag, bits)
                in zip(allocations[0::2], allocations[1::2])}
        width = allocations[1][2]  # the scenario's channel tag_bits
        keys = 0
        for pair, start, bits in drawn:
            key = (pair, start, start + bits) not in sent
            assert (pair, start + key * width, start + bits) in sent, (
                path.name, pair)
            keys += key
        assert keys, path.name  # hash keys were drawn


def test_every_shipped_scenario_allocates_once_per_envelope(monkeypatch):
    # a send takes its channel's hash key (first send only), body pad and
    # tag pad as one allocation, and nothing else allocates: a plan moves
    # the cursors of scratch copies only
    original_send = KeyNetwork.secure_send
    original_allocate = _PairStream.allocate
    drawn, per_send = [], []

    def recording_allocate(self, nbits):
        offset, value = original_allocate(self, nbits)
        drawn.append((self.pair, offset, nbits))
        return offset, value

    def counting_send(self, sender, receiver, payload):
        before = len(drawn)
        envelope = original_send(self, sender, receiver, payload)
        per_send.append(len(drawn) - before)
        return envelope

    monkeypatch.setattr(_PairStream, "allocate", recording_allocate)
    monkeypatch.setattr(KeyNetwork, "secure_send", counting_send)
    scenario_files = sorted(p for p in SCENARIO_DIR.glob("*.yaml")
                            if p.stem != "bench")
    assert len(scenario_files) == 8
    for path in scenario_files:
        drawn.clear()
        per_send.clear()
        result = run_scenario(load_scenario(path))
        assert result.conservation_ok, path.name
        assert result.failures == (), path.name
        assert per_send and set(per_send) == {1}, path.name
        assert len(drawn) == len(per_send), path.name
        spans = defaultdict(list)
        for pair, start, bits in drawn:
            spans[pair].append((start, start + bits))
        for pair, ranges in spans.items():
            ranges.sort()
            for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
                assert end_a <= start_b, (path.name, pair)


# ---------------------------------------------------------------------------
# 7. Small-memory verification: after registration the calculator's
#    persistent record for a secret fits in seed + timestamp + identifier
#    bytes, and no window of the registered payload survives anywhere in
#    its store.


def test_calculator_state_fits_budget_and_holds_no_data_substring(tmp_path):
    net = KeyNetwork(DEFAULT_TOPOLOGY, master_seed=b"acceptance-budget")
    net.advance(3_600_000)
    session = TpvSession(tmp_path / "run", net=net)
    payloads = [derive_payload("acceptance-budget|%d" % i, 2048)
                for i in range(2)]
    for i, payload in enumerate(payloads):
        sid, t1 = session.register(payload, b"a password %d" % i)
        stored_t1, seed = session.calculator_store.get(sid)
        assert stored_t1 == t1
        record = session.calculator_store.record_bytes(sid)
        assert record <= seed.byte_count + 8 + 16  # seed + t1 + id
    calculator_dir = tmp_path / "run" / "calculator"
    for payload in payloads:
        assert not directory_contains_window(calculator_dir, payload,
                                             window=8)


# ---------------------------------------------------------------------------
# 8. Performance scaling: sweeping 1/10/100 KB payloads, each phase's
#    median time grows by at most 2.5x per payload doubling, and on
#    equal-width moduli the Mersenne registration path beats the general
#    prime (direction only; no fixed ratio is promised).


def test_phase_scaling_is_near_linear_and_mersenne_wins_comparison():
    config = parse_scenario({
        "seed": "acceptance-bench",
        "topology": {"rate_scale": 200, "capacity_scale": 40},
        "renewal": {"group": "mersenne127"},
        "bench": {"sizes_kb": [1, 10, 100], "repetitions": 2,
                  "compare_general_prime": True},
    }, name_default="acceptance-bench")
    report = run_bench(config)

    phases = {"registration", "communication", "renewal", "reconstruction"}
    assert {r.phase for r in report.rows} == phases
    assert len(report.rows) == len(phases) * 3 * 2

    sizes = (1024, 10240, 102400)
    for phase in phases:
        for smaller, larger in zip(sizes, sizes[1:]):
            med_small = report.medians[(phase, smaller)][0]
            med_large = report.medians[(phase, larger)][0]
            allowed = 2.5 ** math.log2(larger / smaller)
            assert med_large <= med_small * allowed, (
                "%s grew %.2fx from %d to %d bytes (allowed %.2fx)"
                % (phase, med_large / med_small, smaller, larger, allowed))

    assert report.mersenne_faster is True


# ---------------------------------------------------------------------------
# 9. Deterministic replay: the same scenario file run twice produces
#    byte-identical transcripts.


def test_identical_seed_and_config_replay_byte_identically():
    config = load_scenario(SCENARIO_DIR / "renewal.yaml")
    first = run_scenario(config)
    second = run_scenario(config)
    assert first.transcript.encode() == second.transcript.encode()
    assert first.secret_id == second.secret_id
    assert [dataclasses.astuple(v) for v in first.verdicts] == \
        [dataclasses.astuple(v) for v in second.verdicts]
