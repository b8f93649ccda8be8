"""Tests for password-authenticated secret sharing.

The interpolation oracle is interpolate_at_zero from tests/oracles.py,
itself pinned against a brute-force fit in test_field. The draw-order
oracles build one random_polynomial per block, and the extraction oracle
sums d^k times contributor d's value term by term. Frozen values here
were computed by hand in F_31.
"""

import copy
import itertools
import random
import tracemalloc

import pytest

from itstore.entropy import SeededEntropy
from itstore.errors import (
    ConfigurationError,
    ImproperRequestError,
    PasswordFailureError,
    PrecomputationExhaustedError,
    ProtocolError,
)
from itstore.field import PrimeField, random_polynomial
from itstore.spss import (
    SLICE,
    MaskedResponse,
    SpssParams,
    cut_rounds,
    data_block_count,
    holder_respond,
    mac_block_value,
    password_to_element,
    precompute_round,
    reassemble_blocks,
    retired_rounds,
    spss_recover,
    spss_register,
    spss_request,
)
from itstore.mac import split_blocks
from itstore.stores import HolderStore, _encode_share_set
from itstore.wire import Packed, check_runs, column
from oracles import (
    bits_drawn,
    cut_model,
    data_shares,
    expand_runs,
    extract,
    handover,
    id_runs,
    interpolate_at_zero,
    live_columns,
    live_ids,
    live_tuples,
    random_int,
    refused_runs,
    runs_of,
    spend_rounds,
    stock,
)

F31 = PrimeField.mersenne(5)
F31_PARAMS = SpssParams(field=F31)
F2311 = PrimeField.mersenne(31)


def mac_oracle(blocks, p, q):
    """sum D_i * P^i term by term, blocks in index order (blocks[0] = D_1)."""
    return sum(b * pow(p, i, q) for i, b in enumerate(blocks, start=1)) % q


def extraction_oracle(values_by_contributor, k, q):
    """sum_d d^k * value of contributor d, contributors 1..n in order."""
    return sum(pow(d, k) * v for d, v in
               enumerate(values_by_contributor, start=1)) % q


def recording(carried):
    """A deliver callback that records what each (d, j) message carries
    and hands it over unchanged."""
    def deliver(d, j, body):
        r_vals, z_vals = zip(*body)
        carried[d, j] = (list(r_vals), list(z_vals))
        return body
    return deliver


def reconstruct(holders, secret, params, attempt, subset, rng, pin=True):
    """Full reconstruction path: precompute, request, respond, recover.
    pin=False pins the first holder's oldest live rounds instead of the
    new ones."""
    ids = [stock(holders, rng)[0]
           for _ in range(len(secret.blocks) + 1)]
    if not pin:
        ids = live_ids(holders[subset[0]])[:len(ids)]
    requests = spss_request(attempt, subset, params, rng,
                            rounds=runs_of(ids))
    responses = [holder_respond(holders[j], requests[j]) for j in subset]
    return spss_recover(responses, attempt, params,
                        byte_length=len(secret.data))


# -------------------------------------------------------------- registration

def test_mac_block_frozen_toy():
    # q = 31, single block 12, password 5: 12 * 5 = 60 = 29 mod 31
    assert mac_oracle([12], 5, 31) == 29
    assert mac_block_value([12], 5, F31) == 29
    # two blocks, index order [D_1, D_2] = [0, 12]: 12 * 25 = 300 = 21 mod 31
    assert mac_oracle([0, 12], 5, 31) == 21
    assert mac_block_value([0, 12], 5, F31) == 21


def test_mac_block_matches_oracle_randomized():
    rng = random.Random(0x3417)
    for q, field in ((31, F31), (8191, PrimeField.mersenne(13))):
        for _ in range(40):
            blocks = [rng.randrange(q) for _ in range(rng.randrange(1, 7))]
            p = rng.randrange(1, q)
            assert mac_block_value(blocks, p, field) == mac_oracle(blocks, p, q)


def test_register_zero_data_gives_zero_mac():
    holders, secret = spss_register(b"\x00\x00", 7, F31_PARAMS,
                                    SeededEntropy(b"zero"))
    assert secret.mac_block == 0
    assert set(secret.blocks) == {0}
    assert set(holders) == {1, 2, 3, 4}


def test_register_shares_interpolate_to_blocks():
    # every C(4,3) holder subset recovers every block and the authenticator
    params = SpssParams()
    rng = SeededEntropy(b"interp")
    data = bytes(range(1, 40))
    password = password_to_element(b"hunter2", params.field)
    holders, secret = spss_register(data, password, params, rng)
    targets = (*secret.blocks, secret.mac_block)
    for subset in itertools.combinations((1, 2, 3, 4), 3):
        for i, want in enumerate(targets):
            pts = [(j, data_shares(holders[j])[i]) for j in subset]
            assert interpolate_at_zero(pts, params.field) == want
    # password shares sit on a degree-1 polynomial through (0, P)
    for pair in itertools.combinations((1, 2, 3, 4), 2):
        pts = [(j, holders[j].password_share) for j in pair]
        assert interpolate_at_zero(pts, params.field) == password


def test_register_toy_end_to_end_frozen():
    holders, secret = spss_register(b"\xc0", 5, F31_PARAMS, SeededEntropy(b"toy"))
    # 0xc0 in 4-bit blocks, leftmost chunk is D_2: D_2 = 12, D_1 = 0
    assert secret.blocks == (0, 12)
    assert secret.mac_block == 21
    pts = [(j, data_shares(holders[j])[2]) for j in (1, 2, 4)]
    assert interpolate_at_zero(pts, F31) == 21


def test_at_most_255_holders_since_indices_travel_in_one_byte():
    assert SpssParams(3, 255).n_sh == 255
    with pytest.raises(ConfigurationError, match="n_sh <= 255, got 256"):
        SpssParams(3, 256)


def test_password_mapping():
    assert password_to_element(b"\x05", F31) == 5
    assert password_to_element(b"\x20", F31) == 1  # 32 mod 31
    with pytest.raises(ConfigurationError):
        password_to_element(b"\x00", F31)
    with pytest.raises(ConfigurationError):
        password_to_element((31).to_bytes(1, "big"), F31)


def test_block_count_and_reassembly():
    assert data_block_count(1, F31_PARAMS) == 2
    assert data_block_count(16, SpssParams()) == 2  # 128 bits over 126-bit blocks
    params = SpssParams()
    data = b"block reassembly check"
    holders, secret = spss_register(data, 9, params, SeededEntropy(b"asm"))
    assert reassemble_blocks(secret.blocks, len(secret.data),
                             params.block_bits) == data


RAGGED_WIDTH_FIELDS = {1: PrimeField(3), 7: PrimeField(251), 8: PrimeField(257),
                       126: PrimeField.mersenne(127),
                       2202: PrimeField.mersenne(2203)}


def reassemble_oracle(blocks_by_index, byte_length, width):
    """Concatenate the wire-order blocks as a bit string, keep the payload."""
    bits = "".join(format(b, "0%db" % width) for b in reversed(blocks_by_index))
    bits = bits[:8 * byte_length]
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


@pytest.mark.parametrize("width", sorted(RAGGED_WIDTH_FIELDS))
def test_reassemble_blocks_matches_bit_string_oracle(width):
    assert RAGGED_WIDTH_FIELDS[width].block_bits == width
    rng = random.Random(width)
    for n in list(range(41)) + [100 * 1024]:
        data = rng.randbytes(n)
        wire, _ = split_blocks(data, width)
        blocks = wire[::-1]  # index order, D_1 first
        out = reassemble_blocks(blocks, n, width)
        assert out == data  # round trip
        assert out == reassemble_oracle(blocks, n, width)
        # random in-range blocks, not only ones that came from a split
        noise = [rng.getrandbits(width) for _ in blocks]
        assert (reassemble_blocks(noise, n, width)
                == reassemble_oracle(noise, n, width))


def register_oracle(data, password, params, rnd):
    """spss_register with one random_polynomial per block, evaluated at
    every holder, then the password polynomial."""
    field = params.field
    wire, _ = split_blocks(data, params.block_bits)
    blocks = wire[::-1]
    values = blocks + [mac_block_value(blocks, password, field)]
    polys = [random_polynomial(params.data_degree, v, field, rnd)
             for v in values]
    f_p = random_polynomial(params.password_degree, password, field, rnd)
    return {j: (tuple(p.evaluate(j) for p in polys), f_p.evaluate(j))
            for j in params.holder_indices}


@pytest.mark.parametrize("params", [
    F31_PARAMS, SpssParams(),
    SpssParams(field=PrimeField((1 << 127) + 29))],
    ids=["f31", "mersenne127", "2^127+29"])
def test_register_and_precompute_draw_like_one_polynomial_per_block(params):
    field = params.field
    data = bytes(range(256)) * 3
    new, old = SeededEntropy(b"cols"), SeededEntropy(b"cols")
    holders, _ = spss_register(data, 29, params, new)
    expect = register_oracle(data, 29, params, old)
    for j, (shares, pw_share) in expect.items():
        assert data_shares(holders[j]) == shares
        assert holders[j].password_share == pw_share
    assert bits_drawn(new) == bits_drawn(old)

    carried = {}
    precompute_round(holders, dict.fromkeys(holders, new), 1,
                     recording(carried))
    # j's values from every contributor, own ones from the oracle
    held = {j: [] for j in params.holder_indices}
    for contributor in params.holder_indices:
        r_poly = random_polynomial(params.password_degree,
                                   random_int(field, old), field, old)
        z_poly = random_polynomial(params.data_degree, 0, field, old)
        for j in params.holder_indices:
            want = ([r_poly.evaluate(j)], [z_poly.evaluate(j)])
            if j != contributor:
                assert carried[contributor, j] == want
            held[j].append(want)
    for j in params.holder_indices:
        tup = live_tuples(holders[j])[0]  # row k = 0 of the one batch
        assert tup.r == extraction_oracle([r[0] for r, _ in held[j]], 0,
                                          field.q)
        assert tup.z == extraction_oracle([z[0] for _, z in held[j]], 0,
                                          field.q)
    assert bits_drawn(new) == bits_drawn(old)

    # a request shares the attempt as one password-degree polynomial
    requests = spss_request(29, (3, 1, 2), params, new, rounds=[(0, 1)])
    f_pp = random_polynomial(params.password_degree, 29, field, old)
    assert {j: r.password_share for j, r in requests.items()} == {
        j: f_pp.evaluate(j) for j in (1, 2, 3)}
    assert bits_drawn(new) == bits_drawn(old)


def test_two_slices_and_a_ragged_rest_draw_stock_and_answer_like_the_oracles():
    # 2 * SLICE + 7 blocks, the last one short, so every phase crosses two
    # slice boundaries and ends on a part slice: register against one
    # polynomial per block, the stock's 1,028 batches (a full slice and 4)
    # against an R and a Z polynomial per batch and the extraction oracle,
    # and every response against diff * r + z + share
    params = SpssParams()
    field, q = params.field, params.field.q
    data = random.Random(0x511CE).randbytes(2 * SLICE * 126 // 8 + 100)
    assert data_block_count(len(data), params) == 2 * SLICE + 7
    new, old = SeededEntropy(b"slices"), SeededEntropy(b"slices")
    holders, secret = spss_register(data, 29, params, new)
    expect = register_oracle(data, 29, params, old)
    for j, (shares, pw_share) in expect.items():
        assert data_shares(holders[j]) == shares
        assert holders[j].password_share == pw_share
    assert bits_drawn(new) == bits_drawn(old)
    assert secret.blocks == tuple(reversed(split_blocks(data, 126)[0]))

    rounds = 2 * SLICE + 8  # every block and the authenticator
    carried = {}
    ids = precompute_round(holders, dict.fromkeys(holders, new), rounds,
                           recording(carried))
    assert tuple(ids) == tuple(range(rounds))
    held = {j: ([], []) for j in params.holder_indices}
    for contributor in params.holder_indices:
        sent = {j: ([], []) for j in params.holder_indices}
        for _batch in range(rounds // 2):
            r_poly = random_polynomial(params.password_degree,
                                       random_int(field, old), field, old)
            z_poly = random_polynomial(params.data_degree, 0, field, old)
            for j in params.holder_indices:
                sent[j][0].append(r_poly.evaluate(j))
                sent[j][1].append(z_poly.evaluate(j))
        for j in params.holder_indices:
            if j != contributor:
                assert carried[contributor, j] == sent[j]
            for kind in (0, 1):
                held[j][kind].append(sent[j][kind])
    assert bits_drawn(new) == bits_drawn(old)
    tuples = {j: live_tuples(holders[j]) for j in params.holder_indices}
    for j, (r_held, z_held) in held.items():
        for rid in ids:
            batch, k = divmod(rid, 2)
            assert tuples[j][rid] == (
                extraction_oracle([r[batch] for r in r_held], k, q),
                extraction_oracle([z[batch] for z in z_held], k, q))

    requests = spss_request(29, (1, 2, 3), params, new,
                            rounds=[(0, rounds)])
    responses = [holder_respond(holders[j], requests[j]) for j in (1, 2, 3)]
    for response in responses:
        j = response.holder
        diff = field.sub(expect[j][1], requests[j].password_share)
        assert tuple(response.values) == tuple(
            (diff * r + z + share) % q
            for share, (r, z) in zip(expect[j][0], tuples[j].values()))
    assert spss_recover(responses, 29, params,
                        byte_length=len(data)) == data
    with pytest.raises(PasswordFailureError):
        spss_recover(responses, 30, params, byte_length=len(data))


def test_registration_is_replayable():
    a = spss_register(b"replay", 11, F31_PARAMS, SeededEntropy(b"rep"))
    b = spss_register(b"replay", 11, F31_PARAMS, SeededEntropy(b"rep"))
    assert a[1] == b[1]
    for j in (1, 2, 3, 4):
        assert data_shares(a[0][j]) == data_shares(b[0][j])
        assert a[0][j].password_share == b[0][j].password_share


# ------------------------------------------------------------ precomputation

def test_precompute_round_accounting():
    params = SpssParams(field=F31)
    holders, _ = spss_register(b"ab", 3, params, SeededEntropy(b"acct"))
    rng = SeededEntropy(b"acct-rounds")
    carried = {}
    assert tuple(precompute_round(holders, dict.fromkeys(holders, rng), 1,
                                  recording(carried))) == (0,)
    assert tuple(stock(holders, rng)) == (1,)
    # every other holder gets one R and one Z value per batch from each
    # contributor, and every holder keeps one folded r and z per tuple
    assert sorted(carried) == [(d, j) for d in range(1, 5)
                               for j in range(1, 5) if j != d]
    for r_vals, z_vals in carried.values():
        assert len(r_vals) == 1 and len(z_vals) == 1
    for share_set in holders.values():
        assert live_ids(share_set) == [0, 1]
        for tup in live_tuples(share_set).values():
            assert isinstance(tup.r, int) and isinstance(tup.z, int)


def test_retired_rounds_are_those_some_other_holder_lacks():
    live = [0, 1, 2, 3, 5, 8]
    # one holder spent 0-1, another also 8; 9 is not held here at all
    reported = [(0, 1, 2, 3, 5, 8, 9), (2, 3, 5, 8), (2, 3, 5)]
    runs = check_runs(id_runs(live))
    reported = [check_runs(id_runs(ids)) for ids in reported]
    assert retired_rounds(runs, reported) == [(0, 2), (8, 9)]
    assert retired_rounds(runs, [runs] * 3) == []
    assert retired_rounds(runs, [[]]) == runs
    assert retired_rounds([], reported) == []


def test_precompute_zero_shares_interpolate_to_zero():
    params = SpssParams()
    holders, _ = spss_register(b"zz", 5, params, SeededEntropy(b"z-shares"))
    carried = {}
    precompute_round(holders,
                     dict.fromkeys(holders, SeededEntropy(b"z-round")), 1,
                     recording(carried))
    for d in range(1, 5):  # each contributor's zero sharing, as carried
        pts = [(j, carried[d, j][1][0]) for j in range(1, 5) if j != d]
        assert interpolate_at_zero(pts, params.field) == 0
    for subset in itertools.combinations((1, 2, 3, 4), 3):
        pts = [(j, live_tuples(holders[j])[0].z) for j in subset]
        assert interpolate_at_zero(pts, params.field) == 0


def test_precompute_random_shares_have_low_degree():
    # contributed random values are shared one degree below the data
    # polynomials, so any two shares already pin the constant
    params = SpssParams()
    holders, _ = spss_register(b"rr", 5, params, SeededEntropy(b"r-shares"))
    carried = {}
    precompute_round(holders,
                     dict.fromkeys(holders, SeededEntropy(b"r-round")), 1,
                     recording(carried))
    for d in range(1, 5):  # each contributor's random sharing, as carried
        others = [j for j in range(1, 5) if j != d]
        constants = set()
        for pair in itertools.combinations(others, 2):
            pts = [(j, carried[d, j][0][0]) for j in pair]
            constants.add(interpolate_at_zero(pts, params.field))
        assert len(constants) == 1
    constants = set()
    for pair in itertools.combinations((1, 2, 3, 4), 2):
        pts = [(j, live_tuples(holders[j])[0].r) for j in pair]
        constants.add(interpolate_at_zero(pts, params.field))
    assert len(constants) == 1


def test_precompute_per_holder_randomness():
    params = SpssParams(field=F31)
    holders, _ = spss_register(b"ph", 3, params, SeededEntropy(b"per-holder"))
    sources = {j: SeededEntropy(b"holder-%d" % j) for j in holders}
    precompute_round(holders, sources, 1, handover)
    assert all(0 in live_ids(s) for s in holders.values())


def test_rounds_draw_like_one_polynomial_pair_per_round():
    # one masking_columns draw per contributor covers all its batches, in
    # the order of an R and a Z polynomial per batch; three rounds take
    # two batches of w = 2, and round id b*w + k is row k of batch b
    params = SpssParams()
    field = params.field
    holders, _ = spss_register(b"rounds", 5, params, SeededEntropy(b"reg"))
    new, old = SeededEntropy(b"rounds"), SeededEntropy(b"rounds")
    carried = {}
    assert tuple(precompute_round(holders, dict.fromkeys(holders, new), 3,
                                  recording(carried))) == (0, 1, 2)
    held = {j: [] for j in params.holder_indices}
    for contributor in params.holder_indices:
        sent = {j: ([], []) for j in params.holder_indices}
        for _batch in range(2):
            r_poly = random_polynomial(params.password_degree,
                                       random_int(field, old), field, old)
            z_poly = random_polynomial(params.data_degree, 0, field, old)
            for j in params.holder_indices:
                sent[j][0].append(r_poly.evaluate(j))
                sent[j][1].append(z_poly.evaluate(j))
        for j in params.holder_indices:
            if j != contributor:
                assert carried[contributor, j] == sent[j]
            held[j].append(sent[j])
    for j in params.holder_indices:
        for rid in range(3):
            batch, k = divmod(rid, 2)
            tup = live_tuples(holders[j])[rid]
            assert tup.r == extraction_oracle(
                [r[batch] for r, _ in held[j]], k, field.q)
            assert tup.z == extraction_oracle(
                [z[batch] for _, z in held[j]], k, field.q)
    assert bits_drawn(new) == bits_drawn(old)
    assert tuple(stock(holders, new, rounds=2)) == (3, 4)
    with pytest.raises(ConfigurationError):
        stock(holders, new, rounds=0)


def test_precompute_delivers_every_other_holders_values_in_order():
    params = SpssParams(field=F31)
    direct, _ = spss_register(b"dv", 3, params, SeededEntropy(b"deliver"))
    routed, _ = spss_register(b"dv", 3, params, SeededEntropy(b"deliver"))
    calls = []

    def deliver(d, j, body):
        r_vals, z_vals = zip(*body)
        calls.append((d, j, len(r_vals), len(z_vals)))
        # what j receives: d's values plus d, so every routed value shows
        return Packed(column([(v + d) % 31 for pair in body for v in pair],
                             body.width), body.width, 2)

    assert tuple(stock(direct, SeededEntropy(b"dv-round"), 2)) == (0, 1)
    assert tuple(precompute_round(
        routed, dict.fromkeys(routed, SeededEntropy(b"dv-round")), 2,
        deliver)) == (0, 1)
    # two rounds are one batch of w = 2: one value of each kind per message
    assert calls == [(d, j, 1, 1) for d in (1, 2, 3, 4)
                     for j in (1, 2, 3, 4) if j != d]
    for j in (1, 2, 3, 4):
        for rid in (0, 1):
            want = live_tuples(direct[j])[rid]
            got = live_tuples(routed[j])[rid]
            # row k = rid of the batch: each routed value adds d^k * d
            shift = extraction_oracle([0 if d == j else d
                                       for d in (1, 2, 3, 4)], rid, 31)
            assert got.r == (want.r + shift) % 31
            assert got.z == (want.z + shift) % 31


def test_a_failed_delivery_changes_no_share_set():
    params = SpssParams(field=F31)
    holders, _ = spss_register(b"fd", 3, params, SeededEntropy(b"fail"))

    def deliver(d, j, body):
        if (d, j) == (4, 3):  # the last but one message
            raise ProtocolError("dropped")
        return body

    with pytest.raises(ProtocolError):
        precompute_round(holders,
                         dict.fromkeys(holders, SeededEntropy(b"fail-round")),
                         2, deliver)
    assert all(not s.live for s in holders.values())


def test_a_round_past_the_u32_round_ids_is_refused_before_any_send():
    # fails at the parent commit: the round was stocked, and a store's
    # save of next_round 2^32 + 1 then raised struct.error
    holders, _ = spss_register(b"top", 3, F31_PARAMS, SeededEntropy(b"top"))
    top = (1 << 32) - 1
    for share_set in holders.values():
        share_set.next_round = top - 1
    before = copy.deepcopy(holders)
    calls = []

    def deliver(d, j, body):
        calls.append((d, j))
        return body

    with pytest.raises(ProtocolError, match="u32"):
        precompute_round(holders,
                         dict.fromkeys(holders, SeededEntropy(b"top-round")),
                         3, deliver)
    assert calls == [] and holders == before
    # the last round id that leaves next_round a u32 is still stocked
    again = dict.fromkeys(holders, SeededEntropy(b"top-round"))
    assert tuple(precompute_round(holders, again, 1, deliver)) == (top - 1,)
    assert all(s.next_round == top for s in holders.values())


F7_PARAMS = SpssParams(field=PrimeField(7))  # (3,4): w = 2


@pytest.mark.parametrize("corrupt",
                         list(itertools.combinations(range(1, 5), 2)))
def test_extraction_is_a_bijection_for_every_corrupt_pair(corrupt):
    # For every value the two corrupt contributors send, the honest
    # contributions (enumerated as batches) map onto all q^2 output pairs.
    # A contribution is a sharing's constant (R) or one coefficient of a
    # zero sharing (Z); extraction is applied to each such coordinate alike.
    q = F7_PARAMS.field.q
    honest = [d for d in range(1, 5) if d not in corrupt]
    grid = list(itertools.product(range(q), repeat=2))
    for sent in grid:
        contributions = [None] * 4
        for d, v in zip(corrupt, sent):
            contributions[d - 1] = [v] * len(grid)
        for pos, d in enumerate(honest):
            contributions[d - 1] = [h[pos] for h in grid]
        out = extract(F7_PARAMS, contributions)
        pairs = set(zip(out[0::2], out[1::2]))
        assert len(pairs) == q * q
        for b, values in enumerate(zip(*contributions)):
            assert out[2 * b:2 * b + 2] == [extraction_oracle(values, 0, q),
                                            extraction_oracle(values, 1, q)]


@pytest.mark.parametrize("n_sh", [3, 4, 5, 6])
def test_extract_equals_the_vandermonde_rows_batch_by_batch(n_sh):
    # random batches plus one of all q - 1 and one of all 0, in fields
    # from 5 to 127 bits
    for field in (F31, F2311, PrimeField.mersenne(127)):
        params = SpssParams(n_sh=n_sh, field=field)
        q = field.q
        rng = random.Random(n_sh * q)
        contributions = [[rng.randrange(q) for _ in range(30)] + [q - 1, 0]
                         for _ in range(n_sh)]
        assert extract(params, contributions) == [
            extraction_oracle(values, k, q)
            for values in zip(*contributions)
            for k in range(params.extraction_width)]
        assert extract(params, [[] for _ in range(n_sh)]) == []


def test_extraction_commutes_with_sharing_on_z_coefficients():
    # the extracted Z held by the holders is the zero sharing whose
    # coefficients are the extraction of the contributors' coefficients,
    # so the bijection above holds for Z's coefficients too
    params = F7_PARAMS
    q = params.field.q
    gen = random.Random(0x7e)
    for _ in range(50):
        coeffs = [[0, gen.randrange(q), gen.randrange(q)] for _d in range(4)]
        shares = {j: [sum(c * pow(j, i) for i, c in enumerate(poly)) % q
                      for poly in coeffs] for j in range(1, 5)}
        extracted = [extract(params, [[poly[i]] for poly in coeffs])
                     for i in range(3)]  # per coefficient: (k = 0, k = 1)
        for j in range(1, 5):
            got = extract(params, [[v] for v in shares[j]])
            for k in range(2):
                want = sum(extracted[i][k] * pow(j, i) for i in range(3)) % q
                assert got[k] == want
        assert extracted[0] == [0, 0]


def test_extracted_tuples_share_zero_and_a_low_degree_value():
    params = SpssParams()
    field = params.field
    holders, _ = spss_register(b"xt", 5, params, SeededEntropy(b"x-reg"))
    ids = stock(holders, SeededEntropy(b"x-round"), rounds=7)
    for rid in ids:
        for subset in itertools.combinations((1, 2, 3, 4), 3):
            pts = [(j, live_tuples(holders[j])[rid].z) for j in subset]
            assert interpolate_at_zero(pts, field) == 0
        # degree <= t - 2 = 1: every pair of r shares names one constant
        constants = {interpolate_at_zero(
            [(j, live_tuples(holders[j])[rid].r) for j in pair], field)
            for pair in itertools.combinations((1, 2, 3, 4), 2)}
        assert len(constants) == 1
    # the tuples of one batch and of two batches are distinct values
    assert len({live_tuples(holders[1])[rid].r for rid in ids}) == len(ids)


@pytest.mark.parametrize("rounds", [1, 3, 67, 6503])
def test_rounds_stock_exactly_that_many_tuples_from_ceil_rounds_over_w_draws(
        rounds):
    params = SpssParams()
    holders, _ = spss_register(b"count", 5, params, SeededEntropy(b"c-reg"))
    sources = {j: SeededEntropy(b"c-%d" % j) for j in holders}
    carried = {}
    ids = precompute_round(holders, sources, rounds, recording(carried))
    assert tuple(ids) == tuple(range(rounds))
    batches = -(-rounds // 2)
    assert params.batch_count(rounds) == batches
    for share_set in holders.values():
        assert live_ids(share_set) == list(ids)
    for r_vals, z_vals in carried.values():
        assert len(r_vals) == len(z_vals) == batches
    # one R (degree 1) and one Z (two nonzero coefficients) per batch;
    # a 127-bit Mersenne draw is rejected with probability 2^-127
    per_pair = (params.password_degree + 1 + params.data_degree) * 127
    for source in sources.values():
        assert bits_drawn(source) == batches * per_pair


def test_a_holder_keeps_its_live_tuples_as_columns_not_objects():
    # a tuple is one value in each of two byte columns and its round id
    # lies in a run, so a holder keeps 2 * 16 bytes per live tuple in the
    # 127-bit field;
    # a round folds every contribution into its row sums as it arrives,
    # and keeps no per-contributor values
    params = SpssParams()
    holders, _ = spss_register(b"mem", 5, params, SeededEntropy(b"mem-reg"))
    src = SeededEntropy(b"mem-round")
    rounds = 4000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stock(holders, src, rounds)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_tuple = rounds * params.n_sh
    assert (live - base) / per_tuple <= 64
    assert (peak - base) / per_tuple <= 320
    assert all(len(live_ids(s)) == rounds for s in holders.values())


def test_a_holder_keeps_its_data_shares_as_one_column(tmp_path):
    # a data share is its 16 bytes in the holder's share column, from
    # registration on and again once its record is reopened; an int per
    # share, in a tuple, took 52.6 bytes per share per holder
    params = SpssParams()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        holders = spss_register(bytes(range(250)) * 256, 5, params,
                                SeededEntropy(b"share-col"))[0]
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    blocks = holders[1].block_count
    assert blocks == 4065
    assert (live - base) / (blocks * params.n_sh) <= 24
    HolderStore(tmp_path, holder=2).put_secret(b"sid", holders[2])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reopened = HolderStore(tmp_path)
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (live - base) / blocks <= 24
    assert reopened.get_secret(b"sid") == holders[2]


def test_live_runs_are_the_canonical_runs_of_the_live_ids():
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"live-runs")
    holders, _ = spss_register(b"\xc0", 5, params, rng)
    share_set = holders[1]
    assert share_set.live == []
    stock(holders, rng, rounds=300)
    assert share_set.live == [(0, 300)]
    pick = random.Random(11)
    while share_set.live:
        live = live_ids(share_set)
        spend_rounds(share_set, runs_of(sorted(pick.sample(
            live, min(len(live), pick.randint(1, 9))))))
        assert share_set.live == check_runs(id_runs(
            live_ids(share_set)))
    assert share_set.live == []


def test_a_pinned_id_named_twice_is_refused_before_any_tuple_is_spent():
    # one tuple masking two blocks would give a wrong-password requester
    # the difference of the two blocks
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"twice")
    holders, secret = spss_register(b"\xc0", 5, params, rng)
    need = len(secret.blocks) + 1  # the data blocks and the authenticator
    stock(holders, rng, rounds=need)
    for ids in ((0,) * need, (0, 1, 0), (2, 1, 1)):
        request = spss_request(9, (1, 2, 3), params, rng,
                               rounds=runs_of(ids))
        with pytest.raises(ImproperRequestError, match="twice"):
            holder_respond(holders[1], request[1])
        assert live_ids(holders[1]) == list(range(need))


@pytest.mark.parametrize("fault", sorted(refused_runs(3)))
def test_cut_rounds_refuses_each_faulty_request_before_any_column_changes(
        fault):
    # a round named twice, out of order or not live, or the wrong number
    # of rounds, spends nothing, through cut_rounds and holder_respond
    rng = SeededEntropy(b"refused-runs", fault)
    holders, secret = spss_register(b"\xc0", 5, F31_PARAMS, rng)
    need = len(secret.blocks) + 1
    assert need == 3
    stock(holders, rng, rounds=need + 2)
    share_set = holders[1]
    if fault == "gap":
        spend_rounds(share_set, [(need - 1, need)])
    kept = live_tuples(share_set)
    before = live_columns(share_set)
    runs, error = refused_runs(need)[fault]
    request = spss_request(9, (1, 2, 3), F31_PARAMS, rng, rounds=runs)[1]
    assert request.rounds == runs
    for spend in (lambda: cut_rounds(share_set, runs, need),
                  lambda: holder_respond(share_set, request)):
        with pytest.raises(error):
            spend()
        assert live_columns(share_set) == before
    # the same live rounds, named as canonical runs, are spent
    good = [(0, 2), (3, 4)] if fault == "gap" else [(0, 3)]
    spent = [rid for first, end in good for rid in range(first, end)]
    assert spend_rounds(share_set, good, need) == [kept[rid] for rid in spent]
    assert live_tuples(share_set) == {rid: kept[rid] for rid in kept
                                      if rid not in spent}


# ------------------------------------------------------------- reconstruction

def test_round_trip_all_subsets():
    params = SpssParams()
    rng = SeededEntropy(b"subsets")
    data = b"the same payload for every holder subset"
    password = password_to_element(b"correct horse", params.field)
    holders, secret = spss_register(data, password, params, rng)
    for subset in itertools.combinations((1, 2, 3, 4), 3):
        got = reconstruct(holders, secret, params, password, subset, rng)
        assert got == data


def test_round_trip_randomized():
    rng = SeededEntropy(b"round-trips")
    sizes = random.Random(0xd0)
    for params in (SpssParams(field=F2311), SpssParams()):
        for _ in range(60):
            data = bytes(sizes.randrange(256)
                         for _ in range(sizes.randrange(1, 48)))
            password = (sizes.randrange(1, params.field.q - 1) or 1)
            holders, secret = spss_register(data, password, params, rng)
            got = reconstruct(holders, secret, params, password, (1, 2, 3), rng)
            assert got == data


def test_wrong_password_rejected():
    params = SpssParams()
    rng = SeededEntropy(b"wrong-pass")
    password = password_to_element(b"right", params.field)
    holders, secret = spss_register(b"guarded bytes", password, params, rng)
    with pytest.raises(PasswordFailureError):
        reconstruct(holders, secret, params, password + 1, (1, 2, 3), rng)


def test_out_of_range_blocks_rejected_even_past_authenticator():
    # Garbage that collides on the authenticator but interpolates to a
    # block wider than the payload alphabet must still fail cleanly, not
    # crash during byte reassembly.
    params = SpssParams(field=F31)  # block_bits = 4, field values 0..30
    rng = SeededEntropy(b"oob-blocks")
    attempt = 9
    blocks = [17, 3]  # 17 does not fit a 4-bit block
    mac = mac_block_value(blocks, attempt, F31)
    polys = [random_polynomial(2, t, F31, rng)  # one per track
             for t in blocks + [mac]]
    responses = [
        MaskedResponse(holder=j, values=Packed(
            column([p.evaluate(j) for p in polys], 1), 1))
        for j in (1, 2, 3)
    ]
    with pytest.raises(PasswordFailureError, match="payload alphabet"):
        spss_recover(responses, attempt, params, byte_length=1)


def test_wrong_password_offsets_are_uniform():
    # With attempt != password each recovered block is D_i plus
    # (P - P') * R_i for a fresh uniform R_i: census the offset in F_31.
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"offset-census")
    password = 5
    holders, secret = spss_register(b"\xc0", password, params, rng)
    counts = [0] * 31
    trials = 1000
    for _ in range(trials):
        ids = [stock(holders, rng)[0]
               for _ in range(len(secret.blocks) + 1)]
        requests = spss_request(17, (1, 2, 3), params, rng,
                                rounds=runs_of(ids))
        responses = [holder_respond(holders[j], requests[j]) for j in (1, 2, 3)]
        pts = [(r.holder, r.values[0]) for r in responses]
        recovered = interpolate_at_zero(pts, F31)
        offset = F31.sub(recovered, secret.blocks[0])
        counts[offset] += 1
    expected = trials / 31
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # df = 30: mean 30, sigma = sqrt(60); stay within four sigma
    assert chi2 < 30 + 4 * 60 ** 0.5


def test_share_marginal_uniformity():
    # light secrecy census: holder 1's share of a fixed block over fresh
    # registrations is uniform (the full joint census is in acceptance)
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"marginal")
    counts = [0] * 31
    trials = 2000
    for _ in range(trials):
        holders, _ = spss_register(b"\xc0", 5, params, rng)
        counts[data_shares(holders[1])[0]] += 1
    expected = trials / 31
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 30 + 4 * 60 ** 0.5


def test_request_validation():
    params = SpssParams()
    rng = SeededEntropy(b"req")
    for bad in ((1, 2), (1, 2, 3, 4), (1, 2, 2), (0, 1, 2), (2, 3, 9)):
        with pytest.raises(ImproperRequestError):
            spss_request(5, bad, params, rng, rounds=[(0, 3)])
    requests = spss_request(5, (3, 1, 2), params, rng, rounds=[(0, 3)])
    assert set(requests) == {1, 2, 3}
    assert requests[1].subset == (1, 2, 3)


def test_respond_validation_and_exhaustion():
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"exhaust")
    holders, secret = spss_register(b"\xc0", 5, params, rng)
    # the oldest rounds the holders will stock
    requests = spss_request(5, (1, 2, 3), params, rng,
                            rounds=[(0, len(secret.blocks) + 1)])
    # no precomputation at all
    with pytest.raises(PrecomputationExhaustedError):
        holder_respond(holders[1], requests[1])
    # l rounds when l + 1 are needed
    for _ in range(len(secret.blocks)):
        stock(holders, rng)
    with pytest.raises(PrecomputationExhaustedError):
        holder_respond(holders[1], requests[1])
    # holder outside the subset
    stock(holders, rng)
    with pytest.raises(ImproperRequestError):
        holder_respond(holders[4], requests[1])
    # pinned ids of the wrong arity
    bad = spss_request(5, (1, 2, 3), params, rng, rounds=[(0, 1)])
    with pytest.raises(ImproperRequestError):
        holder_respond(holders[1], bad[1])
    # pinned unknown round
    bad = spss_request(5, (1, 2, 3), params, rng, rounds=[(7, 10)])
    with pytest.raises(PrecomputationExhaustedError):
        holder_respond(holders[1], bad[1])


def test_tuples_are_single_use():
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"single")
    holders, secret = spss_register(b"\xc0", 5, params, rng)
    need = len(secret.blocks) + 1
    first = [stock(holders, rng)[0] for _ in range(need)]
    second = [stock(holders, rng)[0] for _ in range(need)]

    req1 = spss_request(5, (1, 2, 3), params, rng, rounds=runs_of(first))
    resp1 = [holder_respond(holders[j], req1[j]) for j in (1, 2, 3)]
    assert spss_recover(resp1, 5, params, byte_length=1) == b"\xc0"
    for j in (1, 2, 3):
        assert live_ids(holders[j]) == second
        assert first[0] not in live_ids(holders[j])

    # replaying the spent ids fails; the fresh ids still work, and the two
    # reconstructions trivially share no tuple
    replay = spss_request(5, (1, 2, 3), params, rng, rounds=runs_of(first))
    with pytest.raises(PrecomputationExhaustedError):
        holder_respond(holders[1], replay[1])
    req2 = spss_request(5, (1, 2, 4), params, rng, rounds=runs_of(second))
    resp2 = [holder_respond(holders[j], req2[j]) for j in (1, 2, 4)]
    assert spss_recover(resp2, 5, params, byte_length=1) == b"\xc0"
    assert set(first).isdisjoint(second)


def test_spend_rounds_answers_in_named_order_and_refuses_before_any_change():
    params = SpssParams()
    rng = SeededEntropy(b"spend-rule")
    holders, _ = spss_register(b"spend", 5, params, rng)
    stock(holders, rng, rounds=7)
    values = live_tuples(holders[1])
    assert sorted(values) == list(range(7))
    for j in (2, 3, 4):
        assert live_tuples(holders[j]) != values  # each its own shares
    # (r, z) come back in the order the runs name the rounds
    assert spend_rounds(holders[1], [(1, 2), (4, 5)]) == [values[1],
                                                          values[4]]
    assert live_ids(holders[1]) == [0, 2, 3, 5, 6]
    # a scattered set leaves the others with their values
    values = live_tuples(holders[2])
    assert spend_rounds(holders[2], [(0, 1), (2, 3), (5, 6)]) == [
        values[0], values[2], values[5]]
    assert live_tuples(holders[2]) == {
        rid: values[rid] for rid in (1, 3, 4, 6)}
    # a round outside the u32 range is not live, alone or after a live
    # round; a run below round 0 is not canonical; and nothing changes
    # before the refusal
    before = _encode_share_set(holders[3])
    top = 1 << 32
    for runs, error in (([(top, top + 1)], PrecomputationExhaustedError),
                        ([(0, 1), (top, top + 1)],
                         PrecomputationExhaustedError),
                        ([(-1, 0)], ImproperRequestError),
                        ([(0, 1), (-1, 0)], ImproperRequestError)):
        with pytest.raises(error):
            spend_rounds(holders[3], runs)
        assert _encode_share_set(holders[3]) == before
    assert live_ids(holders[3]) == list(range(7))


def test_spend_rounds_matches_a_dict_of_tuples_on_random_spends():
    # each run is found with one search and the kept tuples are moved
    # down over the spent ones; a plain dict from round id to (r, z) is
    # the reference for any mix of runs
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"spend-model")
    holders, _ = spss_register(b"\xc0", 5, params, rng)
    stock(holders, rng, rounds=40)
    share_set = holders[1]
    model = live_tuples(share_set)
    pick = random.Random(7)
    while model:
        live = sorted(model)
        start = pick.randrange(len(live))
        ids = live[start:start + pick.randint(1, 6)]
        ids += pick.sample(live, min(len(live), pick.randint(0, 3)))
        ids = sorted(set(ids))
        assert spend_rounds(share_set, runs_of(ids)) == [model.pop(r)
                                                         for r in ids]
        assert live_tuples(share_set) == model
        assert live_ids(share_set) == sorted(model)


def test_stock_respond_and_retire_match_a_per_id_model():
    # a seeded mix of stocks, responses, retires and refused requests on
    # one share set, each step checked against cut_model's one id at a
    # time rendering of the spend rule: the live ids, the r and z
    # columns, and live as the canonical runs of the ids
    rng = SeededEntropy(b"per-id-model")
    holders, secret = spss_register(b"\xc0", 5, F31_PARAMS, rng)
    need = len(secret.blocks) + 1
    share_set, model = holders[1], {}
    pick = random.Random(47)
    steps = ["stock"] * 20 + ["respond"] * 15 + ["retire"] * 15
    steps += [fault for fault in refused_runs(need) for _ in range(3)]
    pick.shuffle(steps)
    for step in ["stock"] + steps:
        live = sorted(model)
        if step == "stock":
            ids = stock(holders, rng, pick.randint(1, 9))
            stocked = live_tuples(share_set)
            model.update((rid, stocked[rid]) for rid in ids)
        elif step == "retire":
            # the rounds another holder, which spent some, still holds
            reported = [runs_of(sorted(pick.sample(live, pick.randint(
                len(live) // 2, len(live)))))]
            runs = retired_rounds(share_set.live, reported)
            gone = set(live) - set(expand_runs(reported[0]))
            assert expand_runs(runs) == tuple(sorted(gone))
            assert spend_rounds(share_set, runs) == cut_model(model, runs)
        else:
            if step == "respond" and len(live) >= need:
                runs = runs_of(sorted(pick.sample(live, need)))
            else:  # a fault, moved to the oldest live round
                base = live[0] if live else 0
                runs = [(first + base, end + base) for first, end in
                        refused_runs(need).get(step, ([(0, need)],))[0]]
            request = spss_request(9, (1, 2, 3), F31_PARAMS, rng,
                                   rounds=runs)[1]
            diff = (share_set.password_share - request.password_share) % 31
            try:
                want = cut_model(model, runs, need)
            except (ImproperRequestError,
                    PrecomputationExhaustedError) as exc:
                with pytest.raises(type(exc)):
                    holder_respond(share_set, request)
            else:
                got = holder_respond(share_set, request)
                assert tuple(got.values) == tuple(
                    (diff * t.r + t.z + share) % 31
                    for t, share in zip(want, data_shares(share_set)))
        assert live_tuples(share_set) == model
        assert share_set.live == check_runs(id_runs(sorted(model)))
        assert len(share_set.r) == len(share_set.z) == len(model)


def test_a_runs_list_read_before_a_precompute_round_is_not_changed_by_it():
    # TpvSession.precompute reads every holder's live runs before the
    # round and retires against them after it, so a stock joined to that
    # list in place would retire itself
    rng = SeededEntropy(b"live-snapshot")
    holders, _ = spss_register(b"\xc0", 5, F31_PARAMS, rng)
    stock(holders, rng, rounds=2)
    before = holders[1].live
    stock(holders, rng, rounds=3)  # joins the last run
    assert before == [(0, 2)] and holders[1].live == [(0, 5)]
    cut_rounds(holders[1], [(4, 5)])
    before = holders[1].live
    stock(holders, rng, rounds=1)  # a new run past the spent round
    assert before == [(0, 4)] and holders[1].live == [(0, 4), (5, 6)]
    before = holders[1].live
    cut_rounds(holders[1], [(1, 2)])
    assert before == [(0, 4), (5, 6)]


def test_fifo_tuple_choice_without_pinning():
    # every request pins its rounds; pinning the oldest live ones spends
    # what an unpinned request once did
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"fifo")
    holders, secret = spss_register(b"\xc0", 5, params, rng)
    got = reconstruct(holders, secret, params, 5, (1, 2, 3), rng, pin=False)
    assert got == b"\xc0"
    for j in (1, 2, 3):
        assert live_ids(holders[j]) == []
    assert live_ids(holders[4]) == [0, 1, 2]


def test_recover_returns_blocks_without_length():
    params = SpssParams(field=F31)
    rng = SeededEntropy(b"blocks-only")
    holders, secret = spss_register(b"\x7f", 9, params, rng)
    blocks = reconstruct(holders, secret, params, 9, (2, 3, 4), rng)
    assert blocks == b"\x7f"  # helper passes byte_length through


def test_params_validation():
    with pytest.raises(ConfigurationError):
        SpssParams(t_sh=1, n_sh=4)
    with pytest.raises(ConfigurationError):
        SpssParams(t_sh=5, n_sh=4)
    # the password-product term has degree 2*(t-2); beyond t = 3 it can
    # no longer be interpolated from t responses
    with pytest.raises(ConfigurationError):
        SpssParams(t_sh=4, n_sh=6)
    # the password and R sharings have degree t-2: at t = 2 every holder
    # would hold the password itself
    with pytest.raises(ConfigurationError, match="t_sh = 3"):
        SpssParams(t_sh=2, n_sh=3)
    p = SpssParams(t_sh=3, n_sh=6, field=F31)
    assert p.data_degree == 2 and p.password_degree == 1
    assert list(p.holder_indices) == [1, 2, 3, 4, 5, 6]
    # with q <= n_sh two holder indices coincide mod q (or one is 0), so
    # interpolation divides by zero and the extraction columns repeat
    for q, n_sh in ((5, 6), (5, 5), (7, 7), (7, 9)):
        with pytest.raises(ConfigurationError):
            SpssParams(t_sh=3, n_sh=n_sh, field=PrimeField(q))
    assert SpssParams(t_sh=3, n_sh=6, field=PrimeField(7)).n_sh == 6


def test_round_trip_wider_holder_pool():
    params = SpssParams(t_sh=3, n_sh=6, field=F2311)
    rng = SeededEntropy(b"threshold-36")
    password = 0xbee
    holders, secret = spss_register(b"wider quorum", password, params, rng)
    got = reconstruct(holders, secret, params, password, (2, 5, 6), rng)
    assert got == b"wider quorum"
    with pytest.raises(PasswordFailureError):
        reconstruct(holders, secret, params, password ^ 1, (1, 3, 4), rng)


# ------------------------------------------------------------ refusals


def records(holders) -> dict:
    """Each holder's share set in its stored form."""
    return {j: _encode_share_set(s) for j, s in holders.items()}


def test_a_precompute_round_over_holders_at_other_rounds_changes_nothing():
    holders, _ = spss_register(b"ab", 3, F31_PARAMS, SeededEntropy(b"skew"))
    holders[4].next_round = 1
    before = records(holders)
    rng = SeededEntropy(b"skew-round")
    with pytest.raises(ProtocolError) as info:
        stock(holders, rng)
    assert str(info.value) == "holders disagree on the next round id"
    assert bits_drawn(rng) == 0
    assert records(holders) == before

