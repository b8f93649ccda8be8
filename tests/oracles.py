"""Reference implementations and helpers the tests share, which the
system itself never calls.

An oracle here is a plain rendering of a rule that the package computes
another way, or a reading of a record the package keeps for its own use:
the tests check the package against them. The handover helpers pass the
round functions of itstore.spss and itstore.protocol what a session
would, with every value arriving as it was dealt.
"""

from collections import namedtuple
from dataclasses import replace
from operator import sub
from pathlib import Path

from itstore.errors import ImproperRequestError, PrecomputationExhaustedError
from itstore.field import mod_exp, zero_coefficients
from itstore.protocol import TpvSession, renewal_round
from itstore.spss import (_fold, _reduced, _slot_bytes, cut_rounds,
                          precompute_round)
from itstore.stores import DISK
from itstore.wire import Cursor, Packed, column


# ----------------------------------------------------------------- fields

def random_int(field, randomness) -> int:
    """One uniform element of [0, q) by rejection sampling: draw
    bit_length(q) bits until they fall below q. PrimeField.random_ints
    returns what count calls of this return, from the same bits."""
    n = field.q.bit_length()
    while True:
        v = randomness.take_bits(n)
        if v < field.q:
            return v


def interpolate_at_zero(pairs, field) -> int:
    """f(0) from [(x, y), ...]: the zero_coefficients-weighted sum of the
    y values."""
    weights = zero_coefficients([x for x, _ in pairs], field)
    return sum(w * y for w, (_, y) in zip(weights, pairs)) % field.q


def members_of(commitments, config) -> set:
    """The commitments that lie in config's order-q subgroup, each found
    by one power: the members that a round's subgroup_members proves for
    them, as verify_renewal_share takes them."""
    return {eps for eps in commitments
            if 0 < eps < config.p and pow(eps, config.q, config.p) == 1}


def derive_subgroup_element(x: int, p: int, q: int) -> int:
    """x^((p-1)/q) mod p: lands in the order-q subgroup, log unknown."""
    return mod_exp(x, (p - 1) // q, p)


def bits_drawn(source) -> int:
    """How many bits a SeededEntropy has handed out: its cursor in its
    PRF stream."""
    return source._cursor


# ------------------------------------------------------------ precompute

def extract(params, contributions) -> list:
    """Apply rows k = 0..w-1 of V[k][d] = d^k to one holder's received
    values: contributions[d-1] lists contributor d's value per batch, and
    the result lists sum_d d^k * contributions[d-1][b] mod q in the order
    (b, k), batch-major. It runs precompute_round's fold and reduction
    over every contribution at once, one value per batch."""
    field = params.field
    batches = min(map(len, contributions), default=0)
    slot = _slot_bytes(params)
    rows = [0] * params.extraction_width
    for d, values in zip(params.holder_indices, contributions):
        _fold(rows, d, column(values[:batches], field.byte_width),
              field.byte_width, slot, field.q)
    (out,) = _reduced([row.to_bytes(batches * slot, "big") for row in rows],
                      0, batches, slot, field.q, kinds=1)
    return out


def handover(_dealer, _receiver, body):
    """A precompute_round deliver that hands each column over as dealt."""
    return body


def stock(holders: dict, source, rounds: int = 1) -> range:
    """precompute_round with every holder drawing from one shared source,
    in index order, and the values handed over as dealt:
    dict.fromkeys(holders, source) draws exactly what one source drew."""
    return precompute_round(holders, dict.fromkeys(holders, source), rounds,
                            handover)


def spend_rounds(share_set, runs, count: "int | None" = None) -> list:
    """cut_rounds, with the spent tuples decoded: their (r, z), in round
    order."""
    w = share_set.params.field.byte_width
    r_col, z_col = cut_rounds(share_set, runs, count)
    n = len(r_col) // w
    return list(zip(Cursor(r_col).uints(n, w), Cursor(z_col).uints(n, w)))


# ------------------------------------------------------- holder share sets

def data_shares(share_set) -> tuple:
    """A holder's data-share column as ints, f_{D_i}(j) for i = 1..l+1."""
    return Cursor(share_set.shares).uints(share_set.block_count,
                                          share_set.params.field.byte_width)


def runs_of(ids) -> list:
    """(first, end) runs that name ids in the order given, each stretch of
    consecutive ids one run. Nothing is checked, so ids named twice or out
    of order give runs that cut_rounds refuses."""
    out = []
    for rid in ids:
        if out and out[-1][1] == rid:
            out[-1] = (out[-1][0], rid + 1)
        else:
            out.append((rid, rid + 1))
    return out


def live_ids(share_set) -> list:
    """A holder's live round ids, ascending, one int each."""
    return list(expand_runs(share_set.live))


MaskingTuple = namedtuple("MaskingTuple", "r z")


def live_tuples(share_set) -> dict:
    """A holder's live masking tuples as {round id: MaskingTuple(r, z)},
    decoded from its r and z columns."""
    ids, w = live_ids(share_set), share_set.params.field.byte_width
    return dict(zip(ids, map(MaskingTuple,
                             Cursor(bytes(share_set.r)).uints(len(ids), w),
                             Cursor(bytes(share_set.z)).uints(len(ids), w))))


def live_columns(share_set) -> tuple:
    """A holder's live tuples as stored: the ids and the r and z bytes."""
    return live_ids(share_set), bytes(share_set.r), bytes(share_set.z)


def cut_model(model: dict, runs, count: "int | None" = None) -> list:
    """cut_rounds' rule one round id at a time, over a model of a
    holder's live tuples, {round id: MaskingTuple}: refuses what
    cut_rounds refuses, in its order and with its error types, and
    otherwise pops the named tuples and returns them in round order."""
    ids = expand_runs(runs)
    if (any(first >= end for first, end in runs)
            or list(ids) != sorted(set(ids))
            or any(a[1] == b[0] for a, b in zip(runs, runs[1:]))):
        raise ImproperRequestError("runs are not canonical")
    if not set(ids) <= model.keys():
        raise PrecomputationExhaustedError("a named round is not live")
    if count is not None and len(ids) != count:
        raise ImproperRequestError("runs name %d rounds" % len(ids))
    return [model.pop(rid) for rid in ids]


def refused_runs(n: int) -> dict:
    """Requests for n rounds that a holder whose live rounds are 0..n+1
    must refuse before anything changes, each named for its fault, as
    {fault: (runs, error)}. The "gap" request meets a holder that has
    spent round n - 1, and only "wrong-total" names other than n rounds."""
    return {
        "empty": ([(0, n), (n + 1, n + 1)], ImproperRequestError),
        "overlapping": ([(0, n - 1), (n - 2, n - 1)], ImproperRequestError),
        "touching": ([(0, n - 1), (n - 1, n)], ImproperRequestError),
        "out-of-order": ([(n - 1, n), (0, n - 1)], ImproperRequestError),
        "gap": ([(0, n)], PrecomputationExhaustedError),
        "past-the-stock": ([(3, n + 3)], PrecomputationExhaustedError),
        "wrong-total": ([(0, n - 1)], ImproperRequestError),
    }


# --------------------------------------------------------------- renewal

def deal(dealer, commitments, pairs) -> dict:
    """A renewal_round deliver that hands every other holder the dealer's
    columns as dealt."""
    return {j: (commitments, sent) for j, sent in pairs.items()
            if j != dealer}


def renew(shares: dict, degree: int, config, sources: dict, deliver=deal):
    """renewal_round over shares given as tuples of ints, with the check
    bits drawn from the lowest holder's source after the round's draws;
    the outcome's new_shares, when there are any, as tuples too."""
    width = config.share_field().byte_width
    outcome = renewal_round(
        {j: Packed(column(s, width), width) for j, s in shares.items()},
        degree, config, sources, deliver,
        check_source=lambda _: sources[min(sources)] if sources else None)
    if outcome.new_shares is None:
        return outcome
    return replace(outcome, new_shares={
        j: tuple(view) for j, view in outcome.new_shares.items()})


def tamper_pairs(monkeypatch, pair_tamper) -> None:
    """Make every session model a corrupted renewal contribution: wrap
    TpvSession._send so that it rewrites each renew-pairs column before
    it is encoded, pair by pair, as pair_tamper(dealer, recipient, track,
    (s1, s2)) -> (s1, s2) returns it, dealer and recipient as holder
    indices."""
    send = TpvSession._send

    def tampered(session, sender, receiver, kind, header, *body):
        if kind == "renew-pairs":
            (raw,) = body
            width = session.params.field.byte_width
            dealer, recipient = header[2], int(receiver.rsplit("-", 1)[1])
            body = (column([v for track, pair in enumerate(
                Packed(raw, width, 2)) for v in pair_tamper(
                    dealer, recipient, track, pair)], width),)
        return send(session, sender, receiver, kind, header, *body)

    monkeypatch.setattr(TpvSession, "_send", tampered)


# ------------------------------------------------------------------- wire

def expand_runs(ranges) -> tuple:
    """Every id of a list of (first, end) ranges, in order."""
    ids = []
    for first, end in ranges:
        ids += range(first, end)
    return tuple(ids)


def id_runs(ids) -> list:
    """The canonical (first, count) runs of a strictly increasing list of
    u32 ids, flattened: [first, count, first, count, ...]. wire.check_runs
    turns them into (first, end) ranges."""
    ids = list(ids)
    if not ids:
        return []
    steps = list(map(sub, ids[1:], ids))
    if any(step <= 0 for step in steps):
        raise ImproperRequestError("round ids must strictly increase")
    if ids[0] < 0 or ids[-1] >> 32:
        raise ImproperRequestError("round id outside the u32 range")
    starts = [0] + [k for k, step in enumerate(steps, 1) if step != 1]
    flat = []
    for a, b in zip(starts, starts[1:] + [len(ids)]):
        flat += (ids[a], b - a)
    return flat


def received_bytes(session, receiver: str, sid: "bytes | None" = None,
                   kind: "str | None" = None) -> int:
    """Payload bytes delivered to an endpoint, optionally only those of one
    secret and one message kind, summed over the session's transcript:
    one `otp` or `local` line per delivery."""
    total = 0
    for line in session.transcript:
        words = line.split()
        if words[0] not in ("otp", "local"):
            continue
        fields = dict(w.split("=", 1) for w in words[2:])
        if (words[1].split("->")[1] == receiver
                and (sid is None or fields["sid"] == sid.hex())
                and (kind is None or fields["kind"] == kind)):
            total += int(fields["bytes"])
    return total


# ----------------------------------------------------------------- stores

def contains_window(haystack: bytes, needle: bytes, window: int = 8) -> bool:
    """True when any window-byte substring of needle occurs in haystack.

    The erasure checks scan store files with this: finding even one window
    of a supposedly destroyed value counts as a leak. Needles shorter than
    the window are searched for whole.
    """
    w = min(window, len(needle))
    targets = {needle[i:i + w] for i in range(len(needle) - w + 1)}
    return bool(needle) and any(haystack[i:i + w] in targets
                                for i in range(len(haystack) - w + 1))


def directory_contains_window(directory, needle: bytes, window: int = 8) -> bool:
    """Scan every regular file under a directory for windows of needle."""
    for name, size in sorted(DISK.listing(directory).items()):
        path = Path(directory, name)
        if (directory_contains_window(path, needle, window) if size is None
                else contains_window(DISK.read(path), needle, window)):
            return True
    return False
