"""Password-authenticated secret sharing with masked reconstruction.

The data is cut into field-sized blocks D_1..D_l (the leftmost chunk of
the byte string is D_l, the rightmost is D_1) and an authenticator block

    D_{l+1} = D_l P^l + ... + D_1 P

is appended, where P is the password mapped into the field. Every block is
Shamir-shared at degree t-1; the password is shared at degree t-2, one
degree lower, so that the password-difference product below still
interpolates with t points.

Reconstruction never moves raw shares. A requester shares its password
attempt P' at degree t-2 and each contacted holder j answers, per block,

    F_ji = (f_P(j) - f_P'(j)) * r + z + f_Di(j)

with (r, z) holder j's shares of one masking tuple: R, a sharing of a
fresh uniform value at degree t-2, and Z, a sharing of zero at degree
t-1. With the right password the difference vanishes and F_i(0) = D_i;
with a wrong one every block comes back uniformly offset by (P - P') * R_i
for an unknown fresh R_i, and the authenticator equation

    F_{l+1}(0) == sum_i F_i(0) P'^i

accepts with probability 1/q at most (one linear constraint on the fresh
offsets). Each tuple is consumed by exactly one response: cut_rounds is
the one way a tuple leaves a holder, for a response (holder_respond reads
the spent columns it returns) and for a retire. A holder's live rounds
are one run, [first, next_round), and every spend is a head cut: it drops
each live round below the end of the run it serves. A round below a pin
is one that some holder of that reconstruction has already spent, so no
t-subset may spend it again (retired_rounds), and dropping it loses
nothing a later reconstruction may use. A recon-ask names its pinned
rounds as one (first, end) run, and cut_rounds refuses a run the holder
does not hold before it drops a tuple.

Masking tuples come from precomputation batches with randomness
extraction (Damgard-Nielsen, CRYPTO 2007). In a batch every holder d
contributes a random sharing s_d of each kind, and every holder applies
rows k = 0..w-1 of the Vandermonde matrix V[k][d] = d^k mod q to the n
values it received, w = n - t + 1:

    R_k = sum_d d^k * R-contribution of d,  Z_k likewise,

which gives w tuples per batch and costs one contribution per holder pair
per w tuples. Privacy and the wrong-password bound are unchanged from
tuples that sum fresh contributions. At most t-1 contributors are corrupt, so
at least w are honest; the w columns of V at honest indices form a w x w
Vandermonde matrix with distinct nonzero nodes, which is invertible. For
any values the corrupt contributors send, the map from the honest
contributions to (R_0..R_{w-1}) is therefore a bijection, so the
extracted values are uniform and independent of each other, of every
other batch and of everything the adversary holds; the same holds for
Z's coefficients. Every extracted R is a linear combination of degree
t-2 sharings, so it keeps degree t-2, and every extracted Z is a
combination of sharings of zero, so it still shares zero.

Every sharing phase works slice by slice, SLICE blocks or batches at a
time: registration, each precompute contributor, each response and the
recovery build the ints of one slice, append its bytes to the byte
column the phase moves, and drop them before the next. Messages stay
whole, and the draws stay in the order of one draw for the whole
secret: PrimeField.random_ints returns what sequential draws return, so
drawing slice by slice takes the same values and the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from operator import mul

from .errors import (
    ConfigurationError,
    ImproperRequestError,
    PasswordFailureError,
    PrecomputationExhaustedError,
    ProtocolError,
)
from .field import PrimeField, zero_coefficients
from .field import random_polynomial  # noqa: F401 -- perfbench's tracer hooks this name
from .wire import Cursor, Packed, column

__all__ = [
    "SpssParams",
    "RegisteredSecret",
    "HolderShareSet",
    "SpssRequest",
    "MaskedResponse",
    "password_to_element",
    "data_block_count",
    "mac_block_value",
    "spss_register",
    "precompute_round",
    "retired_rounds",
    "masking_columns",
    "check_subset",
    "check_offline",
    "spss_request",
    "cut_rounds",
    "holder_respond",
    "spss_recover",
    "split_blocks",
    "reassemble_blocks",
]

DEFAULT_FIELD_EXPONENT = 127

# Blocks, or precompute batches, per slice: each sharing phase builds the
# ints of one slice at a time. A multiple of 8, so a slice of blocks is
# whole groups of block_bits bytes (split_blocks, reassemble_blocks).
SLICE = 1024


@dataclass(frozen=True)
class SpssParams:
    """Threshold layout: t_sh-of-n_sh sharing over the given prime field."""

    t_sh: int = 3
    n_sh: int = 4
    field: PrimeField = dc_field(
        default_factory=lambda: PrimeField.mersenne(DEFAULT_FIELD_EXPONENT))

    def __post_init__(self):
        if self.t_sh > self.n_sh:
            raise ConfigurationError("need t_sh <= n_sh")
        # The response F = (f_P - f_P')*R + Z + f_D has degree
        # 2*(t_sh - 2) in the password product term; t_sh points can only
        # interpolate it while that stays at or below t_sh - 1, so the
        # masking algebra caps the threshold at 3. The password and R are
        # shared at degree t_sh - 2, which at t_sh = 2 hands every holder
        # the password itself, so secrecy needs at least 3.
        if self.t_sh != 3:
            raise ConfigurationError("masked reconstruction requires t_sh = 3")
        # Holder indices travel in one byte (a precomp contributor, a
        # renewal sender, a recon-ask subset) and the record header stores
        # n_sh in one.
        if self.n_sh > 255:
            raise ConfigurationError(
                "holder indices travel in one byte, so n_sh <= 255, got %d"
                % self.n_sh)
        # Holder indices are the sharing nodes and the extraction's
        # Vandermonde columns: both need them distinct and nonzero mod q.
        if self.field.q <= self.n_sh:
            raise ConfigurationError(
                "holder indices 1..%d are not distinct and nonzero mod %d"
                % (self.n_sh, self.field.q))

    @property
    def block_bits(self) -> int:
        return self.field.block_bits

    @property
    def data_degree(self) -> int:
        return self.t_sh - 1

    @property
    def password_degree(self) -> int:
        return self.t_sh - 2

    @property
    def holder_indices(self) -> range:
        return range(1, self.n_sh + 1)

    @property
    def extraction_width(self) -> int:
        """w = n - t + 1: masking tuples extracted from one batch."""
        return self.n_sh - self.t_sh + 1

    def batch_count(self, rounds: int) -> int:
        """Batches that yield `rounds` masking tuples."""
        return -(-rounds // self.extraction_width)


@dataclass(frozen=True)
class RegisteredSecret:
    """Owner-side registration record.

    data is the registered payload and mac_block its authenticator block;
    both are secret material and are returned to the registering caller
    only, never to a holder. blocks reads D_1..D_l from data on each read
    (blocks[i-1] holds D_i), so no int per block is kept.
    """

    data: bytes
    mac_block: int
    t1: int
    block_bits: int

    @property
    def blocks(self) -> tuple:
        return tuple(reversed(split_blocks(self.data, self.block_bits)[0]))


@dataclass
class HolderShareSet:
    """Everything holder j keeps for one registered secret, in its
    record's form.

    shares is the data-share column: f_{D_i}(j) for i = 1..l+1, in index
    order, each the field's byte width big-endian, so a share costs its
    16 bytes in the 127-bit field and no int is kept per share. A
    response reads it a slice at a time, and a renewal replaces its bytes
    (HolderStore.apply_renewal).
    The live masking tuples are kept the same way: they are the one run
    of round ids [first, next_round), and r and z are bytearray columns
    of the field's byte width holding one value per live id, in id order.
    So no round id is kept one by one, and no object per tuple. Round
    ids are stocked contiguously from 0 and next_round is one past the
    highest ever stocked; precompute_round stocks tuples at next_round,
    and cut_rounds spends from the head, so every id below first is
    spent. renewals counts the renewal rounds applied to the data
    shares: they are numbered 0, 1, ... in turn, so the next round is
    round `renewals`.
    """

    holder: int
    params: SpssParams
    shares: bytes
    password_share: int  # f_P(j)
    first: int = 0
    r: bytearray = dc_field(default_factory=bytearray)
    z: bytearray = dc_field(default_factory=bytearray)
    next_round: int = 0
    renewals: int = 0

    @property
    def block_count(self) -> int:
        return len(self.shares) // self.params.field.byte_width


@dataclass(frozen=True)
class SpssRequest:
    """What one holder receives when a reconstruction starts."""

    subset: tuple
    password_share: int  # f_{P'}(j)
    rounds: list  # the masking rounds to spend, one per block: one run


@dataclass(frozen=True)
class MaskedResponse:
    holder: int
    values: Packed  # F_{j,1}..F_{j,l+1} as a byte column


def password_to_element(raw: bytes, field: PrimeField) -> int:
    """Map password bytes to a nonzero field element (big-endian, mod q).

    Zero is rejected: a zero password would null every authenticator term
    and make the check pass for arbitrary recovered garbage.
    """
    value = int.from_bytes(raw, "big") % field.q
    if value == 0:
        raise ConfigurationError("password reduces to zero in the field")
    return value


def data_block_count(byte_length: int, params: SpssParams) -> int:
    """Number of data blocks l for a payload of byte_length bytes."""
    return -(-byte_length * 8 // params.block_bits)


def mac_block_value(blocks_by_index, password: int, field: PrimeField,
                    acc: int = 0) -> int:
    """D_{l+1} = sum_{i=1..l} D_i P^i, blocks given in index order.

    acc continues Horner's rule from blocks above these: passing the value
    of D_l..D_{m+1} as acc and then D_1..D_m gives the value of all l, so
    a slice loop can feed the blocks a slice at a time, highest first.
    """
    for b in reversed(blocks_by_index):  # D_l first: ((D_l P + D_{l-1}) P + ...) P
        acc = field.mul(field.add(acc, b), password)
    return acc


def _ints(col: bytes, first: int, end: int, width: int) -> tuple:
    """Values first..end-1 of a column of width-byte values."""
    return Cursor(col[first * width:end * width]).uints(end - first, width)


def spss_register(data: bytes, password: int, params: SpssParams,
                  randomness, t1: int = 0):
    """Split, authenticate and share a byte string.

    Returns ({holder j: HolderShareSet}, RegisteredSecret). The share sets
    start with no precomputed tuples: precompute_round, which
    TpvSession.precompute runs over its transport, stocks them before a
    reconstruction. data must be non-empty and password a nonzero element
    of the field, as TpvSession.register and password_to_element make
    them.

    The blocks are read from data SLICE at a time, twice: highest index
    first for the authenticator, then lowest first for the sharing. Each
    slice draws its blocks' coefficients with one random_ints call, in
    the order one polynomial per block takes them, and appends its
    shares to every holder's column; the authenticator ends the last
    slice, and the password polynomial is drawn after every block.
    """
    field = params.field
    bits = params.block_bits
    degree = params.data_degree
    width = field.byte_width
    # a slice's SLICE blocks are SLICE / 8 groups of `bits` bytes, so wire
    # block p, the first of its slice, starts at byte p / 8 * bits
    starts = range(0, data_block_count(len(data), params), SLICE)

    def blocks_at(p: int) -> list:
        """The blocks of the slice at wire block p, in index order."""
        return split_blocks(data[p // 8 * bits:(p + SLICE) // 8 * bits],
                            bits)[0][::-1]

    mac_block = 0
    for p in starts:  # wire order is D_l first
        mac_block = mac_block_value(blocks_at(p), password, field, mac_block)

    parts = {j: [] for j in params.holder_indices}
    for p in reversed(starts):  # D_1 first
        values = blocks_at(p) + ([mac_block] if p == 0 else [])
        drawn = field.random_ints(randomness, len(values) * degree)
        columns = [values] + [drawn[i::degree] for i in range(degree)]
        for j, out in parts.items():
            out.append(column(field.eval_columns(columns, j), width))
    pw_coeffs = [password,
                 *field.random_ints(randomness, params.password_degree)]

    holders = {j: HolderShareSet(j, params, b"".join(parts.pop(j)),
                                 field.poly_eval_int(pw_coeffs, j))
               for j in params.holder_indices}
    return holders, RegisteredSecret(data, mac_block, t1, bits)


def precompute_round(holders: dict, randomness: dict, rounds: int,
                     deliver) -> range:
    """Stock `rounds` masking tuples at every holder.

    The tuples come from params.batch_count(rounds) batches: per batch
    every holder contributes a random sharing and a zero sharing, and
    every holder extracts w = n - t + 1 tuples from the n contributions it
    receives (see the module docstring), keeping the first `rounds`.

    holders maps each of params.holder_indices to its share set, and
    randomness each holder to its RandomSource, as TpvSession.precompute
    builds them: the simulation gives each holder its own entropy pool.
    Contributors go in index order. Each draws and evaluates its batches
    SLICE at a time (one masking_columns call per slice, so its draws are
    those of one call for every batch) and appends each holder's (r, z)
    values, interleaved batch by batch, to that holder's column. It then
    hands every other holder j, in index order, its column through
    deliver(d, j, body) -> body, body a wire.Packed view of the column in
    (r, z) items, which returns the column as j received it (the precomp
    header and run length fix its length). Each holder folds every
    column into its w packed row sums as the column arrives (_fold) and
    keeps no column; once every contribution has arrived, the row sums
    are reduced mod q a slice at a time and appended to each holder's r
    and z columns, and next_round moves past the new rounds.
    A round whose next_round would pass 2^32 - 1 is refused with
    ProtocolError before any draw or send, and no share set changes
    before every contribution has arrived.
    Returns the new round ids as a range, which are the same at every
    holder by construction; round id start + b*w + k is row k of batch b.
    """
    if rounds < 1:
        raise ConfigurationError("need at least one precompute round")
    params = holders[1].params
    field = params.field
    width = field.byte_width
    indices = list(params.holder_indices)
    starts = {s.next_round for s in holders.values()}
    if len(starts) != 1:
        raise ProtocolError("holders disagree on the next round id")
    start = starts.pop()
    if start + rounds >> 32:  # next_round is stored as a u32
        raise ProtocolError(
            "%d rounds from round %d pass the u32 round ids"
            % (rounds, start))
    batches = params.batch_count(rounds)
    w = params.extraction_width
    slot = _slot_bytes(params)

    rows = {j: [0] * w for j in indices}
    for d in indices:
        parts = {j: [] for j in indices}
        for first in range(0, batches, SLICE):
            count = min(SLICE, batches - first)
            r_cols, z_cols = masking_columns(params, randomness[d], count)
            for j, out in parts.items():
                flat = [0] * (2 * count)
                flat[0::2] = field.eval_columns(r_cols, j)
                flat[1::2] = field.eval_columns(z_cols, j)
                out.append(column(flat, width))
        for j in indices:
            body = b"".join(parts.pop(j))
            if j != d:
                body = deliver(d, j, Packed(body, width, 2)).raw
            _fold(rows[j], d, body, width, slot, field.q)

    for j in indices:
        raws = [row.to_bytes(2 * batches * slot, "big") for row in rows.pop(j)]
        new = ([], [])
        for first in range(0, batches, SLICE):
            end = min(batches, first + SLICE)
            keep = min(end * w, rounds) - first * w
            for out, vals in zip(new, _reduced(raws, first, end, slot,
                                               field.q)):
                out.append(column(vals[:keep], width))
        share_set = holders[j]
        share_set.r += b"".join(new[0])
        share_set.z += b"".join(new[1])
        share_set.next_round = start + rounds
    return range(start, start + rounds)


def retired_rounds(first: int, reported, start: int) -> int:
    """The round below which a holder retires its stock at a precompute:
    the highest of its own first live round and the first live rounds
    the other holders reported with their precomp contributions, each
    one run, where an empty report counts as start, the precompute's
    first new round.

    A round spent at any holder masked a released response, so no
    t-subset may spend it again: the holders that served it no longer
    hold it, and a subset without them would reuse a mask that already
    hid one response. Each holder spends from its head, so every round
    below the highest first is spent somewhere, and HolderStore.retire
    drops it with the head cut a spend makes (cut_rounds). Retiring can
    only lose tuples, never revive one.
    """
    return max([first] + [runs[0][0] if runs else start
                          for runs in reported])


def _slot_bytes(params: SpssParams) -> int:
    """Bytes per value of a packed row sum: room for the sum of n values
    below q, each weighted d^k mod q for a contributor d and a row k."""
    q = params.field.q
    weight = max(pow(d, k, q) for d in params.holder_indices
                 for k in range(params.extraction_width))
    return -(-(params.n_sh * weight * (q - 1)).bit_length() // 8)


def _fold(rows: list, d: int, col: bytes, width: int, slot: int,
          q: int) -> None:
    """Add contributor d's column of width-byte values to the packed row
    sums, row k weighted d^k mod q.

    A packed row sum is one int holding value i of every contribution's
    sum in its i-th slot of `slot` bytes, with no reduction: the column is
    spread into the same slots, and slot bytes leave room for every term
    (_slot_bytes), so adding weight * spread adds slot by slot with no
    carry between slots. One multiply-add per row, and no int per value.
    """
    slots = bytearray(len(col) // width * slot)
    for i in range(width):  # byte i of each value, to the slot's low bytes
        slots[slot - width + i::slot] = col[i::width]
    spread = int.from_bytes(slots, "big")
    del slots
    for k in range(len(rows)):
        rows[k] += pow(d, k, q) * spread


def _reduced(raws: list, first: int, end: int, slot: int, q: int,
             kinds: int = 2) -> list:
    """Batches first..end-1 of packed row sums given as bytes, each batch
    `kinds` slots, reduced mod q: a list per kind, row k of batch b at
    (b - first) * w + k."""
    w = len(raws)
    out = [[0] * ((end - first) * w) for _ in range(kinds)]
    for k, raw in enumerate(raws):
        values = _ints(raw, first * kinds, end * kinds, slot)
        for kind, vals in enumerate(out):
            vals[k::w] = [v % q for v in values[kind::kinds]]
    return out


def masking_columns(params: SpssParams, randomness, batches: int):
    """One holder's contributions to `batches` precomputation batches, as
    coefficient columns for PrimeField.eval_columns: (r_columns,
    z_columns), each column holding one coefficient of every batch.

    A batch's contribution is a sharing of a uniform value at the
    password degree and a sharing of zero at the data degree. All
    coefficients come from one random_ints draw, in the order the first
    sharing's constant, its other coefficients, then the zero sharing's,
    batch after batch.
    """
    pw_degree = params.password_degree
    stride = 1 + pw_degree + params.data_degree
    drawn = params.field.random_ints(randomness, batches * stride)
    r_cols = [drawn[i::stride] for i in range(pw_degree + 1)]
    z_cols = [[0] * batches] + [drawn[i::stride]
                                for i in range(pw_degree + 1, stride)]
    return r_cols, z_cols


def check_subset(subset, params: SpssParams) -> tuple:
    """The one subset rule of a reconstruction: exactly t_sh distinct
    holder indices in 1..n_sh. Returns the subset as a tuple in the
    caller's order; refuses any other with ImproperRequestError."""
    chosen = tuple(subset)
    if (len(chosen) != params.t_sh or len(set(chosen)) != len(chosen)
            or any(j not in params.holder_indices for j in chosen)):
        raise ImproperRequestError(
            "reconstruction needs exactly %d distinct holder indices in "
            "1..%d" % (params.t_sh, params.n_sh))
    return chosen


def check_offline(offline, params: SpssParams) -> frozenset:
    """The one offline rule of a reconstruction: every index names a
    holder, 1..n_sh. Returns the indices as a set; refuses any other with
    ImproperRequestError."""
    down = frozenset(offline)
    if not down.issubset(params.holder_indices):
        raise ImproperRequestError(
            "offline holders must be holder indices in 1..%d" % params.n_sh)
    return down


def spss_request(password_attempt: int, subset, params: SpssParams,
                 randomness, rounds) -> dict:
    """Start a reconstruction: share the password attempt toward the chosen
    holders. Returns {holder j: SpssRequest} for j in the subset, each
    naming the subset in index order.

    The attempt is shared at the password degree with one random_ints
    draw, as spss_register shares the password. rounds pins which masking
    tuples the holders must spend, one round per block, as the one
    (first, end) run a recon-ask carries: the same run for every holder.
    """
    chosen = tuple(sorted(check_subset(subset, params)))
    field = params.field
    coeffs = [password_attempt % field.q,
              *field.random_ints(randomness, params.password_degree)]
    return {j: SpssRequest(chosen, field.poly_eval_int(coeffs, j), rounds)
            for j in chosen}


def cut_rounds(share_set: HolderShareSet, upto: int, runs=(),
               count: "int | None" = None) -> tuple:
    """The one way a masking tuple leaves a holder: drop every live round
    below `upto` from the share set, and return the r and z columns of
    the rounds that `runs`, at most one (first, end) range, names, as
    bytes.

    It checks the whole request before anything changes, and refuses, in
    this order, more than one run (ImproperRequestError: one run names no
    round twice, so no tuple masks two blocks, which would hand a
    wrong-password requester D_i - D_j); an upto past next_round and a
    run that is not inside the live rounds below upto
    (PrecomputationExhaustedError); and, when count is given, any other
    number of rounds (ImproperRequestError). The spent values are copied
    out, and the dropped head is cut from the two columns in place.
    """
    first, width = share_set.first, share_set.params.field.byte_width
    if len(runs) > 1:
        raise ImproperRequestError("masking rounds in more than one run "
                                   "may name a round twice")
    if upto > share_set.next_round:
        raise PrecomputationExhaustedError(
            "holder %d holds no round %d" % (share_set.holder, upto - 1))
    for a, b in runs:
        if not first <= a < b <= upto:
            raise PrecomputationExhaustedError(
                "holder %d cannot spend rounds %d..%d"
                % (share_set.holder, a, b - 1))
    n = sum(b - a for a, b in runs)
    if count is not None and n != count:
        raise ImproperRequestError(
            "request pins %d tuples, %d blocks to mask" % (n, count))
    cols = (share_set.r, share_set.z)
    spent = tuple(b"".join(col[(a - first) * width:(b - first) * width]
                           for a, b in runs) for col in cols)
    cut = max(0, upto - first)
    for col in cols:
        del col[:cut * width]
    share_set.first = first + cut
    return spent


def holder_respond(share_set: HolderShareSet, request: SpssRequest) -> MaskedResponse:
    """Build the masked response for one holder, spending the pinned
    rounds, one per block, and every live round below them (cut_rounds,
    given the pin's end). A holder outside the subset is
    refused first (ImproperRequestError). The response is computed SLICE
    blocks at a time from the spent r and z columns and the share column,
    and returned as one byte column. The password difference exists only
    inside this call.
    """
    j = share_set.holder
    if j not in request.subset:
        raise ImproperRequestError("holder %d is not in the requested subset" % j)
    blocks = share_set.block_count
    runs = request.rounds
    r_col, z_col = cut_rounds(share_set, runs[-1][1] if runs else 0, runs,
                              blocks)
    field = share_set.params.field
    diff = field.sub(share_set.password_share, request.password_share)
    q, width = field.q, field.byte_width
    out = []
    for first in range(0, blocks, SLICE):
        end = min(blocks, first + SLICE)
        out.append(column([(diff * r + z + share) % q for r, z, share in zip(
            *(_ints(col, first, end, width)
              for col in (r_col, z_col, share_set.shares)))], width))
    return MaskedResponse(j, Packed(b"".join(out), width))


def spss_recover(responses, password_attempt: int, params: SpssParams,
                 byte_length: int) -> bytes:
    """Interpolate the masked responses and run the authenticator check.

    The responses come from the t_sh distinct holders of a subset that
    check_subset passed, each holding the data_block_count(byte_length)
    + 1 values that TpvSession.reconstruct_and_release checks it for.
    Returns the original byte_length bytes. Raises PasswordFailureError
    when the check fails; no block values leave this function in that
    case.

    The blocks are interpolated SLICE at a time from the responses' byte
    columns, highest index first: each slice is folded into the
    authenticator and turned into its bytes before the next, and the
    authenticator block is interpolated last.
    """
    resp = list(responses)
    total = len(resp[0].values)
    field = params.field
    weights = zero_coefficients([r.holder for r in resp], field)
    q, width, bits = field.q, field.byte_width, params.block_bits
    raws = [r.values.raw for r in resp]

    def recovered(first: int, end: int) -> list:
        """Blocks first+1..end, interpolated at zero, in index order."""
        return [sum(map(mul, weights, ys)) % q for ys in zip(
            *(_ints(raw, first, end, width) for raw in raws))]

    attempt = password_attempt % q
    blocks = total - 1
    mac, wide, out = 0, False, []
    for p in range(0, blocks, SLICE):  # wire block p is D_{l-p}
        part = recovered(max(0, blocks - p - SLICE), blocks - p)
        mac = mac_block_value(part, attempt, field, mac)
        # Registered blocks are always narrower than the field, so an
        # out-of-range value proves the recovery is garbage even when it
        # slipped past the authenticator.
        wide = wide or any(b >> bits for b in part)
        if not wide:
            out.append(reassemble_blocks(part, len(part) * bits // 8, bits))
    if mac != recovered(blocks, total)[0]:
        raise PasswordFailureError("authenticator mismatch: wrong password "
                                   "or corrupted responses")
    if wide:
        raise PasswordFailureError("recovered blocks exceed the payload "
                                   "alphabet: wrong password or corrupted "
                                   "responses")
    return b"".join(out)[:byte_length]


def split_blocks(message: bytes, block_bits: int):
    """Message bits into block_bits-wide integers, final block zero-padded:
    the payload's blocks in wire order, D_l first, as registration shares
    them and reassemble_blocks joins them back.

    Returns (blocks, original bit length). Bits are consumed MSB-first.
    Linear time: eight blocks fill exactly block_bits bytes, so each run
    of block_bits bytes is read as one integer and cut into eight blocks.
    """
    nbits = len(message) * 8
    nblocks = -(-nbits // block_bits)
    step = block_bits  # bytes per group of eight blocks
    padded = message + bytes(-len(message) % step)
    mask = (1 << block_bits) - 1
    shifts = [block_bits * (7 - i) for i in range(8)]
    from_bytes = int.from_bytes
    blocks = [(group >> s) & mask
              for group in [from_bytes(padded[i:i + step], "big")
                            for i in range(0, len(padded), step)]
              for s in shifts]
    del blocks[nblocks:]
    return blocks, nbits


def reassemble_blocks(blocks_by_index, byte_length: int, width: int) -> bytes:
    """Inverse of split_blocks at block width `width`: D_l..D_1 back to
    bytes.

    Linear time: each group of eight blocks is exactly `width` bytes.
    spss_recover passes only blocks narrower than `width` bits, and a
    byte_length they fill.
    """
    wire = list(blocks_by_index)[::-1]  # wire order, D_l leftmost
    wire += [0] * (-len(wire) % 8)
    out = []
    for i in range(0, len(wire), 8):
        group = 0
        for b in wire[i:i + 8]:
            group = (group << width) | b
        out.append(group.to_bytes(width, "big"))
    return b"".join(out)[:byte_length]
