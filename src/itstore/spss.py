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
the one way a tuple leaves a holder, for a response (spend_rounds, which
also decodes the spent values) and for a retire.

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
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from operator import add, mul

from .errors import (
    ConfigurationError,
    ImproperRequestError,
    PasswordFailureError,
    PrecomputationExhaustedError,
    ProtocolError,
    ReconstructionAbortError,
)
from .field import PrimeField, zero_coefficients
from .field import random_polynomial  # noqa: F401 -- perfbench's tracer hooks this name
from .mac import split_blocks
from .wire import Cursor, column, intersect_runs

__all__ = [
    "SpssParams",
    "RegisteredSecret",
    "PrecomputedTuple",
    "LiveTuples",
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
    "spend_rounds",
    "holder_respond",
    "spss_recover",
    "reassemble_blocks",
]

DEFAULT_FIELD_EXPONENT = 127


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

    blocks[i-1] holds D_i; blocks and mac_block are secret material and are
    returned to the registering caller only, never to a holder. byte_length
    is cleartext metadata needed to strip block padding on recovery.
    """

    blocks: tuple
    mac_block: int
    t1: int
    byte_length: int


@dataclass(slots=True)
class PrecomputedTuple:
    """One holder's live masking tuple: its share r of an extracted random
    value R (degree t-2) and its share z of an extracted sharing Z of zero
    (degree t-1). LiveTuples builds one each time a tuple is read."""

    round_id: int
    r: int
    z: int


class LiveTuples(Mapping):
    """A holder's live masking tuples for one secret, in its record's form:
    `ids`, the live round ids ascending as u32s, and `r` and `z`,
    bytearray columns of `width`-byte big-endian values in id order. So a
    tuple is one entry in each column, and no object per tuple is kept.

    It reads as a mapping from round id to a PrecomputedTuple built on
    access. precompute_round appends a stock to it and cut_rounds takes
    tuples out; nothing else changes it."""

    __slots__ = ("width", "ids", "r", "z")

    def __init__(self, width: int, ids=(), r: bytes = b"", z: bytes = b""):
        self.width = width
        self.ids = array("I", ids)
        self.r = bytearray(r)
        self.z = bytearray(z)

    def position(self, rid) -> "int | None":
        """rid's index in ids, or None when rid is not a live round."""
        ids = self.ids
        try:
            pos = bisect_left(ids, rid)
        except TypeError:  # not comparable with an int, so not live
            return None
        return pos if pos < len(ids) and ids[pos] == rid else None

    def __getitem__(self, rid) -> PrecomputedTuple:
        pos = self.position(rid)
        if pos is None:
            raise KeyError(rid)
        width = self.width
        a, b = pos * width, (pos + 1) * width
        return PrecomputedTuple(self.ids[pos],
                                int.from_bytes(self.r[a:b], "big"),
                                int.from_bytes(self.z[a:b], "big"))

    def __contains__(self, rid) -> bool:
        return self.position(rid) is not None

    def runs(self) -> list:
        """The live ids as canonical (first, end) ranges, found without a
        list of the ids: positions a..b-1 hold one run exactly when
        ids[b-1] - ids[a] == b-1-a, since the ids increase, so a span
        that is not one run is halved until its parts are. One span, and
        one comparison, when every live id is in one run."""
        ids, out = self.ids, []
        spans = [(0, len(ids))] if ids else []
        while spans:
            a, b = spans.pop()
            if ids[b - 1] - ids[a] != b - 1 - a:
                m = (a + b) // 2
                spans += ((m, b), (a, m))  # the left half comes off first
            elif out and out[-1][1] == ids[a]:  # halves of one run
                out[-1] = (out[-1][0], ids[b - 1] + 1)
            else:
                out.append((ids[a], ids[b - 1] + 1))
        return out

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


@dataclass
class HolderShareSet:
    """Everything holder j keeps for one registered secret, in its
    record's form.

    shares is the data-share column: f_{D_i}(j) for i = 1..l+1, in index
    order, each the field's byte width big-endian, so a share costs its
    16 bytes in the 127-bit field and no int is kept per share.
    data_shares reads the column as a tuple of ints, decoded on each read;
    a renewal replaces the column's bytes (HolderStore.apply_renewal).
    tuples holds the live masking tuples only, as LiveTuples columns (an
    empty one when not given). Round ids are stocked contiguously from 0
    and next_round is one past the highest ever stocked, so a spent round
    is an id below next_round that is absent. renewal_runs holds the
    renewal rounds applied to the data shares as increasing, non-touching
    (first, end) ranges.
    """

    holder: int
    params: SpssParams
    shares: bytes
    password_share: int  # f_P(j)
    tuples: "LiveTuples | None" = None
    next_round: int = 0
    renewal_runs: list = dc_field(default_factory=list)

    def __post_init__(self):
        if self.tuples is None:
            self.tuples = LiveTuples(self.params.field.byte_width)

    @property
    def data_shares(self) -> tuple:
        return Cursor(self.shares).uints(self.block_count,
                                         self.params.field.byte_width)

    @property
    def block_count(self) -> int:
        return len(self.shares) // self.params.field.byte_width


@dataclass(frozen=True)
class SpssRequest:
    """What one holder receives when a reconstruction starts."""

    subset: tuple
    password_share: int  # f_{P'}(j)
    tuple_ids: tuple  # the masking rounds to spend, one per block


@dataclass(frozen=True)
class MaskedResponse:
    holder: int
    values: tuple  # F_{j,1}..F_{j,l+1}, or a wire.Packed view of them


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


def mac_block_value(blocks_by_index, password: int, field: PrimeField) -> int:
    """D_{l+1} = sum_{i=1..l} D_i P^i, blocks given in index order."""
    acc = 0
    for b in reversed(blocks_by_index):  # D_l first: ((D_l P + D_{l-1}) P + ...) P
        acc = field.mul(field.add(acc, b), password)
    return acc


def spss_register(data: bytes, password: int, params: SpssParams,
                  randomness, t1: int = 0):
    """Split, authenticate and share a byte string.

    Returns ({holder j: HolderShareSet}, RegisteredSecret). The share sets
    start with no precomputed tuples: precompute_round, which
    TpvSession.precompute runs over its transport, stocks them before a
    reconstruction. data must be non-empty and password a nonzero element
    of the field, as TpvSession.register and password_to_element make
    them.
    """
    field = params.field
    wire_blocks, _ = split_blocks(data, params.block_bits)
    blocks = list(reversed(wire_blocks))  # blocks[i-1] = D_i
    mac_block = mac_block_value(blocks, password, field)

    # one draw for every coefficient, in the order one polynomial per
    # block and then the password polynomial would take them
    values = [*blocks, mac_block]
    degree = params.data_degree
    n_data = len(values) * degree
    drawn = field.random_ints(randomness, n_data + params.password_degree)
    columns = [values] + [drawn[i:n_data:degree] for i in range(degree)]
    pw_coeffs = [password, *drawn[n_data:]]

    holders = {
        j: HolderShareSet(j, params,
                          column(field.eval_columns(columns, j),
                                 field.byte_width),
                          field.poly_eval_int(pw_coeffs, j))
        for j in params.holder_indices
    }
    secret = RegisteredSecret(tuple(blocks), mac_block, t1, len(data))
    return holders, secret


def precompute_round(holders: dict, randomness: dict, rounds: int,
                     deliver) -> tuple:
    """Stock `rounds` masking tuples at every holder.

    The tuples come from params.batch_count(rounds) batches: per batch
    every holder contributes a random sharing and a zero sharing, and
    every holder extracts w = n - t + 1 tuples from the n contributions it
    receives (see the module docstring), keeping the first `rounds`. It
    folds each contribution into its w unreduced row sums per kind as the
    contribution arrives, keeps none of them, and reduces mod q once at
    the end; the new tuples are appended to each holder's LiveTuples
    columns.

    holders maps each of params.holder_indices to its share set, and
    randomness each holder to its RandomSource, as TpvSession.precompute
    builds them: the simulation gives each holder its own entropy pool.
    Contributors go in index order; each draws all its batches with one
    masking_columns call and hands every other holder j, in index order,
    its values (one per batch) through deliver(d, j, r_vals, z_vals) ->
    (r_vals, z_vals), which returns them as j received them, one value
    per batch each (the precomp header and run length fix the count). A
    round whose next_round would pass 2^32 - 1 is refused with
    ProtocolError before any draw or send, and no share set changes
    before every contribution has arrived.
    Returns the new round ids, which are the same at every holder by
    construction; round id start + b*w + k is row k of batch b.
    """
    if rounds < 1:
        raise ConfigurationError("need at least one precompute round")
    params = holders[1].params
    field = params.field
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

    # rows[j] holds holder j's w unreduced row sums of each kind, and
    # every contribution is folded in as it arrives
    rows = {j: (_zero_rows(params, batches), _zero_rows(params, batches))
            for j in indices}
    for d in indices:
        r_cols, z_cols = masking_columns(params, randomness[d], batches)
        for j in indices:
            vals = (field.eval_columns(r_cols, j),
                    field.eval_columns(z_cols, j))
            if j != d:
                vals = deliver(d, j, *vals)
            for kind_rows, values in zip(rows[j], vals):
                _fold(kind_rows, d, values, field.q)

    width = field.byte_width
    for j in indices:
        r_rows, z_rows = rows.pop(j)
        live = holders[j].tuples
        live.r += column(_reduced(r_rows, field.q)[:rounds], width)
        live.z += column(_reduced(z_rows, field.q)[:rounds], width)
        live.ids.extend(range(start, start + rounds))
        holders[j].next_round = start + rounds
    return tuple(range(start, start + rounds))


def retired_rounds(live, reported) -> tuple:
    """The rounds a holder retires at a precompute: each id of `live`, its
    live rounds before the precompute as canonical (first, end) ranges,
    that some other holder does not hold, in increasing order. reported
    lists every other holder's live ranges, as each sent them with its
    precomp contribution.

    A round spent at any holder masked a released response, so no
    t-subset may spend it again: the holders that served it no longer
    hold it, and a subset without them would reuse a mask that already
    hid one response. Retiring can only lose tuples, never revive one.
    The rounds every holder holds are wire.intersect_runs of the lists,
    as a reconstruction finds the rounds its subset holds.
    """
    held = intersect_runs([live, *reported])
    out, k = [], 0
    for first, end in live:  # held lies inside live, and both increase
        while k < len(held) and held[k][0] < end:
            out += range(first, held[k][0])
            first = held[k][1]
            k += 1
        out += range(first, end)
    return tuple(out)


def _zero_rows(params: SpssParams, batches: int) -> list:
    """w row sums of `batches` values each, all zero."""
    return [[0] * batches for _ in range(params.extraction_width)]


def _fold(rows: list, d: int, values, q: int) -> None:
    """Add contributor d's values to the row sums, row k weighted d^k mod q:
    one list pass per row, weight-1 terms added plainly, nothing reduced."""
    for k, acc in enumerate(rows):
        weight = pow(d, k, q)
        rows[k] = (list(map(add, acc, values)) if weight == 1 else
                   [a + weight * v for a, v in zip(acc, values)])


def _reduced(rows: list, q: int) -> list:
    """The row sums reduced mod q, batch-major: row k of batch b at
    b * w + k. Each row is dropped once it is reduced."""
    w = len(rows)
    out = [0] * (w * len(rows[0]))
    for k in range(w):
        out[k::w] = [a % q for a in rows[k]]
        rows[k] = None
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
                 randomness, tuple_ids) -> dict:
    """Start a reconstruction: share the password attempt toward the chosen
    holders. Returns {holder j: SpssRequest} for j in the subset, each
    naming the subset in index order.

    The attempt is shared at the password degree with one random_ints
    draw, as spss_register shares the password. tuple_ids pins which
    masking tuples the holders must spend: one distinct id per block, the
    same ids for every holder.
    """
    chosen = tuple(sorted(check_subset(subset, params)))
    field = params.field
    coeffs = [password_attempt % field.q,
              *field.random_ints(randomness, params.password_degree)]
    ids = tuple(tuple_ids)
    return {j: SpssRequest(chosen, field.poly_eval_int(coeffs, j), ids)
            for j in chosen}


def cut_rounds(share_set: HolderShareSet, ids, count: "int | None" = None
               ) -> tuple:
    """The one way a masking tuple leaves a holder: drop the rounds `ids`
    names from the share set and return their r and z columns, the
    values in the order named, as bytes.

    Before anything changes it refuses, in this order, an id named twice
    (ImproperRequestError; one tuple masking two blocks would hand a
    wrong-password requester D_i - D_j), an id that is not live
    (PrecomputationExhaustedError), and, when count is given, any other
    number of ids (ImproperRequestError).

    The named ids are found as stretches: a stretch starts at one id's
    position and grows while the next named id is the next live id, so
    the lowest live rounds a response pins are one stretch, found with
    one search. The spent values are copied a stretch at a time, and the
    kept tuples are moved down over the spent ones in place, one pass
    over the three columns however scattered the ids are.
    """
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        raise ImproperRequestError("a masking round is named twice")
    live = share_set.tuples
    live_ids = live.ids
    stretches = []  # (first position, count), in the order named
    k, n, stock = 0, len(ids), len(live)
    while k < n:
        first = live.position(ids[k])
        if first is None:
            raise PrecomputationExhaustedError(
                "holder %d cannot spend round %r" % (share_set.holder, ids[k]))
        m, most = 1, min(n - k, stock - first)
        while m < most and live_ids[first + m] == ids[k + m]:
            m += 1
        stretches.append((first, m))
        k += m
    if count is not None and n != count:
        raise ImproperRequestError(
            "request pins %d tuples, %d blocks to mask" % (n, count))
    w = live.width
    spent = tuple(b"".join([col[a * w:(a + m) * w] for a, m in stretches])
                  for col in (live.r, live.z))
    # move each kept run of tuples down over the spent ones before it,
    # then drop the columns' tails
    cuts = sorted(stretches) + [(stock, 0)]
    dst = cuts[0][0]
    for (a, m), (end, _) in zip(cuts, cuts[1:]):
        src = a + m
        live_ids[dst:dst + end - src] = live_ids[src:end]
        for col in (live.r, live.z):
            col[dst * w:(dst + end - src) * w] = col[src * w:end * w]
        dst += end - src
    del live_ids[dst:], live.r[dst * w:], live.z[dst * w:]
    return spent


def spend_rounds(share_set: HolderShareSet, ids, count: "int | None" = None
                 ) -> list:
    """cut_rounds, with the spent tuples decoded: their (r, z), in the
    order `ids` names them."""
    w = share_set.tuples.width
    r_col, z_col = cut_rounds(share_set, ids, count)
    n = len(r_col) // w
    return list(zip(Cursor(r_col).uints(n, w), Cursor(z_col).uints(n, w)))


def holder_respond(share_set: HolderShareSet, request: SpssRequest) -> MaskedResponse:
    """Build the masked response for one holder, spending the pinned
    tuples, one per block (spend_rounds). A holder outside the subset is
    refused first (ImproperRequestError). The password difference exists
    only inside this call.
    """
    j = share_set.holder
    if j not in request.subset:
        raise ImproperRequestError("holder %d is not in the requested subset" % j)
    spent = spend_rounds(share_set, request.tuple_ids, share_set.block_count)
    field = share_set.params.field
    diff = field.sub(share_set.password_share, request.password_share)
    q = field.q
    values = tuple([(diff * r + z + data_share) % q
                    for data_share, (r, z) in zip(share_set.data_shares,
                                                  spent)])
    return MaskedResponse(j, values)


def spss_recover(responses, password_attempt: int, params: SpssParams,
                 byte_length: int) -> bytes:
    """Interpolate the masked responses and run the authenticator check.

    The responses come from the t_sh distinct holders of a subset that
    check_subset passed. Returns the original byte_length bytes. Raises
    PasswordFailureError when the check fails; no block values leave
    this function in that case.
    """
    resp = list(responses)
    indices = [r.holder for r in resp]
    lengths = {len(r.values) for r in resp}
    if len(lengths) != 1:
        raise ReconstructionAbortError("holders disagree on block count")
    total = lengths.pop()
    if total < 2:
        raise ReconstructionAbortError("responses lack an authenticator block")

    field = params.field
    weights = zero_coefficients(indices, field)
    q = field.q
    recovered = [sum(map(mul, weights, column)) % q
                 for column in zip(*(r.values for r in resp))]

    blocks, mac = recovered[:-1], recovered[-1]
    attempt = password_attempt % field.q
    if mac_block_value(blocks, attempt, field) != mac:
        raise PasswordFailureError("authenticator mismatch: wrong password "
                                   "or corrupted responses")
    # Registered blocks are always narrower than the field, so an
    # out-of-range value proves the recovery is garbage even when it
    # slipped past the authenticator.
    if any(b >> params.block_bits for b in blocks):
        raise PasswordFailureError("recovered blocks exceed the payload "
                                   "alphabet: wrong password or corrupted "
                                   "responses")
    return reassemble_blocks(blocks, byte_length, params.block_bits)


def reassemble_blocks(blocks_by_index, byte_length: int, width: int) -> bytes:
    """Inverse of the register-time split at block width `width`:
    D_l..D_1 back to bytes.

    Linear time: each group of eight blocks is exactly `width` bytes.
    """
    wire = list(blocks_by_index)[::-1]  # wire order, D_l leftmost
    if len(wire) * width < byte_length * 8:
        raise ConfigurationError("byte_length exceeds reconstructed payload")
    if any(b >> width for b in wire):
        raise ConfigurationError("a block is wider than %d bits" % width)
    wire += [0] * (-len(wire) % 8)
    out = []
    for i in range(0, len(wire), 8):
        group = 0
        for b in wire[i:i + 8]:
            group = (group << width) | b
        out.append(group.to_bytes(width, "big"))
    return b"".join(out)[:byte_length]
