"""Tests for the message schema, its codec and the strict cursor."""

import random

import pytest

from itstore.errors import (
    ConfigurationError,
    ImproperRequestError,
    ProtocolError,
    TamperDetectedError,
)
import itstore.wire as wire
from itstore.wire import SCHEMA, Codec, Cursor, check_runs
from oracles import expand_runs, id_runs

CODEC = Codec(W=16, P=33, tag=8, degree=3)


def sample_values(kind):
    """One value per field of the kind, each at the top of its width; a
    field that counts a run holds 2. W* and run values are given as
    their columns, ids as their ranges."""
    fields = SCHEMA[kind][1]
    counts = {ftype[2] for _name, ftype in fields if ftype[0] == "run"}
    values = []
    for name, (category, key, *count) in fields:
        width = CODEC.sizes[key]
        top = (1 << (8 * width)) - 1
        if category == "int":
            values.append(2 if name in counts else top - len(values))
        elif category == "raw":
            values.append(bytes(range(7, 7 + width)))
        elif category == "bytes":
            values.append(b"payload " * 5)
        elif category == "list":
            values.append(oracle_uints((top - i for i in range(5)), width))
        elif category == "ids":  # one run, ending at the top
            values.append([(top - 1, top + 1)])
        else:
            _count_field, times = count
            n = 2 * (CODEC.sizes[times] if isinstance(times, str) else times)
            values.append(oracle_uints((top - i for i in range(n)), width))
    return tuple(values)


@pytest.mark.parametrize("kind", sorted(SCHEMA))
def test_every_kind_round_trips_and_rejects_a_byte_short_or_long(kind):
    values = sample_values(kind)
    raw = CODEC.encode(kind, *values)
    assert raw[0] == SCHEMA[kind][0]
    assert CODEC.decode(kind, raw) == values
    with pytest.raises(ProtocolError):
        CODEC.decode(kind, raw[:-1])
    with pytest.raises(ProtocolError):
        CODEC.decode(kind, raw + b"\x00")


@pytest.mark.parametrize("kind", sorted(SCHEMA))
def test_decode_checks_the_code_byte_and_the_expected_header(kind):
    values = sample_values(kind)
    raw = CODEC.encode(kind, *values)
    other = bytes([raw[0] % len(SCHEMA) + 1])
    with pytest.raises(ProtocolError):
        CODEC.decode(kind, other + raw[1:])
    assert CODEC.decode(kind, raw, values[:1]) == values[1:]
    wrong = (b"\x00" * 16,) if SCHEMA[kind][1][0][0] == "sid" else (b"x",)
    with pytest.raises(ProtocolError):
        CODEC.decode(kind, raw, wrong)


@pytest.mark.parametrize("prefix,kind,field", [
    (1, "recon-ask", "subset"), (2, "register-data", "password"),
    (2, "recon-request", "password")])
def test_a_value_too_long_for_its_length_prefix_is_refused(prefix, kind,
                                                           field):
    names = [name for name, _ftype in SCHEMA[kind][1]]
    values = list(sample_values(kind))
    at_limit = bytes((1 << (8 * prefix)) - 1)
    values[names.index(field)] = at_limit
    assert CODEC.decode(kind, CODEC.encode(kind, *values))[
        names.index(field)] == at_limit
    values[names.index(field)] = at_limit + b"x"
    with pytest.raises(ConfigurationError, match=field):
        CODEC.encode(kind, *values)


@pytest.mark.parametrize("value", [-1, 1 << 64])
def test_an_integer_outside_its_field_width_is_refused(value):
    values = list(sample_values("receipt"))
    values[1] = value
    with pytest.raises(ConfigurationError) as info:
        CODEC.encode("receipt", *values)
    assert str(info.value) == (
        "receipt field t1 holds %d; its 8-byte width allows "
        "0..18446744073709551615" % value)


def test_codes_are_distinct():
    codes = [code for code, _fields in SCHEMA.values()]
    assert len(set(codes)) == len(codes)
    # the retired codes stay unused, so no later kind reads as one of them
    assert not {0x12, 0x13} & set(codes)


def test_cursor_reports_its_error_and_subject():
    rd = Cursor(b"\x00\x01\x02", TamperDetectedError, "/store/x.a record")
    assert rd.uints(1, 2) == (1,)
    with pytest.raises(TamperDetectedError, match="/store/x.a record"):
        rd.done()
    with pytest.raises(TamperDetectedError, match="truncated /store/x.a"):
        rd.take(2)


def oracle_uints(values, width):
    """The per-element encoding the column codec must reproduce."""
    return b"".join(v.to_bytes(width, "big") for v in values)


@pytest.mark.parametrize("count", [0, 1, 1000])
@pytest.mark.parametrize("width", [1, 4, 16, 33])
def test_lists_and_runs_match_a_per_element_oracle(width, count):
    codec = Codec(W=width, P=width, tag=8, degree=3)
    gen = random.Random("wire-%d-%d" % (width, count))
    values = tuple(gen.getrandbits(8 * width) for _ in range(count))
    if count:
        values = ((1 << (8 * width)) - 1,) + values[1:]
    sid = bytes(range(16))
    body = oracle_uints(values, width)
    assert Cursor(body).uints(count, width) == tuple(
        int.from_bytes(body[i:i + width], "big")
        for i in range(0, len(body), width))

    raw = codec.encode("recon-response", sid, wire.column(values, width))
    assert raw == b"\x0a" + sid + count.to_bytes(4, "big") + body
    assert codec.decode("recon-response", raw) == (sid, body)

    pairs = values + values
    ran = codec.encode("renew-pairs", sid, 7, 2, count,
                       wire.column(pairs, width))
    assert ran == (b"\x16" + sid + (7).to_bytes(4, "big") + b"\x02"
                   + count.to_bytes(4, "big") + oracle_uints(pairs, width))
    assert codec.decode("renew-pairs", ran) == (
        sid, 7, 2, count, oracle_uints(pairs, width))

    for kind, message in (("recon-response", raw), ("renew-pairs", ran)):
        with pytest.raises(ProtocolError):
            codec.decode(kind, message[:-1])
        with pytest.raises(ProtocolError):
            codec.decode(kind, message + b"\x00")


def runs_message(runs, sid=bytes(16)):
    """An avail-reply whose round ids are the given (first, count) runs."""
    body = b"".join(f.to_bytes(4, "big") + c.to_bytes(4, "big")
                    for f, c in runs)
    return (b"\x08" + sid + (3).to_bytes(4, "big")
            + len(runs).to_bytes(4, "big") + body)


@pytest.mark.parametrize("ids,runs", [
    ((), []),
    ((5,), [(5, 1)]),
    (tuple(range(6503)), [(0, 6503)]),
    (((1 << 32) - 1,), [((1 << 32) - 1, 1)]),
    (tuple(range(7, 100)), [(7, 93)]),
])
def test_round_ids_travel_as_canonical_runs(ids, runs):
    flat = [v for run in runs for v in run]
    assert id_runs(ids) == flat
    assert expand_runs(check_runs(flat)) == ids
    ranges = check_runs(id_runs(ids))
    raw = CODEC.encode("avail-reply", bytes(16), 3, ranges)
    assert raw == runs_message(runs)
    assert CODEC.decode("avail-reply", raw) == (bytes(16), 3, ranges)


MALFORMED_RUNS = [
    [(4, 0)],                       # an empty run
    [(9, 2), (1, 2)],               # out of order
    [(1, 3), (2, 4)],               # overlapping
    [(5, 1), (5, 1)],               # one id named twice
    [(1, 3), (4, 2)],               # touching: one run written as two
    [((1 << 32) - 1, 2)],           # past 2^32 - 1
    [(0, 1 << 31), (1 << 31, 0)],   # empty after a long run
    [(0, 1 << 22), (5 << 22, 1)],   # two canonical runs: one too many
]


@pytest.mark.parametrize("runs", MALFORMED_RUNS, ids=[
    "empty", "unsorted", "overlap", "repeat", "touching", "overflow",
    "empty-after", "too-many"])
def test_malformed_id_runs_fail_closed(runs):
    with pytest.raises(ImproperRequestError):
        CODEC.decode("avail-reply", runs_message(runs))


# the id lists (3, 3), (4, 2), (0, 5, 1), (2^32,) and (-1, 0) as ranges,
# then every malformed run list above as (first, end) ranges, then a
# range that ends before it starts
@pytest.mark.parametrize("ids", [
    [(3, 4), (3, 4)], [(4, 5), (2, 3)], [(0, 1), (5, 6), (1, 2)],
    [(1 << 32, (1 << 32) + 1)], [(-1, 1)],
    *[[(first, first + count) for first, count in runs]
      for runs in MALFORMED_RUNS],
    [(5, 3)]])
def test_an_id_list_that_is_not_a_u32_set_is_not_encoded(ids):
    with pytest.raises(ImproperRequestError):
        CODEC.encode("avail-reply", bytes(16), 1, ids)


def oracle_message(kind, values):
    """The message bytes built by hand from an int per element: a W* or
    run field as oracle_uints of its values, an ids field as its
    (first, count) u32 runs."""
    code, fields = SCHEMA[kind]
    out = bytes((code,))
    for (_name, (category, key, *_count)), value in zip(fields, values,
                                                       strict=True):
        width = CODEC.sizes[key]
        if category == "int":
            out += value.to_bytes(width, "big")
        elif category == "raw":
            out += value
        elif category == "bytes":
            out += len(value).to_bytes(width, "big") + value
        elif category == "ids":
            flat = id_runs(value)
            out += (len(flat) // 2).to_bytes(4, "big") + oracle_uints(flat, 4)
        elif category == "list":
            out += len(value).to_bytes(4, "big") + oracle_uints(value, width)
        else:
            out += oracle_uints(value, width)
    return out


def per_element(kind, decoded):
    """Decoded fields of kind an int per element: a W* or run column as
    its values, ranges as their ids."""
    out = []
    for (_name, (category, key, *_count)), value in zip(SCHEMA[kind][1],
                                                       decoded):
        if category == "ids":
            value = expand_runs(value)
        elif category in ("list", "run"):
            value = tuple(wire.Packed(value, CODEC.sizes[key]))
        out.append(value)
    return tuple(out)


@pytest.mark.parametrize("kind,values,packed", [
    ("shares", (bytes(range(16)), bytes(range(48)), 7),
     (bytes(range(16)), tuple(int.from_bytes(bytes(range(48))[i:i + 16],
                                             "big") for i in (0, 16, 32)),
      7)),
    ("shares", (bytes(16), b"", 7), (bytes(16), (), 7)),
    ("avail-reply", (bytes(16), 3, [(0, 3)]),
     (bytes(16), 3, (0, 1, 2))),
    ("recon-ask", (bytes(16), b"\x01\x02\x03", 5, []),
     (bytes(16), b"\x01\x02\x03", 5, ())),
])
def test_the_packed_form_moves_the_same_bytes(kind, values, packed):
    # packed holds the same fields an int per element
    raw = CODEC.encode(kind, *values)
    assert raw == oracle_message(kind, packed)
    assert CODEC.decode(kind, raw) == values
    assert per_element(kind, CODEC.decode(kind, raw)) == packed


def test_a_packed_list_of_part_values_is_refused():
    with pytest.raises(ConfigurationError, match="not whole 16-byte"):
        CODEC.encode("shares", bytes(16), bytes(17), 7)


@pytest.mark.parametrize("kind,header", [
    ("precomp", (bytes(16), 9, 3, 2, [(0, 4)])),
    ("renew-commits", (bytes(16), 1, 2, 3)),
    ("renew-pairs", (bytes(16), 1, 2, 3)),
])
def test_a_run_moves_the_same_bytes_as_its_packed_column(kind, header):
    # three batches or tracks: 2 values each, or degree 3 commitments
    width, times = {"precomp": (16, 2), "renew-commits": (33, 3),
                    "renew-pairs": (16, 2)}[kind]
    gen = random.Random(kind)
    values = tuple(gen.getrandbits(8 * width) for _ in range(3 * times))
    run = wire.column(values, width)
    raw = CODEC.encode(kind, *header, run)
    unpacked = [expand_runs(v) if isinstance(v, list) else v for v in header]
    assert raw == oracle_message(kind, (*unpacked, values))
    assert CODEC.decode(kind, raw) == (*header, run)
    assert per_element(kind, CODEC.decode(kind, raw)) == (*unpacked, values)
    for wrong in (run[:-1], run + bytes(width), b""):
        with pytest.raises(ConfigurationError,
                           match="not %d %d-byte" % (3 * times, width)):
            CODEC.encode(kind, *header, wrong)


def test_a_packed_view_reads_its_column_as_items():
    values = tuple(range(1000, 1012))
    raw = wire.column(values, 3)
    for group in (1, 2, 3):
        view = wire.Packed(raw, 3, group)
        items = (values if group == 1 else
                 tuple(zip(*[iter(values)] * group)))
        assert len(view) == len(items) and tuple(view) == items
        assert [view[k] for k in range(-len(items), len(items))] == [
            *items, *items]
        with pytest.raises(IndexError):
            view[len(items)]
    with pytest.raises(ConfigurationError):
        wire.Packed(raw[:-3], 3, 2)


@pytest.mark.parametrize("ids,message", [
    ([3, 3], "round ids must strictly increase"),
    ([5, 4], "round ids must strictly increase"),
    ([-1, 0], "round id outside the u32 range"),
    ([7, 1 << 32], "round id outside the u32 range"),
], ids=["repeated", "decreasing", "negative", "past-u32"])
def test_id_runs_refuses_ids_no_run_can_carry(ids, message):
    with pytest.raises(ImproperRequestError) as info:
        id_runs(ids)
    assert str(info.value) == message
