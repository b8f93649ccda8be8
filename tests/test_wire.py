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
from itstore.wire import (SCHEMA, Codec, Cursor, check_runs, expand_runs,
                          id_runs)

CODEC = Codec(W=16, P=33, tag=8, digest=64, degree=3)


def sample_values(kind):
    """One value per field of the kind, each at the top of its width; a
    field that counts a run holds 2."""
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
            values.append(tuple(top - i for i in range(5)))
        elif category == "ids":  # three runs, the last ending at the top
            values.append((0, 1, 2, 9, top - 1, top))
        else:
            _count_field, times = count
            n = 2 * (CODEC.sizes[times] if isinstance(times, str) else times)
            values.append(tuple(top - i for i in range(n)))
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
    assert sorted(codes) == list(range(1, len(SCHEMA) + 1))


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
    codec = Codec(W=width, P=width, tag=8, digest=64, degree=3)
    gen = random.Random("wire-%d-%d" % (width, count))
    values = tuple(gen.getrandbits(8 * width) for _ in range(count))
    if count:
        values = ((1 << (8 * width)) - 1,) + values[1:]
    sid = bytes(range(16))
    body = oracle_uints(values, width)
    assert Cursor(body).uints(count, width) == tuple(
        int.from_bytes(body[i:i + width], "big")
        for i in range(0, len(body), width))

    raw = codec.encode("recon-response", sid, values)
    assert raw == b"\x0a" + sid + count.to_bytes(4, "big") + body
    assert codec.decode("recon-response", raw) == (sid, values)

    pairs = values + values
    ran = codec.encode("renew-pairs", sid, 7, 2, count, pairs)
    assert ran == (b"\x16" + sid + (7).to_bytes(4, "big") + b"\x02"
                   + count.to_bytes(4, "big") + oracle_uints(pairs, width))
    assert codec.decode("renew-pairs", ran) == (sid, 7, 2, count, pairs)

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
    ((0, 2, 4), [(0, 1), (2, 1), (4, 1)]),
    ((1, 2, 3, 7, 8, 100, (1 << 32) - 1), [(1, 3), (7, 2), (100, 1),
                                          ((1 << 32) - 1, 1)]),
])
def test_round_ids_travel_as_canonical_runs(ids, runs):
    flat = [v for run in runs for v in run]
    assert id_runs(ids) == flat
    assert expand_runs(check_runs(flat)) == ids
    raw = CODEC.encode("avail-reply", bytes(16), 3, ids)
    assert raw == runs_message(runs)
    assert CODEC.decode("avail-reply", raw) == (bytes(16), 3, ids)


def test_an_id_list_expands_to_at_most_max_ids(monkeypatch):
    monkeypatch.setattr(wire, "MAX_IDS", 10)
    assert expand_runs(check_runs([3, 4, 9, 6])) == (
        3, 4, 5, 6, 9, 10, 11, 12, 13, 14)
    with pytest.raises(ImproperRequestError, match="more than 10"):
        check_runs([3, 4, 9, 7])


def test_non_contiguous_id_sets_round_trip():
    gen = random.Random("runs")
    for _ in range(200):
        ids = tuple(sorted(gen.sample(range(300), gen.randrange(60))))
        raw = CODEC.encode("recon-ask", bytes(16), b"\x01\x02\x03", 7, ids)
        assert CODEC.decode("recon-ask", raw)[-1] == ids


@pytest.mark.parametrize("runs", [
    [(4, 0)],                       # an empty run
    [(9, 2), (1, 2)],               # out of order
    [(1, 3), (2, 4)],               # overlapping
    [(5, 1), (5, 1)],               # one id named twice
    [(1, 3), (4, 2)],               # touching: one run written as two
    [((1 << 32) - 1, 2)],           # past 2^32 - 1
    [(0, 1 << 31), (1 << 31, 0)],   # empty after a long run
    [(0, 1 << 22), (5 << 22, 1)],   # more ids than a list may expand to
], ids=["empty", "unsorted", "overlap", "repeat", "touching", "overflow",
        "empty-after", "too-many"])
def test_malformed_id_runs_fail_closed(runs):
    with pytest.raises(ImproperRequestError):
        CODEC.decode("avail-reply", runs_message(runs))


@pytest.mark.parametrize("ids", [(3, 3), (4, 2), (0, 5, 1), (1 << 32,),
                                 (-1, 0)])
def test_an_id_list_that_is_not_a_u32_set_is_not_encoded(ids):
    with pytest.raises(ImproperRequestError):
        CODEC.encode("avail-reply", bytes(16), 1, ids)
