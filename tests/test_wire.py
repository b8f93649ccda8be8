"""Tests for the message schema, its codec and the strict cursor."""

import pytest

from itstore.errors import ConfigurationError, ProtocolError, TamperDetectedError
from itstore.wire import SCHEMA, Codec, Cursor

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
