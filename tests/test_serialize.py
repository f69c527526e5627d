"""Unit + property tests for the tuple codec."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import DEFAULT_COSTS
from repro.streaming import (
    Anchor,
    SerializationError,
    StreamTuple,
    decode_tuple,
    deserialize_cost,
    encode_tuple,
    encode_values,
    serialize_cost,
)
from repro.streaming.serialize import _decode_value, _encode_value


def roundtrip(stream_tuple):
    return decode_tuple(encode_tuple(stream_tuple))


def test_simple_roundtrip():
    original = StreamTuple(("hello", 42), stream=0, source_worker=7)
    decoded = roundtrip(original)
    assert decoded.values == ("hello", 42)
    assert decoded.stream == 0
    assert decoded.source_worker == 7
    assert decoded.anchor is None


def test_anchor_roundtrip():
    original = StreamTuple(("x",), anchor=Anchor(12345678901234567890 % 2**64,
                                                 987654321))
    decoded = roundtrip(original)
    assert decoded.anchor == original.anchor


def test_all_value_types():
    values = (None, True, False, 17, -3, 2.5, "text", b"raw",
              [1, "two", [3]], {"k": "v", "n": 1})
    decoded = roundtrip(StreamTuple(values))
    assert decoded.values[0] is None
    assert decoded.values[1] is True
    assert decoded.values[2] is False
    assert decoded.values[3:8] == (17, -3, 2.5, "text", b"raw")
    assert decoded.values[8] == [1, "two", [3]]
    assert decoded.values[9] == {"k": "v", "n": 1}


def test_unicode_strings():
    decoded = roundtrip(StreamTuple(("héllo wörld 東京",)))
    assert decoded.values == ("héllo wörld 東京",)


def test_unserializable_value_rejected():
    with pytest.raises(SerializationError):
        encode_values((object(),))


def test_truncated_data_rejected():
    data = encode_tuple(StreamTuple(("hello",)))
    with pytest.raises(SerializationError):
        decode_tuple(data[:-2])
    with pytest.raises(SerializationError):
        decode_tuple(data[:3])


def test_trailing_bytes_rejected():
    data = encode_tuple(StreamTuple(("hello",)))
    with pytest.raises(SerializationError):
        decode_tuple(data + b"junk")


def test_unknown_tag_rejected():
    with pytest.raises(SerializationError):
        _decode_value(b"\xee", 0)


def test_costs_scale_with_size():
    small = serialize_cost(DEFAULT_COSTS, 10)
    large = serialize_cost(DEFAULT_COSTS, 10_000)
    assert large > small
    assert deserialize_cost(DEFAULT_COSTS, 10) > 0


json_like = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=40) | st.binary(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150)
@given(st.lists(json_like, max_size=6), st.integers(0, 0xFFFF),
       st.integers(-1, 1000))
def test_roundtrip_property(values, stream, source_worker):
    original = StreamTuple(tuple(values), stream=stream,
                           source_worker=source_worker)
    decoded = roundtrip(original)
    assert list(decoded.values) == [
        list(v) if isinstance(v, tuple) else v for v in original.values
    ]
    assert decoded.stream == stream
    assert decoded.source_worker == source_worker


@settings(max_examples=80)
@given(st.lists(json_like, max_size=4))
def test_encoding_is_deterministic(values):
    first = encode_values(tuple(values))
    second = encode_values(tuple(values))
    assert first == second


def _generic_bigint_record(value):
    """The bigint branch every encoder takes outside the signed-64
    range: tag, sign byte, u32 length, then the big-endian magnitude
    with one spare leading byte."""
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 8) // 8, "big")
    return (bytes([0x09, 1 if value < 0 else 0])
            + len(body).to_bytes(4, "big") + body)


_INT_EDGES = (2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63) - 1, -(2**63))


@settings(max_examples=200)
@given(st.one_of(st.sampled_from(_INT_EDGES),
                 st.integers(min_value=0, max_value=2**64 - 1),
                 st.integers(min_value=-(2**90), max_value=2**90)))
def test_u64_single_pack_matches_generic_bigint_branch(value):
    """64-bit unsigned ids above the signed range are written with one
    pack; every encoder must still emit the generic branch's bytes."""
    from repro.streaming.serialize import (
        encode_train,
        encode_train_uniform,
        encode_tuple_scalar,
    )

    stream_tuple = StreamTuple(("ack", value, value), stream=2,
                               source_worker=5)
    if -(2**63) <= value < 2**63:
        record = bytes([0x03]) + value.to_bytes(8, "big", signed=True)
    else:
        record = _generic_bigint_record(value)
    # Envelope (stream 2, source 5, no flags, 3 values), then "ack".
    expected = (struct.pack("!HiBH", 2, 5, 0, 3) + encode_values(("ack",))
                + record + record)
    assert encode_values((value,)) == record
    assert encode_tuple(stream_tuple) == expected
    assert encode_tuple_scalar(stream_tuple) == (expected, True)
    for train in (encode_train([stream_tuple]),
                  encode_train_uniform([stream_tuple], 2, 5)):
        assert train[0] == len(expected).to_bytes(4, "big") + expected
    assert decode_tuple(expected).values == ("ack", value, value)
