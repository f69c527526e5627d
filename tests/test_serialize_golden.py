"""Golden-bytes and allocation-regression tests for the tuple codec.

The hot-path overhaul rewrote encode/decode for speed; these tests pin
the wire format byte for byte (the hex literals below were produced by
the pre-optimization encoder) and guard the zero-temporary encoding
discipline against regression.
"""

import sys

import pytest

from repro.bench.legacy import legacy_decode_tuple, legacy_encode_tuple
from repro.sim.rng import SeedFactory
from repro.streaming.serialize import (
    SerializationError,
    decode_tuple,
    encode_tuple,
)
from repro.streaming.tuples import Anchor, StreamTuple

#: Fixed corpus covering every type tag, the anchored and traced
#: envelope variants, positive/negative big ints, nesting, unicode and
#: the empty tuple. The hex is the byte-exact pre-optimization output.
GOLDEN = [
    ("plain_all_scalars",
     StreamTuple((None, True, False, 42, -1.5, "hi", b"\x00\xff"),
                 stream=3, source_worker=9),
     "00030000000900000700010203000000000000002a04bff8000000000000"
     "05000000026869060000000200ff"),
    ("anchored",
     StreamTuple(("word", 7), stream=1, source_worker=2,
                 anchor=Anchor(0x1122334455667788, 0x99AABBCC)),
     "00010000000201000211223344556677880000000099aabbcc0500000004"
     "776f7264030000000000000007"),
    ("traced",
     StreamTuple((3.14,), stream=0, source_worker=-1,
                 trace_id=0xDEADBEEFCAFE),
     "0000ffffffff0200010000deadbeefcafe0440091eb851eb851f"),
    ("anchored_traced_bigint",
     StreamTuple((2 ** 64 + 5, -(2 ** 70)), stream=65535,
                 source_worker=123456, anchor=Anchor(1, 2), trace_id=99),
     "ffff0001e240030002000000000000000100000000000000020000000000"
     "000063090000000009010000000000000005090100000009400000000000"
     "000000"),
    ("nested",
     StreamTuple(([1, "two", [None, True]],
                  {"k": [2.5, b"z"], "n": {"deep": False}}),
                 stream=7, source_worker=0),
     "000700000000000002070000000303000000000000000105000000037477"
     "6f07000000020001080000000205000000016b0700000002044004000000"
     "00000006000000017a05000000016e080000000105000000046465657002"),
    ("unicode",
     StreamTuple(("東京", "straße"), stream=2, source_worker=4),
     "0002000000040000020500000006e69db1e4baac050000000773747261c3"
     "9f65"),
    ("empty_values",
     StreamTuple((), stream=5, source_worker=6),
     "000500000006000000"),
]


#: Sequenced envelopes (active replication, flag 0x04): epoch ``!I`` +
#: sequence ``!Q`` appended after the anchor and trace sections. Kept
#: out of GOLDEN on purpose — the legacy pre-optimization codec predates
#: replication, so these frames must never enter the legacy-reference
#: test; conversely every non-sequenced envelope above must stay byte
#: identical with the sequencer feature present.
SEQUENCED_GOLDEN = [
    ("seq_zero",
     StreamTuple(("word", 7), stream=1, source_worker=2, seq=(0, 0)),
     "0001000000020400020000000000000000000000000500000004776f7264"
     "030000000000000007"),
    ("seq_epoch_bump",
     StreamTuple(("word", 7), stream=1, source_worker=2,
                 seq=(3, 0x0102030405060708)),
     "0001000000020400020000000301020304050607080500000004776f7264"
     "030000000000000007"),
    ("seq_anchored_traced",
     StreamTuple((2.5,), stream=9, source_worker=11,
                 anchor=Anchor(0x1122334455667788, 0x99AABBCC),
                 trace_id=0xDEADBEEFCAFE, seq=(0xFFFFFFFF, 2 ** 64 - 1)),
     "00090000000b07000111223344556677880000000099aabbcc0000deadbe"
     "efcafeffffffffffffffffffffffff044004000000000000"),
    ("seq_empty_values",
     StreamTuple((), stream=0, source_worker=0, seq=(1, 2)),
     "000000000000040000000000010000000000000002"),
]


@pytest.mark.parametrize("name,stream_tuple,expected_hex",
                         GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes_encode(name, stream_tuple, expected_hex):
    assert encode_tuple(stream_tuple).hex() == expected_hex


@pytest.mark.parametrize("name,stream_tuple,expected_hex",
                         SEQUENCED_GOLDEN,
                         ids=[g[0] for g in SEQUENCED_GOLDEN])
def test_sequenced_golden_bytes(name, stream_tuple, expected_hex):
    """Lock the replication wire format: epoch+seq live after anchor and
    trace, under their own flag bit, and round-trip exactly."""
    assert encode_tuple(stream_tuple).hex() == expected_hex
    decoded = decode_tuple(bytes.fromhex(expected_hex))
    assert decoded.seq == stream_tuple.seq
    assert decoded.stream == stream_tuple.stream
    assert decoded.anchor == stream_tuple.anchor
    assert decoded.trace_id == stream_tuple.trace_id
    assert decoded.values == stream_tuple.values


def test_sequenced_flag_is_additive():
    """A sequenced frame is its unsequenced twin plus the flag bit and
    exactly 12 bytes of epoch+seq — nothing else moves."""
    for _name, st, _hex in SEQUENCED_GOLDEN:
        plain = st.with_values(st.values)
        plain.seq = None
        base = bytearray(encode_tuple(plain))
        seq = encode_tuple(st)
        assert len(seq) == len(base) + 12
        flags_at = 6  # after stream u16 + source_worker i32
        assert seq[flags_at] == base[flags_at] | 0x04
        base[flags_at] = seq[flags_at]
        insert_at = flags_at + 3  # flags u8 + value-count u16
        if st.anchor is not None:
            insert_at += 16  # root id u64 + anchor id u64
        if st.trace_id is not None:
            insert_at += 8
        assert seq == bytes(base[:insert_at]) + seq[insert_at:insert_at + 12] \
            + bytes(base[insert_at:])


@pytest.mark.parametrize("name,stream_tuple,expected_hex",
                         GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_bytes_decode(name, stream_tuple, expected_hex):
    decoded = decode_tuple(bytes.fromhex(expected_hex))
    assert decoded.stream == stream_tuple.stream
    assert decoded.source_worker == stream_tuple.source_worker
    assert decoded.anchor == stream_tuple.anchor
    assert decoded.trace_id == stream_tuple.trace_id
    # Lists come back as lists (the codec does not distinguish
    # list/tuple on the wire) — normalize for comparison.
    assert decoded.values == tuple(
        list(v) if isinstance(v, (list, tuple)) else v
        for v in stream_tuple.values)


@pytest.mark.parametrize("name,stream_tuple,expected_hex",
                         GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_matches_legacy_reference(name, stream_tuple, expected_hex):
    """The committed hex really is the pre-optimization output, and the
    legacy decoder accepts the optimized encoder's bytes."""
    assert legacy_encode_tuple(stream_tuple).hex() == expected_hex
    assert legacy_decode_tuple(encode_tuple(stream_tuple)) \
        == decode_tuple(bytes.fromhex(expected_hex))


def codec_corpus(seed=0):
    """A fixed, seed-determined corpus covering every type tag, the
    anchored and traced envelope variants, big ints and nesting — the
    same mix GOLDEN locks down. The RNG stream name seeds every value:
    renaming it yields a different corpus."""
    rng = SeedFactory(seed).rng("bench.perf.codec")
    corpus = []
    words = ["the", "quick", "brown", "typhoon", "switch", "東京", "straße"]
    for i in range(64):
        kind = i % 4
        if kind == 0:       # wordcount-style: (word, count)
            values = (words[i % len(words)], rng.randrange(1, 100000))
        elif kind == 1:     # yahoo-style: dict event
            values = ({"ad_id": rng.randrange(10 ** 9),
                       "event": "view" if i % 2 else "click",
                       "ts": rng.random() * 100.0,
                       "tags": [words[i % len(words)], None, True]},)
        elif kind == 2:     # binary payload + bigint ack id
            values = (bytes(rng.randrange(256) for _ in range(32)),
                      2 ** 64 + rng.randrange(2 ** 32),
                      -(2 ** 70 + i), False)
        else:               # mixed flat tuple
            values = (None, True, False, rng.randrange(-2 ** 40, 2 ** 40),
                      rng.random(), words[i % len(words)] * (i % 7),
                      [1, "two", [3.5, None]])
        anchor = Anchor(rng.getrandbits(64), rng.getrandbits(32)) \
            if i % 3 == 0 else None
        trace_id = rng.getrandbits(63) if i % 5 == 0 else None
        corpus.append(StreamTuple(values, stream=i % 7, source_worker=i,
                                  anchor=anchor, trace_id=trace_id))
    return corpus


def test_randomized_corpus_matches_legacy():
    for seed in (0, 1, 2):
        for st in codec_corpus(seed):
            data = encode_tuple(st)
            assert data == legacy_encode_tuple(st)
            assert decode_tuple(data) == legacy_decode_tuple(data)


def test_decode_accepts_memoryview_and_bytearray():
    for _name, st, expected_hex in GOLDEN:
        data = bytes.fromhex(expected_hex)
        assert decode_tuple(memoryview(data)) == decode_tuple(data)
        assert decode_tuple(bytearray(data)) == decode_tuple(data)


def test_truncated_fixed_header_rejected():
    data = encode_tuple(GOLDEN[3][1])  # anchored + traced
    for cut in (10, 20, 30):
        with pytest.raises(SerializationError):
            decode_tuple(data[:cut])


def _profile_c_calls(func, names):
    """Run ``func`` and return how often each C function in ``names``
    was called (catches ``Struct.pack`` / ``join`` at the interpreter
    level, immune to how the module binds its helpers)."""
    counts = {name: 0 for name in names}

    def profiler(frame, event, arg):
        if event == "c_call":
            name = getattr(arg, "__name__", "")
            if name in counts:
                counts[name] += 1

    sys.setprofile(profiler)
    try:
        func()
    finally:
        sys.setprofile(None)
    return counts


def test_encode_allocation_regression_no_struct_pack_or_join():
    """The optimized encoder writes every fixed-width field in place
    with ``pack_into``: ``Struct.pack`` (a fresh bytes per value) and
    ``join`` (a gather pass over per-value chunks) must never run."""
    corpus = [st for _n, st, _h in GOLDEN] + codec_corpus(0)

    def run():
        for st in corpus:
            encode_tuple(st)

    counts = _profile_c_calls(run, ("pack", "join"))
    assert counts == {"pack": 0, "join": 0}

    # Sanity check on the instrument itself: the legacy encoder *does*
    # call both, so a silent profiler failure cannot fake a pass.
    def run_legacy():
        for st in corpus:
            legacy_encode_tuple(st)

    legacy_counts = _profile_c_calls(run_legacy, ("pack", "join"))
    assert legacy_counts["pack"] > 0
    assert legacy_counts["join"] > 0
