"""Batch-fused data plane equivalence (tuple trains).

The fused path — whole-batch train encode on the emit side, batched
frame forwarding, whole-train delivery on the receive side, plus the
optional ``next_tuple_batch`` / ``execute_batch`` component hooks — is
an *optimization*, not a semantic change. These tests pin that down:

* train encoders produce byte-for-byte the frames the per-tuple encoder
  would (randomized seeded batches, every scalar type, containers,
  batch size 1);
* end-to-end runs with the fused path forced off (train encode disabled
  *and* component batch hooks removed) produce identical delivered
  counts, sequence-check results and delivery-ledger totals, acked runs
  (whose window logs then go out one record per tuple) identical ack
  latencies too;
* the batch component hooks change nothing where they engage: the
  spout hook runs acked windows too (registering every root), while
  bolts keep per-tuple ``execute`` under acking; batch-granularity
  faults stay deterministic.
"""

import random
import struct
from itertools import accumulate

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.core import TyphoonCluster
from repro.core import io_layer
from repro.sim import Engine
from repro.streaming import StormCluster, TopologyConfig
from repro.streaming import serialize
from repro.streaming.serialize import (
    encode_train,
    encode_train_uniform,
    encode_tuple,
)
from repro.streaming.topology import Bolt, TopologyBuilder
from repro.streaming.transport import Delivery, delivery_bytes
from repro.streaming.tuples import ACK_STREAM, Anchor, StreamTuple
from repro.workloads import broadcast_topology, forwarding_topology
from repro.workloads.sentences import (
    NullSinkBolt,
    SequenceCheckBolt,
    SequenceSpout,
)

_RECORD_PREFIX = 4  # u32 length prefix per record inside a train


def _per_tuple_frame_bytes(tuples):
    """What the per-tuple path puts on the wire for the same batch."""
    out = bytearray()
    for stream_tuple in tuples:
        record = encode_tuple(stream_tuple)
        out += len(record).to_bytes(_RECORD_PREFIX, "big")
        out += record
    return bytes(out)


def _random_scalar(rng):
    kind = rng.randrange(7)
    if kind == 0:
        return "word%04d" % rng.randrange(50)
    if kind == 1:
        return rng.randrange(-2 ** 40, 2 ** 40)
    if kind == 2:
        return rng.randrange(2 ** 70)  # bigint record
    if kind == 3:
        return rng.random()
    if kind == 4:
        return None
    if kind == 5:
        return rng.random() < 0.5
    return bytes([rng.randrange(256)] * rng.randrange(1, 8))


def _random_batch(rng, size, stream=0, src=3, containers=False):
    batch = []
    for _ in range(size):
        width = rng.randrange(1, 4)
        values = tuple(_random_scalar(rng) for _ in range(width))
        if containers and rng.random() < 0.2:
            values = values + ([1, 2], )
        batch.append(StreamTuple(values=values, stream=stream,
                                 source_worker=src))
    return batch


# -- encoder byte identity ----------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 3, 17, 100])
def test_encode_train_matches_per_tuple_bytes(seed, size):
    rng = random.Random(seed)
    batch = _random_batch(rng, size, containers=True)
    train = encode_train(batch)
    assert train is not None
    data, bounds, rlens, ests, objs, stream = train
    assert data == _per_tuple_frame_bytes(batch)
    # Structural consistency: bounds bracket each length-prefixed
    # record, ests are cumulative and rlens match the prefixes.
    assert len(bounds) == size + 1 and len(ests) == size + 1
    assert bounds[0] == 0 and bounds[-1] == len(data)
    for i, rlen in enumerate(rlens):
        assert bounds[i + 1] - bounds[i] - _RECORD_PREFIX == rlen
        prefix = int.from_bytes(data[bounds[i]:bounds[i] + _RECORD_PREFIX],
                                "big")
        assert prefix == rlen
    assert stream == 0
    if objs is not None:
        # Container records ride as None (decode at delivery); every
        # fast-lane record keeps its object.
        for stream_tuple, obj in zip(batch, objs):
            has_container = any(isinstance(v, list)
                                for v in stream_tuple.values)
            assert (obj is None) == has_container


@pytest.mark.parametrize("seed", [3, 4, 5])
@pytest.mark.parametrize("size", [1, 2, 25, 100])
def test_encode_train_uniform_matches_general(seed, size):
    rng = random.Random(seed)
    batch = _random_batch(rng, size, stream=7, src=11)
    uniform = encode_train_uniform(batch, 7, 11)
    general = encode_train(batch)
    assert uniform == general
    assert uniform[0] == _per_tuple_frame_bytes(batch)
    assert uniform[5] == 7


def test_encode_train_uniform_container_delegates():
    rng = random.Random(9)
    batch = _random_batch(rng, 10, containers=False)
    batch[4] = StreamTuple(values=(1, [2, 3]), stream=0, source_worker=3)
    uniform = encode_train_uniform(batch, 0, 3)
    assert uniform == encode_train(batch)
    assert uniform[0] == _per_tuple_frame_bytes(batch)
    objs = uniform[4]
    assert objs is not None and objs[4] is None and objs[3] is batch[3]


# -- column-uniform trains: the patch path ------------------------------------

_PATCH_MIN = serialize._PATCH_MIN
_I64_EDGES = (-2 ** 63, 2 ** 63 - 1)
#: Signed zeros, NaN, both infinities and subnormals.
_FLOAT_EDGES = (0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                5e-324, -5e-324, 2.2250738585072e-308)
#: Test columns by name: ``n`` -> the column's ``n`` values.
_PATCHED = {
    "str": lambda n: ["héllo ✓ 世界"] * n,
    "bytes": lambda n: [b"\x00\xff\x80"] * n,
    "int": lambda n: [-2 ** 63 - 5] * n,   # a constant needs no lane
    "bool": lambda n: [False] * n,
    "none": lambda n: [None] * n,
    "i64-edges": lambda n: [(_I64_EDGES + (0, -1, 1))[i % 5]
                            for i in range(n)],
    "float-edges": lambda n: [_FLOAT_EDGES[i % len(_FLOAT_EDGES)]
                              for i in range(n)],
    "signed-zeros": lambda n: [(0.0, -0.0)[i % 2] for i in range(n)],
}
_WALKED = {
    "varying-str": lambda n: ["wörd%d" % i for i in range(n)],
    "varying-bytes": lambda n: [bytes([i % 256]) for i in range(n)],
    "past-i64-max": lambda n: [2 ** 63 if i == n - 1 else i
                               for i in range(n)],
    "past-i64-min": lambda n: [-2 ** 63 - 1 if i == n // 2 else -i
                               for i in range(n)],
    "one-and-true": lambda n: [(1, True)[i % 2] for i in range(n)],
    "one-and-float": lambda n: [(1, 1.0)[i % 2] for i in range(n)],
}


def _column_uniform(rows):
    """The patch path's eligibility rule, written out independently."""
    if len(rows) < _PATCH_MIN or len({len(row) for row in rows}) != 1:
        return False
    for column in zip(*rows):
        kinds = {type(value) for value in column}
        if len(kinds) != 1:
            return False
        kind = kinds.pop()
        if kind is float or (kind is int and all(
                _I64_EDGES[0] <= value <= _I64_EDGES[1]
                for value in column)):
            continue
        if kind not in (str, bytes, int, bool, type(None)) \
                or any(value != column[0] for value in column):
            return False
    return True


def _assert_uniform_matches(rows, stream=7, src=-3, anchors=None):
    """``encode_train_uniform`` against ``encode_train`` (all six
    fields) and per-record ``encode_tuple`` framing. It falls back to
    ``encode_train`` exactly when the rows are not column-uniform or,
    with ``anchors`` (one per row, the first set), when a row has none;
    returns whether it did."""
    if anchors is None:
        anchors = [None] * len(rows)
    batch = [StreamTuple(values=tuple(row), stream=stream,
                         source_worker=src, anchor=anchor)
             for row, anchor in zip(rows, anchors)]
    general = serialize.encode_train
    fallbacks = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "encode_train",
                      lambda tuples: fallbacks.append(tuples)
                      or general(tuples))
        uniform = encode_train_uniform(batch, stream, src)
    assert uniform == general(batch)
    assert uniform[0] == _per_tuple_frame_bytes(batch)
    assert fallbacks in ([], [batch])
    all_or_none = anchors.count(None) in (0, len(anchors))
    assert (not fallbacks) == (_column_uniform(rows) and all_or_none)
    return bool(fallbacks)


@pytest.mark.parametrize("size", [1, _PATCH_MIN - 1, _PATCH_MIN, 1000])
@pytest.mark.parametrize("name", list(_PATCHED) + list(_WALKED))
def test_encode_train_uniform_patches_column_uniform_trains(name, size):
    """Each column kind between a constant payload and a varying
    sequence number, as the forwarding spout emits: the patch path
    takes every train of ``_PATCH_MIN`` or more records whose columns
    are constant or signed-64/float lanes, and walks the rest."""
    column = (_PATCHED.get(name) or _WALKED[name])(size)
    rows = [("payload", value, seq)
            for seq, value in enumerate(column, 2 ** 40)]
    walked = _assert_uniform_matches(rows)
    assert walked == (size < _PATCH_MIN or name in _WALKED)
    # The same column alone, last, and with no other column at all.
    _assert_uniform_matches([(value,) for value in column], 0, 0)
    _assert_uniform_matches([(seq, value) for seq, value
                             in enumerate(column)], 0xFFFF, 2 ** 31 - 1)
    assert _assert_uniform_matches([()] * size) == (size < _PATCH_MIN)


@pytest.mark.parametrize("offset", [-1, 1])
def test_encode_train_uniform_walks_unequal_widths(offset):
    rows = [("payload", seq) for seq in range(3 * _PATCH_MIN)]
    for index in (0, _PATCH_MIN, len(rows) - 1):
        ragged = list(rows)
        ragged[index] = ("payload", index, 0)[:2 + offset]
        assert _assert_uniform_matches(ragged)


#: Root and edge ids at the edges of the unsigned 64-bit lane.
_U64_EDGES = (0, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1)


@pytest.mark.parametrize("size", [1, _PATCH_MIN - 1, _PATCH_MIN, 1000])
def test_encode_train_uniform_patches_anchored_trains(size):
    """An acked spout's lane train: every tuple anchored, root and edge
    ids cycling through the u64 edges (each id against each other),
    patched from ``_PATCH_MIN`` records on; one unanchored tuple
    anywhere after the first makes it a walked train."""
    rows = [("payload", seq) for seq in range(size)]
    anchors = [Anchor(_U64_EDGES[i % 4], _U64_EDGES[i // 4 % 4])
               for i in range(size)]
    walked = _assert_uniform_matches(rows, 0, 3, anchors)
    assert walked == (size < _PATCH_MIN)
    for hole in {i for i in (1, size // 2, size - 1) if 0 < i < size}:
        mixed = list(anchors)
        mixed[hole] = None
        assert _assert_uniform_matches(rows, 0, 3, mixed)
    # Ids outside the lane fail as the walk fails.
    for bad in (-1, 2 ** 64):
        batch = [StreamTuple(values=row, anchor=Anchor(bad, 1))
                 for row in rows]
        for encode in (encode_train, lambda tuples:
                       encode_train_uniform(tuples, 0, -1)):
            with pytest.raises(struct.error):
                encode(batch)


_SCALARS = st.one_of(
    st.text(max_size=5), st.binary(max_size=5), st.integers(),
    st.booleans(), st.none(), st.floats(),
    st.sampled_from(_I64_EDGES + (2 ** 63, -2 ** 63 - 1) + _FLOAT_EDGES))
_POOLS = st.one_of(
    _SCALARS.map(lambda value: [value]),
    st.lists(st.one_of(st.integers(*_I64_EDGES),
                       st.sampled_from(_I64_EDGES)), min_size=1, max_size=6),
    st.lists(st.one_of(st.floats(), st.sampled_from(_FLOAT_EDGES)),
             min_size=1, max_size=6),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=2, max_size=4),
    st.lists(st.sampled_from([1, True]), min_size=2, max_size=4),
    st.lists(st.sampled_from([1, 1.0]), min_size=2, max_size=4),
    st.lists(_SCALARS, min_size=1, max_size=4))


_ANCHOR_IDS = st.lists(st.one_of(st.sampled_from(_U64_EDGES),
                                 st.integers(0, 2 ** 64 - 1)),
                       min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.sampled_from([1, _PATCH_MIN - 1, _PATCH_MIN, 1000]),
                 st.integers(1, 4 * _PATCH_MIN)),
       st.lists(_POOLS, max_size=4), st.integers(-1, 1),
       st.integers(0, 0xFFFF), st.integers(-2 ** 31, 2 ** 31 - 1),
       st.sampled_from(("plain", "anchored", "mixed")), _ANCHOR_IDS,
       _ANCHOR_IDS, st.integers(0, 4 * _PATCH_MIN))
def test_encode_train_uniform_property(size, pools, ragged, stream, src,
                                       anchoring, roots, edges, hole):
    """Random mixes of constant and varying columns, each cycled from a
    small pool, with one row optionally a value short or long; plain,
    all-anchored (root and edge ids cycled from their own pools) or
    anchored from the first tuple on with one unanchored tuple."""
    rows = [[pool[i % len(pool)] for pool in pools] for i in range(size)]
    if ragged == -1 and pools:
        rows[size // 2].pop()
    elif ragged == 1:
        rows[-1].append(None)
    anchors = None
    if anchoring != "plain":
        anchors = [Anchor(roots[i % len(roots)], edges[i % len(edges)])
                   for i in range(size)]
        if anchoring == "mixed" and size > 1:
            anchors[1 + hole % (size - 1)] = None
    walked = _assert_uniform_matches(rows, stream, src, anchors)
    event("%s %s" % (anchoring, "walked" if walked else "patched"))


def _anchored(rng, values, stream=0, src=3):
    return StreamTuple(values=values, stream=stream, source_worker=src,
                       anchor=Anchor(rng.getrandbits(64),
                                     rng.getrandbits(64)))


@pytest.mark.parametrize("seed", [0, 1])
def test_encode_train_anchored_records_match_per_tuple_bytes(seed):
    """Anchored records carry the flag and the 16-byte anchor, exactly
    as encode_tuple writes them: all-anchored, mixed anchored/plain,
    and trains whose envelope changes only in the anchored flag."""
    rng = random.Random(seed)
    anchored = [_anchored(rng, st.values)
                for st in _random_batch(rng, 12, containers=True)]
    mixed = [_anchored(rng, st.values) if rng.random() < 0.5 else st
             for st in _random_batch(rng, 30)]
    # Same stream, source and width throughout: only the flag changes.
    flips = []
    for i in range(8):
        plain = StreamTuple(values=("w", i), stream=0, source_worker=3)
        flips += [plain, _anchored(rng, ("w", i)), _anchored(rng, ("w", i))]
    for batch in (anchored, mixed, flips):
        train = encode_train(batch)
        assert train is not None
        assert train[0] == _per_tuple_frame_bytes(batch)
        assert train[2] == [len(encode_tuple(st)) for st in batch]


_ACK_KINDS = ("init", "ack", "complete", "fail")
#: Both ends of both integer widths the fixed ack layout writes.
_ACK_EDGES = (-2 ** 63, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1)


def _ack(kind, root, value, worker=7, stream=ACK_STREAM, src=3):
    return StreamTuple(values=(kind, root, value, worker), stream=stream,
                       source_worker=src)


def _assert_train_matches_records(batch):
    """``encode_train`` against per-record ``encode_tuple``: bytes,
    bounds, lengths and, on an all-fast train (the only kind whose
    estimates are read), store-sizer estimates. Returns
    ``(objs, stream)``."""
    data, bounds, rlens, ests, objs, stream = encode_train(batch)
    records = [encode_tuple(st) for st in batch]
    assert data == _per_tuple_frame_bytes(batch)
    assert rlens == [len(record) for record in records]
    assert bounds == list(accumulate(
        [0] + [_RECORD_PREFIX + len(record) for record in records]))
    if objs is None:
        assert ests == [delivery_bytes(Delivery(tuples=batch[:i]))
                        for i in range(len(batch) + 1)]
    return objs, stream


def test_encode_train_ack_records_match_per_tuple_bytes():
    """Ack records take the fixed layout (one cached head per shape)
    and write the per-value walk's bytes and bookkeeping; records
    outside the layout fall back mid-train."""
    acks = [_ack(kind, root, value, worker)
            for kind in _ACK_KINDS for root in _ACK_EDGES
            for value in _ACK_EDGES for worker in (-1, 7)]
    serialize._ACK_HEAD_CACHE.clear()
    objs, stream = _assert_train_matches_records(acks)
    assert objs is None and stream == ACK_STREAM
    # One head per (stream, source, kind) and root and value width.
    assert len(serialize._ACK_HEAD_CACHE) == len(_ACK_KINDS)
    fallbacks = [
        _ack("ack", 2 ** 64, 1), _ack("ack", 1, 2 ** 64),
        _ack("ack", -2 ** 63 - 1, 1), _ack("ack", 1, -2 ** 63 - 1),
        _ack("ack", True, 1), _ack("ack", 1, False),
        _ack("ack", "root", 1), _ack(b"ack", 1, 1),
        _ack("ack", 1, 1, worker=2 ** 63),
        StreamTuple(values=("ack", 1, 1), stream=ACK_STREAM,
                    source_worker=3),
        StreamTuple(values=("ack", 1, 1, 7, 0), stream=ACK_STREAM,
                    source_worker=3),
        StreamTuple(values=("ack", 1, 1, 7), stream=ACK_STREAM,
                    source_worker=3, anchor=Anchor(5, 6)),
    ]
    mixed = []
    for i, odd in enumerate(fallbacks):
        mixed += [acks[i], odd, acks[-1 - i]]
    # The same kind from another source needs that source's head.
    mixed += [_ack("ack", 1, 2), _ack("ack", 1, 2, src=4), _ack("ack", 1, 2)]
    objs, stream = _assert_train_matches_records(mixed)
    assert objs is None and stream == ACK_STREAM
    # A container value falls back too; its record alone loses the
    # fast lane. A data-stream record makes the train mixed.
    mixed += [_ack("ack", 1, [2]), acks[5], _ack("ack", 1, 1, stream=0)]
    objs, stream = _assert_train_matches_records(mixed)
    assert stream is None
    assert [obj is None for obj in objs] == \
        [i == len(mixed) - 3 for i in range(len(mixed))]
    assert all(obj is st for obj, st in zip(objs, mixed) if obj is not None)


def test_encode_train_refuses_traced_and_sequenced_tuples():
    plain = StreamTuple(values=("a", 1))
    anchored = StreamTuple(values=("a", 1), anchor=Anchor(5, 6))
    traced = StreamTuple(values=("a", 1), trace_id=9)
    sequenced = StreamTuple(values=("a", 1), seq=(1, 2))
    both = StreamTuple(values=("a", 1), anchor=Anchor(5, 6), trace_id=9)
    for stamped in (traced, sequenced, both):
        assert encode_train([plain, anchored, stamped, plain]) is None


def test_mixed_stream_train_reports_no_stream():
    a = StreamTuple(values=("a", 1), stream=0)
    b = StreamTuple(values=("b", 2), stream=5)
    train = encode_train([a, b])
    assert train is not None
    assert train[5] is None  # mixed → receiver must not batch-execute


# -- end-to-end equivalence ---------------------------------------------------


def _force_per_tuple(monkeypatch):
    """Disable every layer of the fused path: train encodes fall back
    to the per-tuple wire path and the component batch hooks vanish."""
    monkeypatch.setattr(io_layer, "encode_train", lambda tuples: None)
    monkeypatch.setattr(io_layer, "encode_train_uniform",
                        lambda tuples, stream, src: None)
    monkeypatch.setattr(SequenceSpout, "next_tuple_batch", None)
    monkeypatch.setattr(SequenceCheckBolt, "execute_batch", None)
    monkeypatch.setattr(NullSinkBolt, "execute_batch", None)


def _run_forwarding(seed=0, batch_size=100, until=3.2, acking=False,
                    hosts=1, rate=None, ackers=1, replay=False,
                    cluster_class=TyphoonCluster):
    engine = Engine()
    cluster = cluster_class(engine, num_hosts=hosts, seed=seed)
    config = TopologyConfig(batch_size=batch_size, acking=acking,
                            num_ackers=ackers if acking else 0,
                            max_spout_rate=rate, replay_enabled=replay)
    cluster.submit(forwarding_topology("fwd", config))
    engine.run(until=until)
    source = cluster.executors_for("fwd", "source")[0]
    sink = cluster.executors_for("fwd", "sink")[0]
    return {
        # Every root in flight, and where the spout's rng stands.
        "pending": [(root, p.message_id, p.emit_time)
                    for root, p in source.pending_roots.items()],
        "rng": source.rng.getstate(),
        "emitted": source.stats.emitted,
        "processed": sink.stats.processed,
        "count": sink.component.count,
        "out_of_order": sink.component.out_of_order,
        "last": dict(sink.component._last),
        "ledger": {
            "sent": dict(cluster.ledger.sent),
            "delivered": dict(cluster.ledger.delivered),
            "drops": dict(cluster.ledger.drops),
        },
        # Exact virtual time of every ack completion.
        "latencies": source.latency_dist.samples(),
        "now": engine.now,
        "events": engine.stats()["events_executed"],
    }


def _run_broadcast(seed=0, sinks=3, until=3.2):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=seed)
    cluster.submit(broadcast_topology("bc", sinks,
                                      TopologyConfig(batch_size=100)))
    engine.run(until=until)
    source = cluster.executors_for("bc", "source")[0]
    sink_execs = cluster.executors_for("bc", "sink")
    return {
        "emitted": source.stats.emitted,
        "per_sink": [e.stats.processed for e in sink_execs],
        "last": [e.component.last_values for e in sink_execs],
        "ledger": {
            "sent": dict(cluster.ledger.sent),
            "delivered": dict(cluster.ledger.delivered),
            "drops": dict(cluster.ledger.drops),
        },
    }


@pytest.mark.parametrize("batch_size", [1, 7, 100])
def test_forwarding_fused_equals_forced_per_tuple(monkeypatch, batch_size):
    fused = _run_forwarding(seed=2, batch_size=batch_size)
    with monkeypatch.context() as patch:
        _force_per_tuple(patch)
        forced = _run_forwarding(seed=2, batch_size=batch_size)
    assert fused == forced
    assert fused["out_of_order"] == 0
    assert fused["processed"] > 0


_ACKED_RUNS = [
    pytest.param(dict(batch_size=batch_size, hosts=hosts),
                 id="%d-%d" % (batch_size, hosts))
    for hosts in (1, 2) for batch_size in (1, 7, 100)
] + [
    # Fig. 8(b): no rate limit, so the source's max_pending window binds.
    pytest.param(dict(rate=None, until=2.25), id="max-pending"),
    pytest.param(dict(replay=True), id="replay"),
    pytest.param(dict(ackers=2), id="two-ackers"),
    pytest.param(dict(cluster_class=StormCluster), id="storm"),
]


@pytest.mark.parametrize("case", _ACKED_RUNS)
def test_acked_forwarding_fused_equals_forced_per_tuple(monkeypatch, case):
    """Acked windows send their ACK_INIT, data, ACK and COMPLETE logs as
    trains, the spout's batch hook emitting all but each window's first
    root; with train encoding forced off and the hooks removed the same
    logs go out one record and one call per tuple. Deliveries, acks,
    every ack latency, the roots in flight and the spout's rng agree."""
    run = dict(seed=7, batch_size=100, until=3.0, acking=True, hosts=2,
               rate=4000.0)
    run.update(case)
    fused = _run_forwarding(**run)
    with monkeypatch.context() as patch:
        _force_per_tuple(patch)
        forced = _run_forwarding(**run)
    assert fused == forced
    assert fused["out_of_order"] == 0
    assert len(fused["latencies"]) > 0


def test_broadcast_fused_equals_forced_per_tuple(monkeypatch):
    fused = _run_broadcast(seed=3)
    with monkeypatch.context() as patch:
        _force_per_tuple(patch)
        forced = _run_broadcast(seed=3)
    assert fused == forced
    assert min(fused["per_sink"]) > 0
    # Network-level replication: every sink sees the same train.
    assert len(set(fused["per_sink"])) == 1


def test_spout_trains_take_the_patch_path(monkeypatch):
    """Identical bytes would hide a silent fallback, so count them: on
    a one-host batch-100 forwarding run and a two-host k=4 broadcast,
    every uniform train of ``_PATCH_MIN`` or more records is patched
    and only shorter ones are walked by ``encode_train``; a train with
    a varying string column is walked."""
    trains, walked = [], []
    uniform = io_layer.encode_train_uniform
    general = serialize.encode_train

    def counting_uniform(tuples, stream, src):
        trains.append(len(tuples))
        return uniform(tuples, stream, src)

    def counting_general(tuples):
        walked.append(len(tuples))
        return general(tuples)

    monkeypatch.setattr(io_layer, "encode_train_uniform", counting_uniform)
    monkeypatch.setattr(serialize, "encode_train", counting_general)
    for run in (lambda: _run_forwarding(seed=1, batch_size=100, until=2.8),
                lambda: _run_broadcast(seed=1, sinks=4, until=2.8)):
        trains.clear()
        walked.clear()
        run()
        assert sum(n >= _PATCH_MIN for n in trains) > 10
        assert walked == [n for n in trains if n < _PATCH_MIN]
    walked.clear()
    words = [StreamTuple(values=("w%d" % i, i), stream=0, source_worker=3)
             for i in range(2 * _PATCH_MIN)]
    assert uniform(words, 0, 3) == general(words)
    assert walked == [len(words)]


def test_acked_spout_takes_the_batch_hook_and_the_patch_path(monkeypatch):
    """Identical outputs would hide a silent fallback, so count them: on
    a two-host acked run, ``next_tuple`` runs once per window (the call
    that arms the lane), ``next_tuple_batch`` emits the rest, every data
    tuple rides an anchored lane train, and every such train of
    ``_PATCH_MIN`` or more records is patched."""
    calls = {"next_tuple": 0, "next_tuple_batch": 0}

    def counting(name):
        method = getattr(SequenceSpout, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(SequenceSpout, name, counting(name))
    trains, walked = [], []
    uniform = io_layer.encode_train_uniform
    general = serialize.encode_train

    def counting_uniform(tuples, stream, src):
        assert all(st.anchor is not None for st in tuples)
        trains.append(len(tuples))
        return uniform(tuples, stream, src)

    def counting_general(tuples):
        walked.append(len(tuples))
        return general(tuples)

    monkeypatch.setattr(io_layer, "encode_train_uniform", counting_uniform)
    monkeypatch.setattr(serialize, "encode_train", counting_general)
    result = _run_forwarding(seed=1, batch_size=100, until=3.0, acking=True,
                             hosts=2, rate=4000.0)
    windows = calls["next_tuple"]
    assert windows == calls["next_tuple_batch"] > 10
    assert result["emitted"] == 100 * windows
    assert sum(trains) == result["emitted"]
    assert sum(n >= _PATCH_MIN for n in trains) > 10
    assert walked == [n for n in trains if n < _PATCH_MIN]


def test_batch_hooks_alone_change_nothing(monkeypatch):
    """Trains stay on; only the component batch hooks are removed. The
    executor must produce identical results either way."""
    fused = _run_forwarding(seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(SequenceSpout, "next_tuple_batch", None)
        patch.setattr(SequenceCheckBolt, "execute_batch", None)
        forced = _run_forwarding(seed=4)
    assert fused == forced


def test_acked_run_batch_hooks_change_nothing(monkeypatch):
    """Under guaranteed processing the spout's batch hook engages and
    the bolt's does not; either way an acked run with the hooks present
    equals one with them removed."""
    with_hooks = _run_forwarding(seed=5, acking=True)
    with monkeypatch.context() as patch:
        patch.setattr(SequenceSpout, "next_tuple_batch", None)
        patch.setattr(SequenceCheckBolt, "execute_batch", None)
        without = _run_forwarding(seed=5, acking=True)
    assert with_hooks == without
    assert with_hooks["processed"] > 0


class _FaultyBatchSink(Bolt):
    """A sink whose batch hook crashes mid-stream: batch-granularity
    fault semantics (the whole delivery is forfeited, deterministically)."""

    def __init__(self, fault_after=500):
        self.fault_after = fault_after
        self.count = 0

    def execute(self, stream_tuple, collector):
        self.count += 1

    def execute_batch(self, stream_tuples, collector):
        if self.count >= self.fault_after:
            raise RuntimeError("mid-train fault")
        self.count += len(stream_tuples)


def test_mid_train_fault_is_deterministic():
    def run():
        engine = Engine()
        cluster = TyphoonCluster(engine, num_hosts=1, seed=6)
        builder = TopologyBuilder("ft", TopologyConfig(batch_size=100))
        builder.set_spout("source", lambda: SequenceSpout("payload"), 1,
                          max_pending=2000)
        builder.set_bolt("sink", _FaultyBatchSink, 1).shuffle_grouping(
            "source")
        cluster.submit(builder.build())
        engine.run(until=4.0)
        # The fault crashes the worker (batch-granularity semantics), so
        # reach past the alive-filtered accessor for its final state.
        record = cluster.record("ft")
        worker_id = record.physical.worker_ids_for("sink")[0]
        sink = cluster.executors[worker_id]
        return (sink.stats.processed, sink.stats.crashes,
                sink.component.count, sink.alive)

    first = run()
    second = run()
    assert first == second
    assert first[1] >= 1  # the fault actually fired
    assert first[2] >= 500
