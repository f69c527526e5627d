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
* the batch component hooks never engage where they would be unsound
  (guaranteed processing), and batch-granularity faults stay
  deterministic.
"""

import random

import pytest

from repro.core import TyphoonCluster
from repro.core import io_layer
from repro.sim import Engine
from repro.streaming import TopologyConfig
from repro.streaming.serialize import (
    encode_train,
    encode_train_uniform,
    encode_tuple,
)
from repro.streaming.topology import Bolt, TopologyBuilder
from repro.streaming.tuples import Anchor, StreamTuple
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
                    hosts=1, rate=None):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=hosts, seed=seed)
    config = TopologyConfig(batch_size=batch_size, acking=acking,
                            num_ackers=1 if acking else 0,
                            max_spout_rate=rate)
    cluster.submit(forwarding_topology("fwd", config))
    engine.run(until=until)
    source = cluster.executors_for("fwd", "source")[0]
    sink = cluster.executors_for("fwd", "sink")[0]
    return {
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


@pytest.mark.parametrize("hosts", [1, 2])
@pytest.mark.parametrize("batch_size", [1, 7, 100])
def test_acked_forwarding_fused_equals_forced_per_tuple(monkeypatch,
                                                        batch_size, hosts):
    """Acked windows send their ACK_INIT, data, ACK and COMPLETE logs as
    trains; with train encoding forced off the same logs go out one
    record per tuple. Deliveries, acks and every ack latency agree."""
    run = dict(seed=7, batch_size=batch_size, until=3.0, acking=True,
               hosts=hosts, rate=4000.0)
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


def test_batch_hooks_alone_change_nothing(monkeypatch):
    """Trains stay on; only the component batch hooks are removed. The
    executor must produce identical results either way."""
    fused = _run_forwarding(seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(SequenceSpout, "next_tuple_batch", None)
        patch.setattr(SequenceCheckBolt, "execute_batch", None)
        forced = _run_forwarding(seed=4)
    assert fused == forced


def test_acked_run_never_engages_batch_hooks(monkeypatch):
    """Under guaranteed processing the batch hooks must be inert: an
    acked run with the hooks present equals one with them removed."""
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
