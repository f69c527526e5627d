"""Integration tests for the Storm-like baseline runtime."""

import pytest

from repro.sim import DEFAULT_COSTS, Engine
from repro.streaming import (
    ACKER_COMPONENT,
    Bolt,
    Spout,
    StormCluster,
    TopologyBuilder,
    TopologyConfig,
)
from tests.conftest import CountingSpout, ForwardingBolt, RecordingBolt, simple_chain


def run_chain(limit=500, until=10.0, config=None, sinks=1, hosts=2):
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=hosts)
    cluster.submit(simple_chain(limit=limit, config=config,
                                sink_parallelism=sinks))
    engine.run(until=until)
    return engine, cluster


def test_all_tuples_delivered_exactly_once():
    engine, cluster = run_chain(limit=500)
    sink = cluster.executors_for("chain", "sink")[0]
    assert sink.stats.processed == 500
    values = sorted(v[1] for v in sink.component.received)
    assert values == list(range(500))
    assert cluster.registry.lost_tuples == 0


def test_shuffle_spreads_over_sinks():
    engine, cluster = run_chain(limit=600, sinks=3)
    sinks = cluster.executors_for("chain", "sink")
    counts = [s.stats.processed for s in sinks]
    assert sum(counts) == 600
    assert counts == [200, 200, 200]


def test_remote_and_local_both_work():
    # One host forces local; the default two hosts include a remote hop.
    _engine, local_cluster = run_chain(limit=300, hosts=1)
    sink = local_cluster.executors_for("chain", "sink")[0]
    assert sink.stats.processed == 300


def test_per_destination_serialization_counts():
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=1)
    builder = TopologyBuilder("bc", TopologyConfig())
    builder.set_spout("source", lambda: CountingSpout(100), 1)
    builder.set_bolt("sink", RecordingBolt, 4).all_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=10.0)
    record = cluster.manager.topologies["bc"]
    source_id = record.physical.worker_ids_for("source")[0]
    transport = cluster.executor(source_id).transport
    # Storm serializes once *per destination* (the broadcast penalty).
    assert transport.serializations == 400


def test_broadcast_to_two_components_delivers_once_per_sink():
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=2)
    builder = TopologyBuilder("fanout", TopologyConfig())
    builder.set_spout("source", lambda: CountingSpout(100), 1)
    builder.set_bolt("x", RecordingBolt, 2).all_grouping("source")
    builder.set_bolt("y", RecordingBolt, 2).all_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=10.0)
    sinks = (cluster.executors_for("fanout", "x")
             + cluster.executors_for("fanout", "y"))
    assert [sink.stats.processed for sink in sinks] == [100] * 4


def test_acking_completes_all_roots():
    config = TopologyConfig(acking=True, num_ackers=1)
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=2)
    builder = TopologyBuilder("acked", config)
    builder.set_spout("source", lambda: CountingSpout(200), 1,
                      max_pending=50)
    builder.set_bolt("mid", ForwardingBolt, 1).shuffle_grouping("source")
    builder.set_bolt("sink", RecordingBolt, 1).shuffle_grouping("mid")
    cluster.submit(builder.build())
    engine.run(until=20.0)
    record = cluster.manager.topologies["acked"]
    assert ACKER_COMPONENT in record.logical.nodes
    source = cluster.executors_for("acked", "source")[0]
    acker = cluster.executors_for("acked", ACKER_COMPONENT)[0]
    assert acker.component.completed == 200
    assert len(source.pending_roots) == 0
    assert len(source.latency_dist) == 200
    assert source.latency_dist.percentile(50) > 0


def test_acking_latency_reasonable():
    config = TopologyConfig(acking=True)
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=2)
    cluster.submit(simple_chain("lat", limit=300, config=config))
    engine.run(until=20.0)
    source = cluster.executors_for("lat", "source")[0]
    assert len(source.latency_dist) > 0
    # End-to-end latency should be sub-second in a quiet topology.
    assert source.latency_dist.percentile(99) < 1.0


def test_max_pending_caps_inflight():
    config = TopologyConfig(acking=True)
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=1)
    builder = TopologyBuilder("capped", config)
    builder.set_spout("source", lambda: CountingSpout(None), 1,
                      max_pending=10)
    builder.set_bolt("sink", RecordingBolt, 1).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=5.0)
    source = cluster.executors_for("capped", "source")[0]
    assert len(source.pending_roots) <= 10
    assert source.stats.emitted > 0


def test_kill_topology_stops_workers():
    engine, cluster = run_chain(limit=None, until=5.0,
                                config=TopologyConfig(max_spout_rate=2000))
    source = cluster.executors_for("chain", "source")[0]
    assert source.alive
    cluster.kill_topology("chain")
    engine.run(until=6.0)
    assert not source.alive
    assert cluster.manager.topologies == {}
    assert cluster.state.read_logical("chain") is None


def test_worker_crash_restarts_locally():
    class CrashOnce(Bolt):
        crashed = {}

        def execute(self, stream_tuple, collector):
            if not CrashOnce.crashed.get("done"):
                CrashOnce.crashed["done"] = True
                raise RuntimeError("boom")

    CrashOnce.crashed = {}
    engine = Engine()
    cluster = StormCluster(engine, num_hosts=1)
    builder = TopologyBuilder("crashy", TopologyConfig(max_spout_rate=2000))
    builder.set_spout("source", lambda: CountingSpout(None), 1)
    builder.set_bolt("sink", CrashOnce, 1).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=15.0)
    agent_restarts = sum(a.restarts for a in cluster.manager.agents.values())
    assert agent_restarts == 1
    sink = cluster.executors_for("crashy", "sink")
    assert sink and sink[0].alive
    assert sink[0].stats.processed > 0


def test_heartbeat_timeout_reschedules_to_other_host():
    class AlwaysCrash(Bolt):
        def execute(self, stream_tuple, collector):
            raise RuntimeError("permanent fault")

    engine = Engine()
    cluster = StormCluster(engine, num_hosts=2)
    builder = TopologyBuilder("faulty", TopologyConfig(max_spout_rate=1000))
    builder.set_spout("source", lambda: CountingSpout(None), 1)
    builder.set_bolt("sink", AlwaysCrash, 1).shuffle_grouping("source")
    cluster.submit(builder.build())
    record = cluster.manager.topologies["faulty"]
    original_host = record.physical.workers_for("sink")[0].hostname
    engine.run(until=DEFAULT_COSTS.heartbeat_timeout + 15.0)
    assert cluster.manager.reschedules >= 1
    new_host = record.physical.workers_for("sink")[0].hostname
    assert new_host != original_host


def test_metrics_meters_register_per_worker():
    engine, cluster = run_chain(limit=100)
    record = cluster.manager.topologies["chain"]
    sink_id = record.physical.worker_ids_for("sink")[0]
    meter = cluster.metrics.meter("chain.sink.%d.processed" % sink_id)
    assert meter.total == 100
