"""Integration tests for the Typhoon runtime (deployment §3.2, control
tuples §3.3.2, SDN data plane §3.4)."""

import pytest

from repro.core import TyphoonCluster, control as ct
from repro.core.io_layer import TyphoonTransport
from repro.sim import DEFAULT_COSTS, Engine
from repro.streaming import (
    ACKER_COMPONENT,
    TopologyBuilder,
    TopologyConfig,
    TopologyError,
)
from repro.workloads.chaosflow import ChaosSequenceSpout, RelayBolt
from repro.workloads.replicated import ReplicatedCountBolt
from tests.conftest import CountingSpout, ForwardingBolt, RecordingBolt, simple_chain


def run_chain(limit=500, until=10.0, config=None, sinks=1, hosts=2):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=hosts)
    cluster.submit(simple_chain(limit=limit, config=config,
                                sink_parallelism=sinks))
    engine.run(until=until)
    return engine, cluster


def test_end_to_end_delivery_exactly_once():
    engine, cluster = run_chain(limit=500)
    sink = cluster.executors_for("chain", "sink")[0]
    assert sink.stats.processed == 500
    assert sorted(v[1] for v in sink.component.received) == list(range(500))


def test_flow_rules_installed_per_table3():
    engine, cluster = run_chain(limit=10, hosts=1)
    switch = cluster.fabric.switches()[0]
    descriptions = [entry.describe() for entry in switch.flows]
    # worker-to-controller rules for both workers + one unicast rule.
    assert len(descriptions) >= 3
    installed = cluster.app._installed["chain"]
    assert len(installed) == 1  # one data edge, both workers local


def test_remote_transfer_uses_tunnel():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2)
    builder = TopologyBuilder("remote", TopologyConfig())
    builder.set_spout("source", lambda: CountingSpout(300), 1)
    builder.set_bolt("sink", RecordingBolt, 2).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=10.0)
    sinks = cluster.executors_for("remote", "sink")
    assert sum(s.stats.processed for s in sinks) == 300
    # With the locality scheduler 3 workers split across 2 hosts, so at
    # least one hop is remote: tunnels must have carried bytes.
    total_tunnel_bytes = sum(
        tunnel.total_bytes
        for fabric in cluster.fabric.hosts.values()
        for tunnel in fabric.tunnels.values()
    )
    assert total_tunnel_bytes > 0


def test_broadcast_single_serialization():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1)
    builder = TopologyBuilder("bc", TopologyConfig())
    builder.set_spout("source", lambda: CountingSpout(100), 1)
    builder.set_bolt("sink", RecordingBolt, 4).all_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=10.0)
    record = cluster.manager.topologies["bc"]
    source_id = record.physical.worker_ids_for("bc" and "source")[0]
    transport = cluster.transports[source_id]
    # One serialization per tuple regardless of four destinations.
    assert transport.serializations == 100
    sinks = cluster.executors_for("bc", "sink")
    assert [s.stats.processed for s in sinks] == [100, 100, 100, 100]


def test_broadcast_to_two_components_is_rejected():
    # One one-to-many rule per source port covers every ALL-grouped
    # target, but the executor sends one broadcast per edge: each sink
    # would process every tuple twice.
    builder = TopologyBuilder("fanout", TopologyConfig())
    builder.set_spout("source", lambda: CountingSpout(100), 1)
    builder.set_bolt("x", RecordingBolt, 2).all_grouping("source")
    builder.set_bolt("y", RecordingBolt, 2).all_grouping("source")
    cluster = TyphoonCluster(Engine(), num_hosts=2)
    with pytest.raises(TopologyError, match="'source'.*x, y"):
        cluster.submit(builder.build())
    assert cluster.manager.topologies == {}


def test_two_replicated_bolts_on_one_stream_are_rejected():
    # Replicated inputs become ALL edges: the same one-rule fan-out.
    builder = TopologyBuilder("twogroups", TopologyConfig())
    builder.set_spout("source", ChaosSequenceSpout, 1)
    builder.set_bolt("relay", RelayBolt, 1).shuffle_grouping("source")
    for name in ("r1", "r2"):
        builder.set_bolt(name, ReplicatedCountBolt, stateful=True,
                         replicas=2).global_grouping("relay")
    cluster = TyphoonCluster(Engine(), num_hosts=2)
    with pytest.raises(TopologyError, match="'relay'.*r1, r2"):
        cluster.submit(builder.build())
    assert cluster.manager.topologies == {}


def test_acking_over_sdn_paths():
    config = TopologyConfig(acking=True, num_ackers=1)
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2)
    builder = TopologyBuilder("acked", config)
    builder.set_spout("source", lambda: CountingSpout(200), 1,
                      max_pending=50)
    builder.set_bolt("mid", ForwardingBolt, 1).shuffle_grouping("source")
    builder.set_bolt("sink", RecordingBolt, 1).shuffle_grouping("mid")
    cluster.submit(builder.build())
    engine.run(until=20.0)
    acker = cluster.executors_for("acked", ACKER_COMPONENT)[0]
    source = cluster.executors_for("acked", "source")[0]
    assert acker.component.completed == 200
    assert not source.pending_roots
    assert len(source.latency_dist) == 200


def test_metric_req_resp_roundtrip():
    engine, cluster = run_chain(limit=100, until=5.0)
    record = cluster.manager.topologies["chain"]
    worker_ids = record.physical.worker_ids_for("sink")
    gate = cluster.app.query_metrics("chain", worker_ids, timeout=2.0)
    engine.run(until=8.0)
    assert gate.triggered
    stats = gate.value
    assert stats[worker_ids[0]]["processed"] == 100
    assert cluster.app.latest_metrics[worker_ids[0]]["processed"] == 100


def test_deactivate_activate_via_control_tuples():
    config = TopologyConfig(max_spout_rate=5000)
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1)
    cluster.submit(simple_chain("toggle", limit=None, config=config))
    engine.run(until=5.0)
    source = cluster.executors_for("toggle", "source")[0]
    emitted_before_pause = source.stats.emitted
    assert emitted_before_pause > 0
    cluster.deactivate("toggle")
    engine.run(until=6.0)
    paused_at = source.stats.emitted
    engine.run(until=10.0)
    assert source.stats.emitted == paused_at  # no emission while paused
    assert not source.active
    cluster.activate("toggle")
    engine.run(until=12.0)
    assert source.stats.emitted > paused_at
    assert source.active


def test_input_rate_control_tuple():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1)
    cluster.submit(simple_chain("rated", limit=None,
                                config=TopologyConfig(max_spout_rate=10000)))
    engine.run(until=3.0)
    cluster.set_input_rate("rated", 1000)
    engine.run(until=4.0)
    source = cluster.executors_for("rated", "source")[0]
    start = source.stats.emitted
    engine.run(until=9.0)
    emitted = source.stats.emitted - start
    assert emitted == pytest.approx(5000, rel=0.1)


def test_batch_size_control_tuple():
    engine, cluster = run_chain(limit=100, until=5.0)
    record = cluster.manager.topologies["chain"]
    source_id = record.physical.worker_ids_for("source")[0]
    cluster.set_batch_size("chain", 17)
    engine.run(until=6.0)
    transport = cluster.transports[source_id]
    assert transport.batch_size == 17
    assert cluster.executor(source_id)._emit_batch == 17


def test_signal_flushes_stateful_worker():
    from repro.workloads import word_count_topology
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1)
    config = TopologyConfig(max_spout_rate=2000)
    cluster.submit(word_count_topology("wc", config, splits=1, counts=1))
    engine.run(until=5.0)
    count = cluster.executors_for("wc", "count")[0]
    assert count.component.counts  # cache populated
    worker_id = count.worker_id
    # Quiesce the source so nothing refills the cache after the flush.
    cluster.deactivate("wc")
    engine.run(until=6.0)
    cluster.app.send_signal("wc", worker_id)
    engine.run(until=7.0)
    assert count.component.flushes == 1
    assert not count.component.counts  # cache cleared


def test_kill_topology_cleans_rules_and_ports():
    engine, cluster = run_chain(limit=None, until=3.0,
                                config=TopologyConfig(max_spout_rate=1000))
    cluster.kill_topology("chain")
    engine.run(until=5.0)
    assert cluster.app._installed.get("chain") is None
    # All worker ports removed from every switch.
    for fabric in cluster.fabric.hosts.values():
        worker_ports = [p for p in fabric.switch.ports.values()
                        if p.kind == "worker"]
        assert worker_ports == []


def test_crash_removes_port_and_triggers_port_status():
    crashed = []

    class CrashAt50(RecordingBolt):
        def execute(self, stream_tuple, collector):
            super().execute(stream_tuple, collector)
            if len(self.received) == 50 and not crashed:
                crashed.append(True)
                raise RuntimeError("boom")

    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1)
    builder = TopologyBuilder("crashy", TopologyConfig(max_spout_rate=500))
    builder.set_spout("source", lambda: CountingSpout(None), 1)
    builder.set_bolt("sink", CrashAt50, 1).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=10.0)
    # The supervisor restarted the worker and its port reappeared.
    record = cluster.manager.topologies["crashy"]
    sink_id = record.physical.worker_ids_for("sink")[0]
    assert sink_id in cluster.app.worker_host
    sink = cluster.executor(sink_id)
    assert sink is not None and sink.alive
    restarts = sum(a.restarts for a in cluster.manager.agents.values())
    assert restarts >= 1
