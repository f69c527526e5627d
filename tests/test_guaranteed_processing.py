"""End-to-end guaranteed processing under failures (§6.1's reliability
mechanism actually exercised: loss -> timeout -> replay -> completion)."""

import pytest

from repro.core import TyphoonCluster
from repro.sim import Engine
from repro.streaming import (
    ACKER_COMPONENT,
    AckerBolt,
    Bolt,
    Spout,
    StormCluster,
    TopologyBuilder,
    TopologyConfig,
    WorkerExecutor,
)
from repro.workloads import forwarding_topology


class ReplaySpout(Spout):
    """At-least-once source: un-acked tuples are replayed on fail()."""

    def __init__(self, total=200):
        self.total = total
        self.next_seq = 0
        self.replay_queue = []
        self.acked = set()
        self.failed_count = 0

    def next_tuple(self, collector):
        if self.replay_queue:
            seq = self.replay_queue.pop(0)
            collector.emit(("payload", seq), message_id=seq)
            return
        if self.next_seq < self.total:
            collector.emit(("payload", self.next_seq),
                           message_id=self.next_seq)
            self.next_seq += 1

    def ack(self, message_id):
        self.acked.add(message_id)

    def fail(self, message_id):
        self.failed_count += 1
        if message_id not in self.acked:
            self.replay_queue.append(message_id)


class DropOnceSink(Bolt):
    """Crashes once mid-stream: queued tuples die with the worker.

    ``seen`` is class-level so it spans the pre-crash instance and the
    supervisor-restarted replacement.
    """

    crashed = []
    seen = set()

    def execute(self, stream_tuple, collector):
        if not DropOnceSink.crashed and stream_tuple[1] == 50:
            DropOnceSink.crashed.append(True)
            raise RuntimeError("sink died")
        DropOnceSink.seen.add(stream_tuple[1])


@pytest.mark.parametrize("cluster_class", [StormCluster, TyphoonCluster])
def test_loss_triggers_timeout_and_replay_completes(cluster_class):
    DropOnceSink.crashed = []
    DropOnceSink.seen = set()
    engine = Engine()
    cluster = cluster_class(engine, num_hosts=1, seed=3)
    config = TopologyConfig(acking=True, num_ackers=1, tuple_timeout=3.0,
                            batch_size=10, max_spout_rate=200)
    builder = TopologyBuilder("reliable", config)
    spout = ReplaySpout(total=200)
    builder.set_spout("source", lambda: spout, 1, max_pending=20)
    builder.set_bolt("sink", DropOnceSink, 1).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=40.0)
    # The crash lost in-flight tuples; timeouts fired and they were
    # replayed, so every sequence number was eventually processed.
    assert spout.failed_count > 0
    assert DropOnceSink.seen == set(range(200))
    # And eventually every root completed (at-least-once delivery).
    assert spout.acked == set(range(200))


@pytest.mark.parametrize("cluster_class", [StormCluster, TyphoonCluster])
def test_no_failures_means_no_replays(cluster_class):
    engine = Engine()
    cluster = cluster_class(engine, num_hosts=1, seed=4)
    config = TopologyConfig(acking=True, num_ackers=1, tuple_timeout=5.0,
                            batch_size=10, max_spout_rate=500)
    builder = TopologyBuilder("clean", config)
    spout = ReplaySpout(total=300)

    class CountSink(Bolt):
        def __init__(self):
            self.count = 0

        def execute(self, stream_tuple, collector):
            self.count += 1

    builder.set_spout("source", lambda: spout, 1, max_pending=50)
    builder.set_bolt("sink", CountSink, 1).shuffle_grouping("source")
    cluster.submit(builder.build())
    engine.run(until=20.0)
    assert spout.failed_count == 0
    assert spout.acked == set(range(300))
    sink = cluster.executors_for("clean", "sink")[0]
    assert sink.component.count == 300  # exactly once when nothing fails


def test_traced_acker_crash_ends_its_delivery(monkeypatch):
    """Under tracing an acker that raises runs no further ``execute``
    in the delivery it crashed in, as on the untraced fused loop."""
    serial = [0]      # acker deliveries started so far
    current = [0, 0]  # (tuples in the current one, executes so far)
    calls = []        # serial of every acker execute
    raised = []
    process = WorkerExecutor._process_delivery
    execute = AckerBolt.execute

    def counting_process(self, delivery):
        if self.component_name == ACKER_COMPONENT:
            serial[0] += 1
            current[:] = [len(delivery.tuples), 0]
        return (yield from process(self, delivery))

    def faulty_execute(self, stream_tuple, collector):
        calls.append(serial[0])
        size, done = current
        current[1] = done + 1
        if not raised and done == 0 and size >= 3 and serial[0] > 5:
            raised.append(serial[0])
            raise RuntimeError("acker fault")
        return execute(self, stream_tuple, collector)

    monkeypatch.setattr(WorkerExecutor, "_process_delivery",
                        counting_process)
    monkeypatch.setattr(AckerBolt, "execute", faulty_execute)
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=1, seed=0)
    cluster.tracer.configure(3)
    cluster.submit(forwarding_topology("fwd", TopologyConfig(
        batch_size=20, acking=True, num_ackers=1, max_spout_rate=2000.0)))
    engine.run(until=3.0)
    assert raised, "no acker delivery of three or more tuples"
    assert calls.count(raised[0]) == 1
