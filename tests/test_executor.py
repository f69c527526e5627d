"""Focused unit tests for the worker executor (framework layer)."""

import pytest

from repro.sim import DEFAULT_COSTS, Engine, MetricsRegistry
from repro.sim.rng import SeedFactory
from repro.streaming import (
    Delivery,
    Grouping,
    LogicalNode,
    SHUFFLE,
    StreamTuple,
    Router,
    Transport,
    TopologyConfig,
    WorkerAssignment,
    WorkerExecutor,
    signal_tuple,
)
from repro.streaming.executor import (
    ACK_COMPLETE,
    ACK_FAIL,
    OutOfMemoryError,
    _PendingRoot,
)
from repro.streaming.replay import ReplayBuffer
from repro.streaming.topology import BOLT, SPOUT, Bolt, Spout
from repro.streaming.tuples import ACK_STREAM, CONTROL_STREAM


class FakeTransport(Transport):
    """Records sends; charges a fixed cost per call."""

    def __init__(self, cost=1e-6):
        self.cost = cost
        self.sent = []
        self.broadcasts = []
        self.flushes = 0
        self.closed = False
        self.batch_size = 100

    def send(self, stream_tuple, dst_worker_ids):
        self.sent.append((stream_tuple, list(dst_worker_ids)))
        return self.cost

    def send_broadcast(self, stream_tuple, dst_worker_ids):
        self.broadcasts.append((stream_tuple, list(dst_worker_ids)))
        return self.cost

    def send_offloaded(self, stream_tuple, edge_key, dst_worker_ids):
        return self.send(stream_tuple, dst_worker_ids[:1])

    def flush(self):
        self.flushes += 1
        return 0.0

    def set_batch_size(self, batch_size):
        self.batch_size = batch_size

    def close(self):
        self.closed = True


def build_executor(engine, component, kind=BOLT, config=None, routers=None,
                   control_handler=None, node_kwargs=None):
    node = LogicalNode("comp", kind, lambda: component,
                       **(node_kwargs or {}))
    transport = FakeTransport()
    executor = WorkerExecutor(
        engine=engine,
        costs=DEFAULT_COSTS,
        assignment=WorkerAssignment(worker_id=1, component="comp",
                                    task_index=0, hostname="h"),
        node=node,
        config=config or TopologyConfig(),
        transport=transport,
        routers=routers if routers is not None else {
            ("down", 0): Router(Grouping(SHUFFLE), [2, 3]),
        },
        metrics=MetricsRegistry(engine),
        rng=SeedFactory(1).rng("w"),
        topology_id="t",
        control_handler=control_handler,
    )
    return executor, transport


class Echo(Bolt):
    def execute(self, stream_tuple, collector):
        collector.emit(stream_tuple.values)


class Exploding(Bolt):
    def execute(self, stream_tuple, collector):
        raise RuntimeError("kaboom")


def test_bolt_processes_and_routes(engine):
    executor, transport = build_executor(engine, Echo())
    executor.start()
    executor.deliver(Delivery([StreamTuple(("a",)), StreamTuple(("b",))],
                              cost=1e-6))
    engine.run(until=1.0)
    assert executor.stats.processed == 2
    assert executor.stats.emitted == 2
    assert [dsts for _t, dsts in transport.sent] == [[2], [3]]  # shuffle


def test_bolt_crash_invokes_on_crash(engine):
    executor, transport = build_executor(engine, Exploding())
    crashes = []
    executor.on_crash = lambda ex, err: crashes.append(err)
    executor.start()
    executor.deliver(Delivery([StreamTuple(("x",))], cost=0))
    engine.run(until=1.0)
    assert len(crashes) == 1
    assert not executor.alive
    assert transport.closed
    assert executor.stats.crashes == 1


def test_crash_stops_processing_rest_of_batch(engine):
    class ExplodeOnSecond(Bolt):
        def __init__(self):
            self.seen = 0

        def execute(self, stream_tuple, collector):
            self.seen += 1
            if self.seen == 2:
                raise RuntimeError("second")

    bolt = ExplodeOnSecond()
    executor, _ = build_executor(engine, bolt)
    executor.on_crash = lambda ex, err: None
    executor.start()
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(5)], cost=0))
    engine.run(until=1.0)
    assert bolt.seen == 2  # tuples after the crash were not processed


def test_signal_tuples_reach_on_signal(engine):
    class Stateful(Bolt):
        def __init__(self):
            self.flushed = 0

        def execute(self, stream_tuple, collector):
            pass

        def on_signal(self, signal, collector):
            self.flushed += 1

    bolt = Stateful()
    executor, _ = build_executor(engine, bolt)
    executor.start()
    executor.deliver(Delivery([signal_tuple()], cost=0))
    engine.run(until=1.0)
    assert bolt.flushed == 1
    assert executor.stats.signals == 1
    assert executor.stats.processed == 0  # signals aren't data


def test_control_handler_hook(engine):
    seen = []

    def handler(executor, stream_tuple):
        seen.append(stream_tuple.values)
        return 0.0

    executor, _ = build_executor(engine, Echo(), control_handler=handler)
    executor.start()
    executor.deliver(Delivery(
        [StreamTuple(("ROUTING", 0, {}), stream=CONTROL_STREAM)], cost=0))
    engine.run(until=1.0)
    assert seen == [("ROUTING", 0, {})]
    assert executor.stats.control_tuples == 1


def test_control_without_handler_is_counted_and_ignored(engine):
    executor, _ = build_executor(engine, Echo())
    executor.start()
    executor.deliver(Delivery(
        [StreamTuple(("X", 0, {}), stream=CONTROL_STREAM)], cost=0))
    engine.run(until=1.0)
    assert executor.stats.control_tuples == 1
    assert executor.alive


def test_spout_respects_rate_limit(engine):
    class FastSpout(Spout):
        def next_tuple(self, collector):
            collector.emit(("t",))

    config = TopologyConfig(max_spout_rate=1000, batch_size=10)
    executor, transport = build_executor(engine, FastSpout(), kind=SPOUT,
                                         config=config)
    executor.start()
    engine.run(until=5.0)
    assert executor.stats.emitted == pytest.approx(5000, rel=0.05)


def test_spout_deactivation_blocks_emission(engine):
    class FastSpout(Spout):
        def next_tuple(self, collector):
            collector.emit(("t",))

    config = TopologyConfig(max_spout_rate=1000)
    executor, _ = build_executor(engine, FastSpout(), kind=SPOUT,
                                 config=config)
    executor.active = False
    executor.start()
    engine.run(until=2.0)
    assert executor.stats.emitted == 0


def test_drain_kill_processes_backlog(engine):
    executor, transport = build_executor(engine, Echo())
    executor.start()
    engine.run(until=0.1)
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(10)], cost=0))
    executor.kill(drain=True)
    engine.run(until=1.0)
    assert executor.stats.processed == 10
    assert not executor.alive
    assert transport.closed


def test_hard_kill_discards_backlog(engine):
    executor, _ = build_executor(engine, Echo())
    executor.start()
    engine.run(until=0.1)
    # First delivery is consumed immediately; the second sits in the
    # input queue and must be discarded by a hard kill.
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(10)],
                              cost=10.0))
    executor.deliver(Delivery([StreamTuple((i,)) for i in range(10)],
                              cost=0.0))
    executor.kill(drain=False)
    engine.run(until=20.0)
    assert not executor.alive
    assert executor.stats.processed == 10  # second delivery dropped


def test_oom_monitor_kills_over_limit(engine):
    config = TopologyConfig(enable_oom=True)
    costs = DEFAULT_COSTS.scaled(worker_memory_limit_bytes=1000,
                                 app_compute_per_tuple=1.0)  # slow worker
    node = LogicalNode("comp", BOLT, Echo)
    executor = WorkerExecutor(
        engine=engine, costs=costs,
        assignment=WorkerAssignment(1, "comp", 0, "h"),
        node=node, config=config, transport=FakeTransport(),
        routers={}, metrics=MetricsRegistry(engine),
        rng=SeedFactory(1).rng("w"), topology_id="t",
    )
    errors = []
    executor.on_crash = lambda ex, err: errors.append(err)
    executor.start()
    big = StreamTuple(("x" * 500,))
    for _ in range(10):
        executor.deliver(Delivery([big], cost=0))
    engine.run(until=5.0)
    assert errors and isinstance(errors[0], OutOfMemoryError)
    assert not executor.alive


def test_deliver_rejected_after_death(engine):
    executor, _ = build_executor(engine, Echo())
    executor.start()
    engine.run(until=0.1)
    executor.kill()
    engine.run(until=0.2)
    assert executor.deliver(Delivery([StreamTuple(("x",))], cost=0)) is False


def test_collector_charge_adds_cost(engine):
    class Expensive(Bolt):
        def execute(self, stream_tuple, collector):
            collector.charge(0.5)

    executor, _ = build_executor(engine, Expensive())
    executor.start()
    engine.run(until=0.01)
    executor.deliver(Delivery([StreamTuple(("x",))], cost=0))
    executor.deliver(Delivery([StreamTuple(("y",))], cost=0))
    # The first tuple's 0.5 s charge delays the second delivery.
    engine.run(until=0.45)
    assert executor.stats.processed == 1
    engine.run(until=0.60)
    assert executor.stats.processed == 2


def test_charge_negative_rejected(engine):
    executor, _ = build_executor(engine, Echo())
    with pytest.raises(ValueError):
        executor.collector.charge(-1.0)


# -- the spout completion loop ------------------------------------------------


class RecordingSpout(Spout):
    """Logs every ack/fail call; optionally raises from both."""

    def __init__(self, raising=False):
        self.calls = []
        self.raising = raising

    def next_tuple(self, collector):
        pass

    def ack(self, message_id):
        self.calls.append(("ack", message_id))
        if self.raising:
            raise RuntimeError("ack hook")

    def fail(self, message_id):
        self.calls.append(("fail", message_id))
        if self.raising:
            raise RuntimeError("fail hook")


def _acked_spout(raising, max_retries):
    """A spout executor at t=1 with roots 1000..1005 in flight, plus
    2000, a second root of message 0 (a replay emission). With
    ``max_retries`` set, a replay buffer allowing that many retries
    tracks every root."""
    engine = Engine()
    engine.run(until=1.0)
    spout = RecordingSpout(raising)
    executor = WorkerExecutor(
        engine=engine,
        costs=DEFAULT_COSTS,
        assignment=WorkerAssignment(worker_id=1, component="comp",
                                    task_index=0, hostname="h"),
        node=LogicalNode("comp", SPOUT, lambda: spout),
        config=TopologyConfig(acking=True),
        transport=FakeTransport(),
        routers={},
        metrics=MetricsRegistry(engine),
        rng=SeedFactory(1).rng("w"),
        topology_id="t",
        ackers=[9],
    )
    if max_retries is not None:
        executor.replay = ReplayBuffer(1, max_retries=max_retries)
    roots = [(1000 + i, i, 0.1 * i) for i in range(6)] + [(2000, 0, 0.7)]
    for root_id, message, emitted in roots:
        executor.pending_roots[root_id] = _PendingRoot(("m", message),
                                                       emitted)
        if executor.replay is not None:
            executor.replay.register_root(root_id, ("m", message),
                                          ("v", message), 0)
    return executor, spout


def _settle_one_by_one(executor, tuples, cost):
    """The per-tuple spout branch the completion loop replaced."""
    for stream_tuple in tuples:
        if stream_tuple.stream == CONTROL_STREAM:
            cost += executor._handle_control(stream_tuple)
            continue
        kind, root_id = stream_tuple.values[:2]
        pending = executor.pending_roots.pop(root_id, None)
        replay = executor.replay
        if kind == ACK_COMPLETE:
            if replay is not None:
                message_id, first = replay.on_complete(root_id)
                if first:
                    if pending is not None:
                        executor.latency_dist.record(
                            executor.engine.now - pending.emit_time)
                    try:
                        executor.component.ack(message_id)
                    except Exception:
                        pass
            elif pending is not None:
                executor.latency_dist.record(
                    executor.engine.now - pending.emit_time)
                try:
                    executor.component.ack(pending.message_id)
                except Exception:
                    pass
        else:
            assert kind == ACK_FAIL
            if pending is not None or (replay is not None
                                       and replay.has_root(root_id)):
                executor._fail_root(root_id, pending)
        cost += executor.costs.ack_per_tuple
    return cost


def _run_delivery(executor, delivery):
    process = executor._process_delivery(delivery)
    try:
        next(process)
    except StopIteration as done:
        return done.value
    raise AssertionError("delivery processing yielded")


def _ack_message(kind, root_id):
    return StreamTuple((kind, root_id, 0, -1), stream=ACK_STREAM,
                       source_worker=9)


@pytest.mark.parametrize("raising", [False, True])
@pytest.mark.parametrize("max_retries", [None, 0, 1])
def test_spout_completion_loop_matches_per_tuple_branch(raising,
                                                        max_retries):
    """One delivery mixing COMPLETE, FAIL, unknown roots, duplicates, a
    superseded root and a control tuple settles exactly as feeding the
    tuples one at a time through the old per-tuple branch: same cost
    (bit for bit), latency samples, failures, replay state and
    component calls."""
    tuples = [
        _ack_message(ACK_COMPLETE, 1000),
        _ack_message(ACK_FAIL, 1001),
        _ack_message(ACK_COMPLETE, 9999),     # unknown root
        _ack_message(ACK_COMPLETE, 1000),     # duplicate COMPLETE
        _ack_message(ACK_FAIL, 1001),         # duplicate FAIL
        StreamTuple(("noop",), stream=CONTROL_STREAM),
        _ack_message(ACK_FAIL, 8888),         # unknown root
        _ack_message(ACK_COMPLETE, 2000),     # message 0 again
        _ack_message(ACK_COMPLETE, 1002),
        _ack_message(ACK_FAIL, 1003),
        _ack_message(ACK_COMPLETE, 1003),     # after its FAIL
        _ack_message(ACK_COMPLETE, 1005),
    ]
    loop, loop_spout = _acked_spout(raising, max_retries)
    reference, reference_spout = _acked_spout(raising, max_retries)
    cost = _run_delivery(loop, Delivery(list(tuples), cost=0.25))
    assert cost == _settle_one_by_one(reference, tuples, 0.25)
    assert loop.latency_dist.samples() == reference.latency_dist.samples()
    assert loop.latency_dist.samples()
    assert loop.stats.failed == reference.stats.failed > 0
    assert loop.stats.control_tuples == reference.stats.control_tuples == 1
    assert loop_spout.calls == reference_spout.calls
    assert loop.pending_roots.keys() == reference.pending_roots.keys()
    assert loop.stats.crashes == 0
    if max_retries is not None:
        assert loop.replay.stats() == reference.replay.stats()
        due = [(entry.message_id, entry.attempts) for entry
               in loop.replay.take_due(100.0, 100)]
        assert due == [(entry.message_id, entry.attempts) for entry
                       in reference.replay.take_due(100.0, 100)]
