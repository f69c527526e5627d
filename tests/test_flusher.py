"""The executor's batch flusher: it flushes partial batches every
``batch_flush_interval`` while anything is buffered, parks while nothing
is, and a send wakes it onto the tick grid it would have kept."""

import pytest

from repro.core import TyphoonCluster
from repro.core.audit import verify_conservation
from repro.core.io_layer import TyphoonFabric, TyphoonTransport
from repro.net import Cluster
from repro.sim import DEFAULT_COSTS, Engine, MetricsRegistry
from repro.sim.rng import SeedFactory
from repro.streaming import (
    Bolt,
    LogicalNode,
    Spout,
    StreamTuple,
    TopologyBuilder,
    TopologyConfig,
    WorkerAssignment,
    WorkerExecutor,
)
from repro.streaming.storm import StormTransport, WorkerRegistry
from repro.streaming.topology import BOLT

INTERVAL = DEFAULT_COSTS.batch_flush_interval


class _Sink(Bolt):
    def execute(self, stream_tuple, collector):
        pass


def _typhoon_transport(engine, attach=True):
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1))
    transport = TyphoonTransport(engine, DEFAULT_COSTS, 1, app_id=1,
                                 host_fabric=fabric.host("host-0"))
    if attach:
        transport.attach()
    return transport


def _storm_transport(engine):
    return StormTransport(engine, DEFAULT_COSTS, 1, "host-0",
                          WorkerRegistry())


TRANSPORTS = {"typhoon": _typhoon_transport, "storm": _storm_transport}


def start_worker(engine, transport):
    """Start a bolt worker on ``transport``; returns the ``(time,
    pending tuples)`` of every flush call the worker makes."""
    executor = WorkerExecutor(
        engine=engine, costs=DEFAULT_COSTS,
        assignment=WorkerAssignment(1, "sink", 0, "host-0"),
        node=LogicalNode("sink", BOLT, _Sink), config=TopologyConfig(),
        transport=transport, routers={}, metrics=MetricsRegistry(engine),
        rng=SeedFactory(0).rng("w"), topology_id="t",
    )
    flushes = []
    inner = transport.flush

    def flush():
        flushes.append((engine.now, transport.pending_tuples()))
        return inner()

    transport.flush = flush
    executor.start()
    return flushes


def step_until(engine, condition, step, limit=1.0):
    deadline = engine.now + limit
    while not condition():
        assert engine.now < deadline, "condition not reached"
        engine.run(until=engine.now + step)


def grid_tick(start, at_least):
    """The first tick >= ``at_least`` of a flusher that started at
    ``start``: ticks are successive ``tick + interval`` additions."""
    tick = start + INTERVAL
    while tick < at_least:
        tick += INTERVAL
    return tick


def _idle_window(kind, with_worker):
    """Flush calls and engine events over 10 vs after startup."""
    engine = Engine()
    transport = TRANSPORTS[kind](engine)
    flushes = start_worker(engine, transport) if with_worker else []
    engine.run(until=0.1)                      # worker start, port setup
    before = engine.stats()["events_executed"]
    engine.run(until=10.1)
    return flushes, engine.stats()["events_executed"] - before, transport


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_idle_worker_never_flushes_or_wakes(kind):
    flushes, events, transport = _idle_window(kind, with_worker=True)
    _, fabric_events, _ = _idle_window(kind, with_worker=False)
    # A ticking flusher makes 10,000 empty flushes over this window.
    assert flushes == []
    assert events == fabric_events             # the worker adds none
    assert transport.on_queue is not None      # armed, never fired


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_queued_tuple_leaves_at_next_grid_tick(kind):
    engine = Engine()
    transport = TRANSPORTS[kind](engine)
    flushes = start_worker(engine, transport)
    queued_at = 0.3337
    engine.run(until=queued_at)
    transport.send(StreamTuple(("x",)), [2])
    expected = grid_tick(0.0, queued_at)
    # The replayed sum, not a product of the interval, is the grid.
    assert expected != 334 * INTERVAL
    engine.run(until=queued_at + 0.01)
    assert flushes == [(expected, 1)]
    assert transport.on_queue is not None      # parked again


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_tuple_queued_at_a_tick_leaves_at_that_instant(kind):
    engine = Engine()
    transport = TRANSPORTS[kind](engine)
    flushes = start_worker(engine, transport)
    tick = grid_tick(0.0, 0.5)
    engine.run(until=tick)
    transport.send(StreamTuple(("x",)), [2])
    engine.run(until=tick + 0.01)
    assert flushes == [(tick, 1)]


def test_held_batch_keeps_ticking_until_attach():
    engine = Engine()
    transport = _typhoon_transport(engine, attach=False)
    flushes = start_worker(engine, transport)
    engine.run(until=0.0105)
    transport.send(StreamTuple(("x",)), [2])
    engine.run(until=0.0155)
    held = [grid_tick(0.0, 0.0105)]
    while len(held) < 5:
        held.append(held[-1] + INTERVAL)
    assert flushes == [(tick, 1) for tick in held]
    assert transport.frames_sent == 0
    transport.attach()
    engine.run(until=0.05)
    assert flushes[5:] == [(held[-1] + INTERVAL, 1)]
    assert transport.frames_sent == 1
    assert transport.pending_tuples() == 0


class _Numbers(Spout):
    def __init__(self):
        self.seq = 0

    def next_tuple(self, collector):
        collector.emit(("n", self.seq))
        self.seq += 1


class _Relay(Bolt):
    def __init__(self):
        self.crash = False

    def execute(self, stream_tuple, collector):
        if self.crash:
            raise RuntimeError("relay crashed")
        collector.emit(stream_tuple.values)


@pytest.mark.parametrize("stop, woken", [("kill", False), ("kill", True),
                                         ("crash", False)])
def test_worker_stopped_while_parked_never_flushes_again(stop, woken):
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    builder = TopologyBuilder("relay", TopologyConfig(batch_size=50,
                                                      max_spout_rate=50.0))
    builder.set_spout("source", _Numbers, 1)
    builder.set_bolt("relay", _Relay, 1).shuffle_grouping("source")
    builder.set_bolt("sink", _Sink, 1).shuffle_grouping("relay")
    cluster.submit(builder.build())
    engine.run(until=5.0)
    record = cluster.manager.topologies["relay"]
    (relay_id,) = record.physical.worker_ids_for("relay")
    (sink_id,) = record.physical.worker_ids_for("sink")
    executor = cluster.executors[relay_id]
    transport = cluster.transports[relay_id]
    assert executor.stats.emitted > 0
    step_until(engine, lambda: transport.on_queue is not None, 1e-4)
    wake = transport.on_queue
    flushes = []
    inner = transport.flush
    transport.flush = lambda: flushes.append(engine.now) or inner()
    if stop == "crash":
        executor.component.crash = True
        step_until(engine, lambda: not executor.alive, 1e-3)
        assert executor.stats.crashes == 1
    else:
        if woken:
            # The wake-up is scheduled; the kill lands before its tick.
            transport.send(StreamTuple(("late",)), [sink_id])
            assert transport.on_queue is None
        executor.kill()
        engine.run(until=engine.now + INTERVAL / 2)
    assert transport.closed and not executor.alive
    if not woken:
        assert transport.on_queue is wake      # parked until the end
        wake()                                  # as a send after close would
    engine.run(until=engine.now + 0.1)
    assert flushes == []
    assert transport.dropped_after_close == (1 if woken else 0)
    verify_conservation(cluster)
