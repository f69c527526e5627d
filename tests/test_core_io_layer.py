"""Unit tests for the Typhoon I/O layer and fabric."""

import pytest

from repro.core.io_layer import HostFabric, TyphoonFabric, TyphoonTransport
from repro.net import BROADCAST, Cluster, EthernetFrame, TYPHOON_ETHERTYPE, WorkerAddress
from repro.sdn import ADD, FlowMod, Match, Output, SetTunnelDst
from repro.sim import DEFAULT_COSTS, Engine
from repro.sim.audit import DeliveryLedger
from repro.streaming import StreamTuple


@pytest.fixture
def fabric(engine):
    return TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(2))


def make_transport(engine, fabric, worker_id, host="host-0", batch=10):
    transport = TyphoonTransport(engine, DEFAULT_COSTS, worker_id, app_id=1,
                                 host_fabric=fabric.host(host),
                                 batch_size=batch)
    received = []
    transport.deliver = lambda delivery: received.append(delivery) or True
    transport.attach()
    return transport, received


def install_unicast(fabric, host, src_port, src_id, dst_id, dst_port):
    switch = fabric.host(host).switch
    switch.handle_message(FlowMod(ADD, Match(
        in_port=src_port, dl_src=WorkerAddress(1, src_id),
        dl_dst=WorkerAddress(1, dst_id), ether_type=TYPHOON_ETHERTYPE,
    ), (Output(dst_port),)))


def test_fabric_builds_full_tunnel_mesh(engine):
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(3))
    for name, host in fabric.hosts.items():
        assert set(host.tunnels) == {other for other in fabric.hosts
                                     if other != name}
    assert len(fabric.switches()) == 3


def test_local_send_and_receive_roundtrip(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=2)
    receiver, received = make_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    cost = sender.send(StreamTuple(("hello", 1)), [2])
    cost += sender.send(StreamTuple(("world", 2)), [2])  # fills batch of 2
    assert cost > 0
    engine.run(until=0.05)
    assert len(received) == 1
    tuples = received[0].tuples
    assert [t.values for t in tuples] == [("hello", 1), ("world", 2)]
    assert received[0].cost > 0


def test_remote_send_via_tunnel(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, host="host-0", batch=1)
    receiver, received = make_transport(engine, fabric, 2, host="host-1")
    switch0 = fabric.host("host-0").switch
    switch0.handle_message(FlowMod(ADD, Match(
        in_port=sender.port_no, dl_src=WorkerAddress(1, 1),
        dl_dst=WorkerAddress(1, 2), ether_type=TYPHOON_ETHERTYPE,
    ), (SetTunnelDst("host-1"), Output(fabric.host("host-0").tunnel_port))))
    switch1 = fabric.host("host-1").switch
    switch1.handle_message(FlowMod(ADD, Match(
        in_port=fabric.host("host-1").tunnel_port,
        dl_src=WorkerAddress(1, 1), dl_dst=WorkerAddress(1, 2),
    ), (Output(receiver.port_no),)))
    engine.run(until=0.01)
    sender.send(StreamTuple(("remote",)), [2])
    engine.run(until=0.05)
    assert len(received) == 1
    assert received[0].tuples[0].values == ("remote",)
    assert fabric.host("host-0").tunnels["host-1"].total_bytes > 0


def test_serialize_once_for_multiple_destinations(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=100)
    sender.send(StreamTuple(("multi",)), [2, 3, 4])
    assert sender.serializations == 1
    assert sender.tuples_sent == 3  # one buffered copy per destination


def test_broadcast_uses_broadcast_address(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1)
    receivers = []
    for worker_id in (2, 3):
        _transport, received = make_transport(engine, fabric, worker_id)
        receivers.append(received)
    switch = fabric.host("host-0").switch
    ports = [switch.port_by_name("w2").number,
             switch.port_by_name("w3").number]
    switch.handle_message(FlowMod(ADD, Match(
        in_port=sender.port_no, dl_dst=BROADCAST,
        ether_type=TYPHOON_ETHERTYPE,
    ), tuple(Output(p) for p in ports)))
    engine.run(until=0.01)
    sender.send_broadcast(StreamTuple(("fanout",)), [2, 3])
    engine.run(until=0.05)
    assert sender.serializations == 1
    assert all(len(received) == 1 for received in receivers)


def test_large_tuple_segmentation_end_to_end(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1)
    receiver, received = make_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    payload = "y" * 30000  # far beyond the MTU
    sender.send(StreamTuple((payload,)), [2])
    assert sender.frames_sent > 1  # fragmented
    engine.run(until=0.05)
    assert len(received) == 1
    assert received[0].tuples[0].values == (payload,)


def test_flush_sends_partial_batches(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    receiver, received = make_transport(engine, fabric, 2)
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    sender.send(StreamTuple(("partial",)), [2])
    assert sender.frames_sent == 0  # buffered
    cost = sender.flush()
    assert cost > 0
    assert sender.frames_sent == 1
    engine.run(until=0.05)
    assert len(received) == 1


def test_close_removes_port_and_drops_sends(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1, batch=1)
    port = sender.port_no
    sender.close()
    assert port not in fabric.host("host-0").switch.ports
    assert sender.send(StreamTuple(("late",)), [2]) == 0.0
    sender.close()  # idempotent


def test_send_to_controller_flushes_immediately(engine, fabric):
    events = []
    fabric.host("host-0").switch.connect_controller(events.append)
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    from repro.core import rules
    match, actions = rules.worker_to_controller(sender.port_no)
    fabric.host("host-0").switch.handle_message(
        FlowMod(ADD, match, actions, priority=rules.PRIORITY_CONTROL))
    engine.run(until=0.01)
    sender.send_to_controller(StreamTuple(("stats", 1)))
    engine.run(until=0.05)
    packet_ins = [e for e in events if type(e).__name__ == "PacketIn"]
    assert len(packet_ins) == 1


def test_tunnel_to_unknown_peer_counts_drop(engine, fabric):
    host = fabric.host("host-0")
    frame = EthernetFrame(WorkerAddress(1, 2), WorkerAddress(1, 1),
                          TYPHOON_ETHERTYPE, b"x")
    host._tunnel_sink(frame, None)
    host._tunnel_sink(frame, "no-such-host")
    assert host.tunnel_drops == 2


def test_set_batch_size_floor(engine, fabric):
    sender, _ = make_transport(engine, fabric, 1)
    sender.set_batch_size(0)
    assert sender.batch_size == 1
    sender.set_batch_size(64)
    assert sender.batch_size == 64


def _fragment_frames(src, dst, data, mtu=1500):
    from repro.core.packets import pack_tuples

    payloads, _ = pack_tuples([data], mtu)
    assert len(payloads) > 1
    return [EthernetFrame(dst=dst, src=src, ethertype=TYPHOON_ETHERTYPE,
                          payload=payload) for payload in payloads]


def test_cross_topology_fragments_do_not_collide(engine, fabric):
    """Same worker id, same frag ids, *different applications*: the
    reassembler must keep the two streams apart (it is keyed by
    (app_id, worker_id), not worker id alone)."""
    from repro.streaming.serialize import encode_tuple

    receiver, received = make_transport(engine, fabric, 9)
    data_a = encode_tuple(StreamTuple(("a" * 4000,)))
    data_b = encode_tuple(StreamTuple(("b" * 4000,)))
    frames_a = _fragment_frames(WorkerAddress(1, 5), receiver.address, data_a)
    frames_b = _fragment_frames(WorkerAddress(2, 5), receiver.address, data_b)
    # Interleave fragment-for-fragment: identical frag_id=0 on both.
    for frame_a, frame_b in zip(frames_a, frames_b):
        receiver._on_frame(frame_a, None)
        receiver._on_frame(frame_b, None)
    assert len(received) == 2
    values = sorted(d.tuples[0].values[0][0] for d in received)
    assert values == ["a", "b"]
    assert receiver._reassembler.dropped == 0


def test_reassembly_eviction_is_counted_in_ledger(engine):
    from repro.sim.audit import R_REASSEMBLY_EVICTED
    from repro.streaming.serialize import encode_tuple

    ledger = DeliveryLedger()
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1),
                           ledger=ledger)
    receiver, received = make_transport(engine, fabric, 9)
    receiver._reassembler.max_pending = 2
    # Three concurrent partial tuples from three different apps: starting
    # the third must evict only the oldest (app 1), not wipe the table.
    heads = {}
    for app_id in (1, 2, 3):
        data = encode_tuple(StreamTuple(("z" * 4000, app_id)))
        heads[app_id] = _fragment_frames(WorkerAddress(app_id, 5),
                                         receiver.address, data)
    for app_id in (1, 2, 3):
        receiver._on_frame(heads[app_id][0], None)
    assert receiver._reassembler.evictions == 1
    assert receiver._reassembler.pending_count == 2
    assert ledger.drops == {(1, "reassembly", R_REASSEMBLY_EVICTED): 1}
    # The survivors still complete.
    for app_id in (2, 3):
        for frame in heads[app_id][1:]:
            receiver._on_frame(frame, None)
    assert len(received) == 2
    assert receiver.pending_reassembly == 0


def test_offloaded_round_robin_is_fair_per_edge(engine, fabric):
    """Two offloaded edges sharing one transport must each see an even
    round robin — a shared counter would skew both distributions."""
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    destinations = [2, 3]
    picks = {"edge-a": [], "edge-b": []}
    original_send = sender.send

    def spy(stream_tuple, dst_worker_ids):
        spy.last = list(dst_worker_ids)
        return original_send(stream_tuple, dst_worker_ids)

    sender.send = spy
    for i in range(4):
        # Interleave the two edges the way a worker feeding two
        # downstream components would.
        sender.send_offloaded(StreamTuple(("t", i)), "edge-a", destinations)
        picks["edge-a"].append(spy.last[0])
        sender.send_offloaded(StreamTuple(("t", i)), "edge-b", destinations)
        picks["edge-b"].append(spy.last[0])
    assert picks["edge-a"] == [2, 3, 2, 3]
    assert picks["edge-b"] == [2, 3, 2, 3]


def test_detached_live_transport_holds_buffer(engine, fabric):
    """A live transport that is (temporarily) not attached to a switch
    port must *hold* buffered tuples for the retry after re-attach —
    only a closed transport may discard."""
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    receiver, received = make_transport(engine, fabric, 2)
    sender.send(StreamTuple(("early",)), [2])
    # Detach (fault/migration window) without closing.
    sender.switch.remove_port(sender.port_no)
    sender.port_no = None
    assert sender.flush() == 0.0
    assert sender.pending_tuples() == 1
    assert sender.dropped_after_close == 0
    # Re-attach: the held batch goes out on the next flush.
    sender.attach()
    install_unicast(fabric, "host-0", sender.port_no, 1, 2, receiver.port_no)
    engine.run(until=0.01)
    assert sender.flush() > 0
    engine.run(until=0.05)
    assert len(received) == 1
    assert received[0].tuples[0].values == ("early",)


def test_close_drains_buffers_and_reassembly_into_ledger(engine):
    from repro.sim.audit import R_AFTER_CLOSE, R_PENDING_AT_CLOSE
    from repro.streaming.serialize import encode_tuple

    ledger = DeliveryLedger()
    fabric = TyphoonFabric(engine, DEFAULT_COSTS, Cluster.of_size(1),
                           ledger=ledger)
    sender, _ = make_transport(engine, fabric, 1, batch=1000)
    sender.send(StreamTuple(("stuck",)), [2])
    data = encode_tuple(StreamTuple(("w" * 4000,)))
    head = _fragment_frames(WorkerAddress(2, 7), sender.address, data)[0]
    sender._on_frame(head, None)
    assert sender.pending_reassembly == 1
    sender.close()
    assert sender.dropped_after_close == 1
    assert sender.pending_tuples() == 0
    assert sender.pending_reassembly == 0
    assert ledger.drops == {
        (1, "transport", R_AFTER_CLOSE): 1,
        (2, "reassembly", R_PENDING_AT_CLOSE): 1,
    }


# -- one train sender: delegation equivalences --------------------------------


class _CaptureSwitch:
    """Stands in for the host switch: records every injected frame."""

    def __init__(self):
        self.frames = []

    def add_port(self, name, deliver, kind=None):
        return 1

    def remove_port(self, port_no):
        pass

    def inject(self, port_no, frame):
        self.frames.append(frame)

    def inject_train(self, port_no, frames):
        self.frames.extend(frames)


class _CaptureFabric:
    def __init__(self):
        self.switch = _CaptureSwitch()
        self.ledger = DeliveryLedger()
        self.tracer = None


def _capturing_transport(engine, batch):
    fabric = _CaptureFabric()
    transport = TyphoonTransport(engine, DEFAULT_COSTS, 1, app_id=1,
                                 host_fabric=fabric, batch_size=batch)
    transport.attach()
    return transport, fabric


def _stamped_batch(kind):
    batch = []
    for i in range(8):
        # One container value: its batch window rides without objects.
        values = ("w%d" % i, [i]) if i == 4 else ("w%d" % i, i)
        stamp = {"seq": (2, i)} if kind == "seq" else {"trace_id": 100 + i}
        batch.append(StreamTuple(values, stream=4, source_component="spout",
                                 source_worker=1, **stamp))
    return batch


def _frame_view(frame):
    annotation = frame.tuples
    view = (frame.dst, frame.src, frame.ethertype, frame.payload)
    if annotation is None:
        return view + (None,)
    window = slice(annotation.start, annotation.end)
    return view + ((
        [t.values for t in annotation.objs[window]],
        annotation.rlens[window], annotation.stream, annotation.est,
        annotation.released),)


@pytest.mark.parametrize("kind", ["seq", "trace"])
def test_stamped_broadcast_batch_equals_per_tuple_broadcasts(engine, kind):
    """A stamped batch refuses train encoding; the batched broadcast
    then replays per-tuple ``send_broadcast`` with the same ``cost +=
    pre_cost`` interleaving: same frames, same cost float, same
    counters."""
    pre_cost = 3.7e-7
    batched, batched_fabric = _capturing_transport(engine, batch=3)
    cost_batched = batched.send_broadcast_interleaved(
        _stamped_batch(kind), [2, 3], pre_cost, 0.125)
    single, single_fabric = _capturing_transport(engine, batch=3)
    cost_single = 0.125
    for stream_tuple in _stamped_batch(kind):
        cost_single += pre_cost
        cost_single += single.send_broadcast(stream_tuple, [2, 3])
    assert cost_batched.hex() == cost_single.hex()
    assert batched.flush().hex() == single.flush().hex()
    frames = [_frame_view(f) for f in batched_fabric.switch.frames]
    assert frames == [_frame_view(f) for f in single_fabric.switch.frames]
    assert all(frame[0] == BROADCAST for frame in frames)
    assert [frame[4] is None for frame in frames] == [False, True, False]
    for name in ("tuples_sent", "serializations", "frames_sent"):
        assert getattr(batched, name) == getattr(single, name)
    assert batched_fabric.ledger.sent == single_fabric.ledger.sent == {1: 8}


def test_mixed_frame_first_delivery_adopts_released_train(engine):
    """One flushed frame holding a released train chunk plus a per-tuple
    record: the first local delivery adopts the chunk's objects by
    identity and clones the per-tuple one; a replicated second delivery
    clones every tuple."""
    sender, fabric = _capturing_transport(engine, batch=100)
    train = [StreamTuple(("a", 1), source_component="spout",
                         source_worker=1),
             StreamTuple(("b", 2), source_component="spout",
                         source_worker=1)]
    single = StreamTuple(("c", 3), source_component="spout",
                         source_worker=1)
    sender.send_many(train, 2)
    sender.send(single, [2])
    sender.flush()
    (frame,) = fabric.switch.frames
    assert not frame.tuples.released

    deliveries = []
    receiver = TyphoonTransport(engine, DEFAULT_COSTS, 2, app_id=1,
                                host_fabric=_CaptureFabric())
    receiver.deliver = lambda delivery: deliveries.append(delivery) or True
    receiver._on_frame(frame, None)
    receiver._on_frame(frame.with_dst(WorkerAddress(1, 3)), None)
    first, second = deliveries
    assert first.tuples[0] is train[0] and first.tuples[1] is train[1]
    assert first.tuples[2] is not single
    assert not any(t is o for t in second.tuples for o in train + [single])
    for delivery in deliveries:
        assert [t.values for t in delivery.tuples] == [("a", 1), ("b", 2),
                                                       ("c", 3)]
        assert all(t.source_component == "" for t in delivery.tuples)
    assert first.cost.hex() == second.cost.hex()
    assert first.nbytes == second.nbytes


def test_mixed_length_train_takes_the_per_record_walk(engine):
    """Word-count words have many record lengths, so neither end of the
    train folds: the send side walks each flush-delimited run and the
    receive side each window, and both costs equal the per-tuple path's
    (per-tuple sends; the decode walk of the same payloads) bit for
    bit."""
    words = ("the cow jumped over the moon and the dish ran away with "
             "the spoon while a little dog laughed to see such sport").split()
    pre_cost = DEFAULT_COSTS.app_compute_per_tuple

    def batch():
        return [StreamTuple((word, 1), source_component="split",
                            source_worker=1) for word in words]

    batched, fabric = _capturing_transport(engine, batch=8)
    cost = batched.send_interleaved(batch(), 2, pre_cost, 0.25)
    single, _ = _capturing_transport(engine, batch=8)
    expected = 0.25
    for stream_tuple in batch():
        expected += pre_cost
        expected += single.send(stream_tuple, [2])
    assert cost.hex() == expected.hex()
    assert batched.flush().hex() == single.flush().hex()
    assert (batched.send_fold.hits, batched.send_fold.misses) == (0, 0)

    def receiver():
        deliveries = []
        transport = TyphoonTransport(engine, DEFAULT_COSTS, 2, app_id=1,
                                     host_fabric=_CaptureFabric())
        transport.deliver = lambda delivery: deliveries.append(delivery) \
            or True
        return transport, deliveries

    lane, laned = receiver()
    walk, walked = receiver()
    frames = fabric.switch.frames
    assert len(frames) == 3
    for frame in frames:
        assert frame.tuples is not None and frame.tuples.rlen is None
        lane._on_frame(frame, None)
        walk._on_frame(EthernetFrame(dst=frame.dst, src=frame.src,
                                     ethertype=frame.ethertype,
                                     payload=frame.payload), None)
    assert [d.cost.hex() for d in laned] == [d.cost.hex() for d in walked]
    assert [[t.values for t in d.tuples] for d in laned] \
        == [[t.values for t in d.tuples] for d in walked]
    assert (lane.recv_fold.hits, lane.recv_fold.misses) == (0, 0)
