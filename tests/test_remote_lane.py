"""Frames cross host tunnels as frames: the remote fast lane.

``HostFabric`` hands its tunnel the ``EthernetFrame`` object, and the
peer fabric wraps the frame's fast-lane annotation in a claimed,
stream-less remote view. Remote receivers therefore clone the sender's
tuples instead of decoding the payload. These tests lock that every
fast-lane delivery, local or remote, is exactly the delivery a decode
of the payload would build, and that no data frame is decoded after it
crosses a tunnel.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

import repro.core.io_layer as io_layer
from repro.core import TyphoonCluster
from repro.core.io_layer import TyphoonTransport
from repro.core.packets import unpack_payload
from repro.sim import Engine
from repro.streaming import TopologyBuilder, TopologyConfig
from repro.streaming.serialize import decode_tuple, deserialize_cost
from repro.streaming.transport import Delivery, delivery_bytes
from repro.streaming.tuples import CONTROL_STREAM
from repro.workloads import broadcast_topology, forwarding_topology
from repro.workloads.chaosflow import ChaosSequenceSpout, RelayBolt
from repro.workloads.replicated import ReplicatedCountBolt
from tests.conftest import RecordingBolt


def _watch_fast_lane(monkeypatch) -> Dict[str, Any]:
    """Wrap ``TyphoonTransport._on_frame``: every frame the fast lane
    takes is also decoded from its payload, and the delivery the lane
    builds is compared with the decode walk's field for field (tuples,
    receive cost, store-sizer bytes)."""
    seen: Dict[str, Any] = {"lanes": [], "mismatches": []}
    original = TyphoonTransport._on_frame

    def on_frame(self, frame, tun_dst):
        if (frame.tuples is None or self.closed or self.deliver is None
                or self._live_tracer() is not None):
            return original(self, frame, tun_dst)
        costs = self.costs
        records = unpack_payload(frame.payload)
        expected = [decode_tuple(record) for record in records]
        cost = (costs.ring_op_per_packet + costs.depacketize_per_packet
                + len(frame) * costs.depacketize_per_byte
                + costs.jni_call_overhead)
        for record in records:
            cost += deserialize_cost(costs, len(record))
        cost += self._pending_recv_cost
        captured: List[Delivery] = []
        inner = self.deliver
        self.deliver = lambda delivery: (captured.append(delivery)
                                         or inner(delivery))
        try:
            original(self, frame, tun_dst)
        finally:
            self.deliver = inner
        (delivery,) = captured
        seen["lanes"].append((frame.src.worker_id, self.worker_id,
                              self.fabric.hostname, delivery))
        reference = Delivery(tuples=expected, cost=cost)
        if (delivery.tuples != expected or delivery.cost != cost
                or delivery.nbytes != delivery_bytes(reference)):
            seen["mismatches"].append((self.worker_id, delivery, reference))

    monkeypatch.setattr(TyphoonTransport, "_on_frame", on_frame)
    return seen


def _run(topology, until: float) -> TyphoonCluster:
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=0)
    cluster.submit(topology)
    engine.run(until=until)
    return cluster


def _split_by_host(cluster, lanes):
    local, remote = [], []
    for src_id, _dst_id, hostname, delivery in lanes:
        sender = cluster.transports[src_id].fabric.hostname
        (local if sender == hostname else remote).append(delivery)
    return local, remote


def _broadcast_k4():
    return broadcast_topology("bc", 4, TopologyConfig(
        batch_size=100, max_spout_rate=20000.0))


def _acked_forwarding():
    return forwarding_topology("fwd", TopologyConfig(
        batch_size=100, acking=True, num_ackers=1, max_spout_rate=20000.0))


def _sequenced_relay():
    """relay -> plain (shuffle, declared first) and relay -> r
    (replicated): the sequencer stamps tuples another edge has queued."""
    builder = TopologyBuilder("seqrelay", TopologyConfig(
        batch_size=50, max_spout_rate=400.0))
    builder.set_spout("source", ChaosSequenceSpout, 1)
    builder.set_bolt("relay", RelayBolt, 1).shuffle_grouping("source")
    builder.set_bolt("plain", RecordingBolt, 1).shuffle_grouping("relay")
    builder.set_bolt("r", ReplicatedCountBolt, stateful=True,
                     replicas=2).global_grouping("relay")
    return builder.build()


@pytest.mark.parametrize("build, until", [
    (_broadcast_k4, 2.2),
    (_acked_forwarding, 2.6),
    (_sequenced_relay, 4.0),
], ids=["bcast-k4", "fwd-acked-remote", "sequenced-relay"])
def test_fast_lane_delivery_equals_payload_decode(monkeypatch, build, until):
    seen = _watch_fast_lane(monkeypatch)
    cluster = _run(build(), until)
    assert seen["mismatches"] == []
    local, remote = _split_by_host(cluster, seen["lanes"])
    assert local and remote


def test_data_frames_crossing_a_tunnel_are_never_decoded(monkeypatch):
    decoded_streams: List[int] = []

    def recording_decode(data):
        stream_tuple = decode_tuple(data)
        decoded_streams.append(stream_tuple.stream)
        return stream_tuple

    monkeypatch.setattr(io_layer, "decode_tuple", recording_decode)
    cluster = _run(_broadcast_k4(), 2.2)
    source_host = cluster.executors_for("bc", "source")[0].transport \
        .fabric.hostname
    remote_sinks = [executor for executor in
                    cluster.executors_for("bc", "sink")
                    if executor.transport.fabric.hostname != source_host]
    assert remote_sinks
    assert all(executor.stats.processed > 0 for executor in remote_sinks)
    assert decoded_streams
    assert set(decoded_streams) == {CONTROL_STREAM}


def test_remote_deliveries_have_no_stream_and_share_no_tuple(monkeypatch):
    seen = _watch_fast_lane(monkeypatch)
    cluster = _run(_broadcast_k4(), 2.2)
    local, remote = _split_by_host(cluster, seen["lanes"])
    assert remote and all(d.stream is None for d in remote)
    # Local deliveries of a train keep their stream hint.
    assert any(d.stream is not None for d in local)
    # Hold every delivered tuple so ids stay unique while compared.
    delivered = [stream_tuple for _src, _dst, _host, delivery
                 in seen["lanes"] for stream_tuple in delivery.tuples]
    assert len({id(stream_tuple) for stream_tuple in delivered}) \
        == len(delivered)
