"""Unit tests for the network substrate: addresses, frames, hosts, TCP."""

import pytest
from hypothesis import given, strategies as st

from repro.net import (
    BROADCAST,
    CONTROLLER_ADDRESS,
    TYPHOON_ETHERTYPE,
    ChannelClosed,
    Cluster,
    EthernetFrame,
    FrameError,
    Host,
    TcpChannel,
    TcpTunnel,
    WorkerAddress,
)
from repro.sim import DEFAULT_COSTS, Engine


# -- addresses ----------------------------------------------------------------


def test_address_pack_unpack_roundtrip():
    address = WorkerAddress(7, 123456)
    assert WorkerAddress.unpack(address.pack()) == address
    assert len(address.pack()) == 6


@given(st.integers(0, 0xFFFF), st.integers(0, 0xFFFFFFFF))
def test_address_roundtrip_property(app_id, worker_id):
    address = WorkerAddress(app_id, worker_id)
    assert WorkerAddress.unpack(address.pack()) == address


def test_address_range_validation():
    with pytest.raises(ValueError):
        WorkerAddress(-1, 0)
    with pytest.raises(ValueError):
        WorkerAddress(0x10000, 0)
    with pytest.raises(ValueError):
        WorkerAddress(0, 2 ** 32)


def test_special_addresses():
    assert BROADCAST.is_broadcast
    assert not BROADCAST.is_controller
    assert CONTROLLER_ADDRESS.is_controller
    assert not CONTROLLER_ADDRESS.is_broadcast
    assert not WorkerAddress(1, 2).is_broadcast
    assert "broadcast" in str(BROADCAST)


# -- frames ------------------------------------------------------------------------


def test_frame_pack_unpack_roundtrip():
    frame = EthernetFrame(
        dst=WorkerAddress(1, 2), src=WorkerAddress(1, 3),
        ethertype=TYPHOON_ETHERTYPE, payload=b"hello world",
    )
    packed = frame.pack()
    assert len(packed) == 14 + 11
    unpacked = EthernetFrame.unpack(packed)
    assert unpacked == frame
    assert unpacked.is_typhoon


@given(st.binary(max_size=512))
def test_frame_payload_roundtrip_property(payload):
    frame = EthernetFrame(BROADCAST, WorkerAddress(9, 9), 0x0800, payload)
    assert EthernetFrame.unpack(frame.pack()).payload == payload
    # Tunnels size the frame object by len(): it must be the wire size.
    assert len(frame) == len(frame.pack())


def test_frame_too_short_rejected():
    with pytest.raises(FrameError):
        EthernetFrame.unpack(b"short")


def test_frame_with_dst_rewrite():
    frame = EthernetFrame(WorkerAddress(1, 2), WorkerAddress(1, 3),
                          TYPHOON_ETHERTYPE, b"p")
    rewritten = frame.with_dst(WorkerAddress(1, 9))
    assert rewritten.dst == WorkerAddress(1, 9)
    assert rewritten.src == frame.src
    assert rewritten.payload == frame.payload
    assert frame.dst == WorkerAddress(1, 2)  # original untouched


# -- hosts --------------------------------------------------------------------------


def test_cluster_of_size():
    cluster = Cluster.of_size(3)
    assert len(cluster) == 3
    assert cluster.names == ["host-0", "host-1", "host-2"]
    assert cluster.get("host-1") == Host("host-1")


def test_cluster_duplicate_rejected():
    cluster = Cluster([Host("a")])
    with pytest.raises(ValueError):
        cluster.add(Host("a"))


def test_cluster_requires_hosts():
    with pytest.raises(ValueError):
        Cluster.of_size(0)


# -- tcp ----------------------------------------------------------------------------------


def test_channel_delivers_in_order_with_latency():
    engine = Engine()
    received = []
    channel = TcpChannel(engine, DEFAULT_COSTS, received.append, remote=True)
    channel.send(b"one")
    channel.send(b"two" * 100000)  # large message; same FIFO
    channel.send(b"three")
    engine.run()
    assert received[0] == b"one"
    assert received[2] == b"three"
    assert channel.messages_sent == 3


def test_channel_fifo_despite_size_variation():
    engine = Engine()
    received = []
    channel = TcpChannel(engine, DEFAULT_COSTS, received.append, remote=True)
    channel.send(b"x" * 1_000_000)  # slow transmission
    channel.send(b"y")              # would overtake without FIFO clamp
    engine.run()
    assert received == [b"x" * 1_000_000, b"y"]


def test_channel_local_faster_than_remote():
    engine = Engine()
    times = []
    local = TcpChannel(engine, DEFAULT_COSTS,
                       lambda d: times.append(("local", engine.now)),
                       remote=False)
    remote = TcpChannel(engine, DEFAULT_COSTS,
                        lambda d: times.append(("remote", engine.now)),
                        remote=True)
    local.send(b"a")
    remote.send(b"a")
    engine.run()
    delays = dict(times)
    assert delays["local"] < delays["remote"]


def test_closed_channel_rejects_and_drops():
    engine = Engine()
    received = []
    channel = TcpChannel(engine, DEFAULT_COSTS, received.append, remote=False)
    channel.send(b"in-flight")
    channel.close()
    with pytest.raises(ChannelClosed):
        channel.send(b"after-close")
    engine.run()
    assert received == []  # in-flight dropped on close


def test_tunnel_bidirectional():
    engine = Engine()
    at_a, at_b = [], []
    tunnel = TcpTunnel(engine, DEFAULT_COSTS, "hostA", "hostB",
                       deliver_to_a=at_a.append, deliver_to_b=at_b.append)
    tunnel.send_from("hostA", b"to-b")
    tunnel.send_from("hostB", b"to-a")
    engine.run()
    assert at_b == [b"to-b"]
    assert at_a == [b"to-a"]
    assert tunnel.total_bytes == 8


def test_tunnel_rejects_foreign_host():
    engine = Engine()
    tunnel = TcpTunnel(engine, DEFAULT_COSTS, "a", "b",
                       deliver_to_a=lambda d: None,
                       deliver_to_b=lambda d: None)
    with pytest.raises(ValueError):
        tunnel.send_from("c", b"data")


def test_tunnel_same_endpoints_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        TcpTunnel(engine, DEFAULT_COSTS, "a", "a",
                  deliver_to_a=lambda d: None, deliver_to_b=lambda d: None)
