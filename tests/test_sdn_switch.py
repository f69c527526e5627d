"""Tests for the software SDN switch: forwarding by its flow rules, and
delivery through rule, group and port changes and chaos on a cluster."""

import pytest

from repro.core import TyphoonCluster
from repro.core.apps import LiveDebugger
from repro.net import BROADCAST, TYPHOON_ETHERTYPE, EthernetFrame, WorkerAddress
from repro.sdn import (
    ADD,
    DELETE,
    DELETE_STRICT,
    GROUP_ALL,
    FlowMod,
    FlowStatsRequest,
    GroupMod,
    Match,
    Output,
    PacketOut,
    PortStatsRequest,
    PortStatus,
    SetDlDst,
    SetTunnelDst,
    SoftwareSwitch,
    GroupAction,
    Bucket,
    OFPP_CONTROLLER,
    OFPP_TABLE,
)
from repro.sim import DEFAULT_COSTS, Engine
from repro.sim.faults import set_controller_down, set_switch_down
from repro.streaming import TopologyConfig
from repro.workloads import forwarding_topology

from tests.conftest import simple_chain

W1 = WorkerAddress(1, 1)
W2 = WorkerAddress(1, 2)


def make_switch(engine):
    return SoftwareSwitch(engine, DEFAULT_COSTS, dpid="sw0")


def typhoon_frame(src, dst, payload=b"data"):
    return EthernetFrame(dst=dst, src=src, ethertype=TYPHOON_ETHERTYPE,
                         payload=payload)


def test_port_add_and_deliver():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2))
    assert switch.inject(p_in, frame)
    engine.run(until=0.02)
    assert received == [frame]
    assert switch.packets_forwarded == 1


def test_table_miss_drops():
    engine = Engine()
    switch = make_switch(engine)
    p_in = switch.add_port("w1", lambda f, t: None)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2))
    assert not switch.inject(p_in, frame)
    assert switch.table_misses == 1


def test_flow_mod_delete():
    engine = Engine()
    switch = make_switch(engine)
    p1 = switch.add_port("w1", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p1), (Output(p1),)))
    engine.run(until=0.01)
    assert len(switch.flows) == 1
    switch.handle_message(FlowMod(DELETE, Match(in_port=p1)))
    engine.run(until=0.02)
    assert len(switch.flows) == 0


def test_broadcast_replication_to_multiple_ports():
    engine = Engine()
    switch = make_switch(engine)
    outs = {2: [], 3: [], 4: []}
    p_in = switch.add_port("w1", lambda f, t: None)
    ports = [switch.add_port("w%d" % i,
                             (lambda i: lambda f, t: outs[i].append(f))(i))
             for i in (2, 3, 4)]
    switch.handle_message(FlowMod(
        ADD, Match(in_port=p_in, dl_dst=BROADCAST),
        tuple(Output(p) for p in ports)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), BROADCAST)
    switch.inject(p_in, frame)
    engine.run(until=0.02)
    assert all(len(received) == 1 for received in outs.values())


def test_set_tunnel_dst_passes_metadata():
    engine = Engine()
    switch = make_switch(engine)
    seen = []
    p_in = switch.add_port("w1", lambda f, t: None)
    tunnel = switch.add_port("tunnel", lambda f, t: seen.append((f, t)),
                             kind="tunnel")
    switch.handle_message(FlowMod(
        ADD, Match(in_port=p_in),
        (SetTunnelDst("peer-host"), Output(tunnel))))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    assert seen[0][1] == "peer-host"


def test_set_dl_dst_rewrites_destination():
    engine = Engine()
    switch = make_switch(engine)
    seen = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: seen.append(f))
    switch.handle_message(FlowMod(
        ADD, Match(in_port=p_in),
        (SetDlDst(WorkerAddress(1, 99)), Output(p_out))))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    assert seen[0].dst == WorkerAddress(1, 99)


def test_group_action_select_rewrite():
    engine = Engine()
    switch = make_switch(engine)
    seen = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p2 = switch.add_port("w2", lambda f, t: seen.append(("w2", f.dst)))
    p3 = switch.add_port("w3", lambda f, t: seen.append(("w3", f.dst)))
    switch.handle_message(GroupMod(ADD, 1, "select", (
        Bucket((SetDlDst(WorkerAddress(1, 2)), Output(p2))),
        Bucket((SetDlDst(WorkerAddress(1, 3)), Output(p3))),
    )))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in),
                                  (GroupAction(1),)))
    engine.run(until=0.01)
    for _ in range(4):
        switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1),
                                          WorkerAddress(1, 0xE0000000)))
    engine.run(until=0.02)
    names = [name for name, _dst in seen]
    assert names.count("w2") == 2
    assert names.count("w3") == 2
    # Destination addresses were rewritten to the real workers.
    assert all(dst in (WorkerAddress(1, 2), WorkerAddress(1, 3))
               for _n, dst in seen)


def test_output_to_controller_packet_in():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in),
                                  (Output(OFPP_CONTROLLER),)))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.05)
    packet_ins = [e for e in events if type(e).__name__ == "PacketIn"]
    assert len(packet_ins) == 1
    assert packet_ins[0].in_port == p_in


def test_packet_out_with_table_resubmit():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_out = switch.add_port("w1", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(
        ADD, Match(in_port=OFPP_CONTROLLER), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 1))
    switch.handle_message(PacketOut(frame, (Output(OFPP_TABLE),),
                                    in_port=OFPP_CONTROLLER))
    engine.run(until=0.02)
    assert received == [frame]


def test_port_status_events_reach_controller():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    port = switch.add_port("w5", lambda f, t: None)
    switch.remove_port(port)
    engine.run(until=1.0)
    status = [e for e in events if isinstance(e, PortStatus)]
    assert [s.reason for s in status] == ["add", "delete"]
    assert all(s.port_name == "w5" for s in status)


def test_output_to_removed_port_drops():
    engine = Engine()
    switch = make_switch(engine)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    switch.remove_port(p_out)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    assert switch.packets_dropped == 1


def test_backlog_overflow_drops():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2),
                          payload=b"x" * 8000)
    # Inject far more than the switch can forward instantaneously.
    injected = sum(switch.inject(p_in, frame) for _ in range(100000))
    assert switch.packets_dropped > 0
    assert injected < 100000


def test_flow_and_port_stats_replies():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(WorkerAddress(1, 1), WorkerAddress(1, 2)))
    engine.run(until=0.02)
    switch.handle_message(FlowStatsRequest(Match()))
    switch.handle_message(PortStatsRequest())
    engine.run(until=0.05)
    flow_replies = [e for e in events if type(e).__name__ == "FlowStatsReply"]
    port_replies = [e for e in events if type(e).__name__ == "PortStatsReply"]
    assert flow_replies[0].entries[0].packets == 1
    stats_by_name = {e.port_name: e for e in port_replies[0].entries}
    assert stats_by_name["w1"].rx_packets == 1
    assert stats_by_name["w2"].tx_packets == 1


def test_idle_timeout_sweeper_emits_flow_removed():
    engine = Engine()
    switch = make_switch(engine)
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_in),),
                                  idle_timeout=2.0))
    engine.run(until=5.0)
    removed = [e for e in events if type(e).__name__ == "FlowRemoved"]
    assert len(removed) == 1
    assert removed[0].reason == "idle_timeout"
    assert len(switch.flows) == 0


def test_flow_counters_count_every_frame():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    frame = typhoon_frame(W1, W2)
    for _ in range(5):
        assert switch.inject(p_in, frame)
    engine.run(until=0.05)
    assert len(received) == 5
    switch.handle_message(FlowStatsRequest(Match()))
    engine.run(until=0.1)
    (reply,) = [e for e in events if type(e).__name__ == "FlowStatsReply"]
    (stats,) = reply.entries
    assert stats.packets == 5
    assert stats.bytes == 5 * len(frame)


def test_inject_train_forwards_each_frame():
    """A multi-frame flush counts as one train and takes the same
    per-frame path as separate injects."""
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    frames = [typhoon_frame(W1, W2, payload=b"%d" % i) for i in range(3)]
    switch.inject_train(p_in, frames)
    engine.run(until=0.02)
    assert received == frames
    assert switch.trains == 1
    assert switch.packets_forwarded == 3
    (entry,) = switch.flows
    assert entry.packets == 3


def test_flow_mod_delete_strict_semantics():
    engine = Engine()
    switch = make_switch(engine)
    outs = {2: [], 3: []}
    p_in = switch.add_port("w1", lambda f, t: None)
    p_a = switch.add_port("w2", lambda f, t: outs[2].append(f))
    p_b = switch.add_port("w3", lambda f, t: outs[3].append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in, dl_dst=W2),
                                  (Output(p_a),), priority=50))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in),
                                  (Output(p_b),), priority=10))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(W1, W2))
    switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.02)
    assert len(outs[2]) == 2 and not outs[3]
    # DELETE_STRICT with a non-matching priority removes nothing…
    switch.handle_message(FlowMod(DELETE_STRICT,
                                  Match(in_port=p_in, dl_dst=W2),
                                  priority=99))
    engine.run(until=0.03)
    switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.04)
    assert len(outs[2]) == 3
    # …and with the exact priority removes exactly that rule.
    switch.handle_message(FlowMod(DELETE_STRICT,
                                  Match(in_port=p_in, dl_dst=W2),
                                  priority=50))
    engine.run(until=0.05)
    switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.06)
    assert len(outs[2]) == 3 and len(outs[3]) == 1


def test_group_mod_retargets_forwarding():
    engine = Engine()
    switch = make_switch(engine)
    outs = {2: [], 3: []}
    p_in = switch.add_port("w1", lambda f, t: None)
    p_a = switch.add_port("w2", lambda f, t: outs[2].append(f))
    p_b = switch.add_port("w3", lambda f, t: outs[3].append(f))
    switch.handle_message(GroupMod("add", 1, GROUP_ALL,
                                   (Bucket((Output(p_a),)),)))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in),
                                  (GroupAction(1),)))
    engine.run(until=0.01)
    switch.inject(p_in, typhoon_frame(W1, W2))
    switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.02)
    assert len(outs[2]) == 2 and not outs[3]
    # Frames after a GroupMod follow the new buckets.
    switch.handle_message(GroupMod("modify", 1, GROUP_ALL,
                                   (Bucket((Output(p_b),)),)))
    engine.run(until=0.03)
    switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.04)
    assert len(outs[2]) == 2 and len(outs[3]) == 1


def test_port_remove_stops_delivery():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    assert switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.02)
    switch.remove_port(p_out)
    switch.inject(p_in, typhoon_frame(W1, W2))
    engine.run(until=0.03)
    assert len(received) == 1  # no delivery to the removed port


def test_switch_crash_and_restore_lose_the_table():
    engine = Engine()
    switch = make_switch(engine)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    assert switch.inject(p_in, typhoon_frame(W1, W2))
    switch.crash()
    switch.restore()
    assert not switch.inject(p_in, typhoon_frame(W1, W2))  # until re-install


# -- chaos patterns against the full cluster --------------------------------------


def _delivered(cluster, topology, component="sink"):
    return sum(e.stats.processed
               for e in cluster.executors_for(topology, component))


def test_switch_crash_restore_traffic_recovers():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=3)
    cluster.submit(forwarding_topology(
        "fwd", TopologyConfig(batch_size=100, max_spout_rate=20_000)))
    engine.run(until=4.0)
    before = _delivered(cluster, "fwd")
    assert before > 0
    victim = sorted(cluster.fabric.hosts)[0]
    set_switch_down(cluster, victim, True)
    engine.run(until=5.0)
    set_switch_down(cluster, victim, False)
    engine.run(until=9.0)
    after = _delivered(cluster, "fwd")
    assert after > before  # delivery resumed on re-installed rules


def test_controller_outage_and_replay_keep_forwarding():
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=5)
    cluster.submit(forwarding_topology(
        "fwd", TopologyConfig(batch_size=100, max_spout_rate=20_000)))
    engine.run(until=4.0)
    set_controller_down(cluster, True)
    engine.run(until=5.5)
    set_controller_down(cluster, False)
    engine.run(until=9.0)
    before = _delivered(cluster, "fwd")
    engine.run(until=10.0)
    assert _delivered(cluster, "fwd") > before


def test_live_debugger_mirror_install_and_removal():
    """The tap installs a boosted-priority mirror over a hot path; the
    debug worker sees tuples only while the mirror rules exist."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=7)
    debugger = cluster.register_app(LiveDebugger(cluster))
    cluster.submit(simple_chain("dbg", limit=None,
                                config=TopologyConfig(max_spout_rate=2000)))
    engine.run(until=8.0)
    debugger.tap("dbg", "source")
    engine.run(until=16.0)
    debug_executor = debugger.debug_executor("dbg", "source")
    assert debug_executor is not None
    assert debug_executor.stats.processed > 0
    # Untap removes the mirror rules; mirroring must stop.
    seen_at_untap = debug_executor.stats.processed
    debugger.untap("dbg", "source")
    engine.run(until=17.0)
    settled = debugger.debug_executor("dbg", "source")
    if settled is not None:
        engine.run(until=20.0)
        assert settled.stats.processed <= seen_at_untap + 1
