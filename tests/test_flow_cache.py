"""Exact-match flow-cache correctness: invalidation on every table and
environment mutation, counter parity with the authoritative table, and
cache consistency under the chaos patterns (switch crash/restore,
controller outage replay, live-debugger mirror install).

The cache must be *invisible* except for speed: every scenario asserts
the externally observable behaviour (delivery, counters, stats) is what
an uncached table would produce.
"""

import pytest

from repro.bench.legacy import LegacyFlowTable
from repro.core import TyphoonCluster
from repro.core.apps import CollectingDebugBolt, LiveDebugger
from repro.net import (
    BROADCAST,
    CONTROLLER_ADDRESS,
    TYPHOON_ETHERTYPE,
    EthernetFrame,
    WorkerAddress,
)
from repro.sdn import (
    ADD,
    DELETE,
    DELETE_STRICT,
    GROUP_ALL,
    OFPP_CONTROLLER,
    Bucket,
    FlowMod,
    FlowStatsRequest,
    GroupAction,
    GroupMod,
    Match,
    Output,
    SetTunnelDst,
    SoftwareSwitch,
)
from repro.sdn.flow import FlowEntry, FlowTable
from repro.sim import DEFAULT_COSTS, Engine
from repro.sim.faults import set_controller_down, set_switch_down
from repro.streaming import TopologyConfig
from repro.workloads import forwarding_topology

from tests.conftest import simple_chain

W1 = WorkerAddress(1, 1)
W2 = WorkerAddress(1, 2)
W3 = WorkerAddress(1, 3)


def make_switch(engine):
    return SoftwareSwitch(engine, DEFAULT_COSTS, dpid="sw0")


def frame(src=W1, dst=W2):
    return EthernetFrame(dst=dst, src=src, ethertype=TYPHOON_ETHERTYPE,
                         payload=b"data")


# -- FlowTable-level invalidation -------------------------------------------------


def test_cache_hit_returns_same_entry():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(2),)))
    first = table.lookup_cached(frame(), 1)
    second = table.lookup_cached(frame(), 1)
    assert first is entry and second is entry
    assert table.cache.hits == 1 and table.cache.misses == 1


def test_negative_cache_invalidated_by_covering_add():
    table = FlowTable()
    assert table.lookup_cached(frame(), 1) is None
    assert table.lookup_cached(frame(), 1) is None  # cached miss
    assert table.cache.hits == 1
    entry = table.add(FlowEntry(Match(in_port=1), (Output(2),)))
    assert table.lookup_cached(frame(), 1) is entry


def test_add_higher_priority_overlap_invalidates():
    table = FlowTable()
    low = table.add(FlowEntry(Match(in_port=1), (Output(2),), priority=10))
    assert table.lookup_cached(frame(), 1) is low
    high = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(3),),
                               priority=50))
    assert table.lookup_cached(frame(), 1) is high


def test_add_lower_priority_overlap_keeps_cached_answer():
    table = FlowTable()
    high = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(3),),
                               priority=50))
    assert table.lookup_cached(frame(), 1) is high
    hits_before = table.cache.hits
    table.add(FlowEntry(Match(in_port=1), (Output(2),), priority=10))
    # The cached answer outranks the new entry: still served from cache.
    assert table.lookup_cached(frame(), 1) is high
    assert table.cache.hits == hits_before + 1


def test_add_unrelated_match_keeps_cached_answer():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(2),)))
    assert table.lookup_cached(frame(), 1) is entry
    table.add(FlowEntry(Match(in_port=7, dl_dst=W3), (Output(9),),
                        priority=200))
    hits_before = table.cache.hits
    assert table.lookup_cached(frame(), 1) is entry
    assert table.cache.hits == hits_before + 1


def test_remove_invalidates_only_removed_answers():
    table = FlowTable()
    primary = table.add(FlowEntry(Match(in_port=1, dl_dst=W2),
                                  (Output(2),), priority=50))
    fallback = table.add(FlowEntry(Match(in_port=1), (Output(4),),
                                   priority=10))
    other = table.add(FlowEntry(Match(in_port=7), (Output(9),)))
    assert table.lookup_cached(frame(), 1) is primary
    assert table.lookup_cached(frame(src=W3, dst=W1), 7) is other
    table.remove(Match(in_port=1, dl_dst=W2), strict=True, priority=50)
    # Deleted answer re-resolves to the fallback; other key stays cached.
    assert table.lookup_cached(frame(), 1) is fallback
    hits = table.cache.hits
    assert table.lookup_cached(frame(src=W3, dst=W1), 7) is other
    assert table.cache.hits == hits + 1


def test_expire_idle_invalidates_cache():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(in_port=1), (Output(2),),
                                idle_timeout=1.0))
    assert table.lookup_cached(frame(), 1) is entry
    expired = table.expire_idle(now=10.0)
    assert entry in expired
    assert table.lookup_cached(frame(), 1) is None


def test_cache_overflow_clears_and_recovers():
    table = FlowTable()
    table.cache.MAX_ENTRIES = 8
    entry = table.add(FlowEntry(Match(), (Output(2),)))
    for i in range(40):
        key_frame = frame(src=WorkerAddress(2, i), dst=WorkerAddress(3, i))
        assert table.lookup_cached(key_frame, i % 4) is entry
    assert len(table.cache) <= 8
    assert table.lookup_cached(frame(), 1) is entry


# -- a Table-3 host rule set against the uncached reference table ----------------

#: Workers on the host; worker ``wid`` sits on port ``TUNNEL_PORT + 1 + wid``.
TABLE3_WORKERS = 12
TUNNEL_PORT = 1


def _table_entries():
    """A representative Table-3 rule set for one fig8/fig9-style host:
    local transfers between every worker pair (quadratic in collocated
    workers, so a 12-worker host carries ~170 rules), remote-sender
    rules, a one-to-many broadcast rule per source, controller taps, and
    a pair of boosted-priority mirror rules (the live debugger's
    signature)."""
    workers = TABLE3_WORKERS
    ports = {wid: TUNNEL_PORT + 1 + wid for wid in range(workers)}
    entries = []
    for src in range(workers):
        src_port = ports[src]
        for dst in range(workers):
            if dst == src:
                continue
            entries.append(FlowEntry(
                Match(in_port=src_port,
                      dl_src=WorkerAddress(1, src),
                      dl_dst=WorkerAddress(1, dst),
                      ether_type=TYPHOON_ETHERTYPE),
                (Output(ports[dst]),), priority=100))
        entries.append(FlowEntry(
            Match(in_port=src_port,
                  dl_src=WorkerAddress(1, src),
                  dl_dst=WorkerAddress(1, 1000 + src),
                  ether_type=TYPHOON_ETHERTYPE),
            (SetTunnelDst("peer-host"), Output(TUNNEL_PORT)), priority=100))
        entries.append(FlowEntry(
            Match(in_port=src_port, dl_dst=BROADCAST,
                  ether_type=TYPHOON_ETHERTYPE),
            tuple(Output(ports[dst]) for dst in range(workers) if dst != src),
            priority=100))
        entries.append(FlowEntry(
            Match(in_port=src_port, dl_dst=CONTROLLER_ADDRESS,
                  ether_type=TYPHOON_ETHERTYPE),
            (Output(OFPP_CONTROLLER),), priority=100))
    # Two live-debugger mirror rules at boosted priority.
    for src in (0, 1):
        entries.append(FlowEntry(
            Match(in_port=ports[src],
                  dl_src=WorkerAddress(1, src),
                  dl_dst=WorkerAddress(1, (src + 1) % workers),
                  ether_type=TYPHOON_ETHERTYPE),
            (Output(ports[(src + 1) % workers]), Output(ports[workers - 1])),
            priority=150))
    return entries


def _lookup_frames():
    """The frame mix a fig8 steady state offers the table: a cycle over
    the active (src, dst) pairs plus the occasional broadcast."""
    workers = TABLE3_WORKERS
    frames = [(frame(src=WorkerAddress(1, src),
                     dst=WorkerAddress(1, (src + 1) % workers)),
               TUNNEL_PORT + 1 + src) for src in range(workers)]
    frames.append((frame(src=WorkerAddress(1, 0), dst=BROADCAST),
                   TUNNEL_PORT + 1))
    return frames


def test_table3_cached_lookup_agrees_with_legacy_table():
    """Cold and warm, every cached answer is the entry the linearly
    scanned reference table picks, and repeated passes over the mix are
    served from the cache."""
    table = FlowTable()
    legacy = LegacyFlowTable()
    for entry in _table_entries():
        table.add(entry)
    for entry in _table_entries():  # fresh entries: ids differ, matches equal
        legacy.add(entry)
    frames = _lookup_frames()
    for _ in range(100):
        for packet, in_port in frames:
            hit = table.lookup_cached(packet, in_port)
            ref = legacy.lookup(packet, in_port)
            assert hit is not None and ref is not None
            assert (hit.match, hit.priority) == (ref.match, ref.priority)
    assert table.cache.hit_rate >= 0.95


# -- switch-level invalidation ----------------------------------------------------


def test_cache_hits_bump_flow_counters_identically():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    events = []
    switch.connect_controller(events.append)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    for _ in range(5):
        assert switch.inject(p_in, frame())
    engine.run(until=0.05)
    assert len(received) == 5
    assert switch.cache_hits == 4 and switch.cache_misses == 1
    switch.handle_message(FlowStatsRequest(Match()))
    engine.run(until=0.1)
    (reply,) = [e for e in events if type(e).__name__ == "FlowStatsReply"]
    (stats,) = reply.entries
    # The stats monitor / auto-scaler see the same numbers as uncached.
    assert stats.packets == 5
    assert stats.bytes == 5 * len(frame())


def test_flow_mod_delete_strict_semantics_with_cache():
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
    switch.inject(p_in, frame())
    switch.inject(p_in, frame())
    engine.run(until=0.02)
    assert len(outs[2]) == 2 and not outs[3]
    # DELETE_STRICT with a non-matching priority removes nothing…
    switch.handle_message(FlowMod(DELETE_STRICT,
                                  Match(in_port=p_in, dl_dst=W2),
                                  priority=99))
    engine.run(until=0.03)
    switch.inject(p_in, frame())
    engine.run(until=0.04)
    assert len(outs[2]) == 3
    # …and with the exact priority removes exactly that rule.
    switch.handle_message(FlowMod(DELETE_STRICT,
                                  Match(in_port=p_in, dl_dst=W2),
                                  priority=50))
    engine.run(until=0.05)
    switch.inject(p_in, frame())
    engine.run(until=0.06)
    assert len(outs[2]) == 3 and len(outs[3]) == 1


def test_group_mod_invalidates_cache():
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
    switch.inject(p_in, frame())
    switch.inject(p_in, frame())
    engine.run(until=0.02)
    assert len(outs[2]) == 2 and not outs[3]
    # Retargeting the group must not serve stale cached expansions.
    switch.handle_message(GroupMod("modify", 1, GROUP_ALL,
                                   (Bucket((Output(p_b),)),)))
    engine.run(until=0.03)
    switch.inject(p_in, frame())
    engine.run(until=0.04)
    assert len(outs[2]) == 2 and len(outs[3]) == 1


def test_port_remove_invalidates_cache():
    engine = Engine()
    switch = make_switch(engine)
    received = []
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: received.append(f))
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    assert switch.inject(p_in, frame())
    engine.run(until=0.02)
    switch.remove_port(p_out)
    switch.inject(p_in, frame())
    engine.run(until=0.03)
    assert len(received) == 1  # no delivery to the removed port


def test_switch_crash_and_restore_reset_cache():
    engine = Engine()
    switch = make_switch(engine)
    p_in = switch.add_port("w1", lambda f, t: None)
    p_out = switch.add_port("w2", lambda f, t: None)
    switch.handle_message(FlowMod(ADD, Match(in_port=p_in), (Output(p_out),)))
    engine.run(until=0.01)
    assert switch.inject(p_in, frame())
    assert switch.cache_misses == 1
    switch.crash()
    switch.restore()
    # Fresh table, fresh cache: the old cached answer must be gone.
    assert switch.cache_hits == 0 and switch.cache_misses == 0
    assert not switch.inject(p_in, frame())  # table miss until re-install


# -- chaos patterns against the full cluster --------------------------------------


def _total_cache_counters(cluster):
    hits = sum(s.cache_hits for s in cluster.fabric.switches())
    misses = sum(s.cache_misses for s in cluster.fabric.switches())
    return hits, misses


def _delivered(cluster, topology, component="sink"):
    return sum(e.stats.processed
               for e in cluster.executors_for(topology, component))


def test_switch_crash_restore_traffic_and_cache_recover():
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
    hits, misses = _total_cache_counters(cluster)
    # Steady state re-established: the replayed rules are being hit.
    assert hits > misses


def test_controller_outage_and_replay_keep_cache_consistent():
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
    hits, misses = _total_cache_counters(cluster)
    assert hits > misses


def test_live_debugger_mirror_install_invalidates_cached_path():
    """The strongest ADD-invalidation case: the tap installs a boosted-
    priority mirror over a path that is hot in the cache. If the stale
    cached entry kept winning, the debug worker would never see a tuple."""
    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=2, seed=7)
    debugger = cluster.register_app(LiveDebugger(cluster))
    cluster.submit(simple_chain("dbg", limit=None,
                                config=TopologyConfig(max_spout_rate=2000)))
    engine.run(until=8.0)
    hits, misses = _total_cache_counters(cluster)
    assert hits > misses  # the path being tapped is cache-hot
    debugger.tap("dbg", "source")
    engine.run(until=16.0)
    debug_executor = debugger.debug_executor("dbg", "source")
    assert debug_executor is not None
    assert debug_executor.stats.processed > 0
    # Untap removes the mirror rules; mirroring must stop (the cache
    # may not keep serving the boosted mirror entry after deletion).
    seen_at_untap = debug_executor.stats.processed
    debugger.untap("dbg", "source")
    engine.run(until=17.0)
    settled = debugger.debug_executor("dbg", "source")
    if settled is not None:
        engine.run(until=20.0)
        assert settled.stats.processed <= seen_at_untap + 1
