"""Unit tests for flow matches, actions and flow tables."""

import pytest

from repro.bench.legacy import LegacyFlowTable
from repro.net import (
    BROADCAST,
    CONTROLLER_ADDRESS,
    TYPHOON_ETHERTYPE,
    EthernetFrame,
    WorkerAddress,
)
from repro.sdn import (
    OFPP_CONTROLLER,
    FlowEntry,
    FlowTable,
    GroupAction,
    Match,
    Output,
    SetDlDst,
    SetTunnelDst,
)


def frame(src=1, dst=2, app=1, ethertype=TYPHOON_ETHERTYPE, payload=b"p"):
    return EthernetFrame(
        dst=WorkerAddress(app, dst) if isinstance(dst, int) else dst,
        src=WorkerAddress(app, src),
        ethertype=ethertype, payload=payload,
    )


def test_exact_match_fields():
    match = Match(in_port=3, dl_src=WorkerAddress(1, 1),
                  dl_dst=WorkerAddress(1, 2), ether_type=TYPHOON_ETHERTYPE)
    assert match.matches(frame(1, 2), 3)
    assert not match.matches(frame(1, 2), 4)          # wrong in_port
    assert not match.matches(frame(9, 2), 3)          # wrong src
    assert not match.matches(frame(1, 9), 3)          # wrong dst
    assert not match.matches(frame(1, 2, ethertype=0x0800), 3)


def test_wildcard_match():
    match = Match()  # matches everything
    assert match.matches(frame(), 1)
    assert match.matches(frame(5, 6, ethertype=0x0800), 99)


def test_broadcast_destination_match():
    match = Match(dl_dst=BROADCAST)
    assert match.matches(frame(1, BROADCAST), 1)
    assert not match.matches(frame(1, 2), 1)


def test_match_covers():
    broad = Match(in_port=1)
    narrow = Match(in_port=1, dl_src=WorkerAddress(1, 1))
    assert broad.covers(narrow)
    assert not narrow.covers(broad)
    assert Match().covers(narrow)


def test_describe_is_readable():
    match = Match(in_port=2, ether_type=0xFFFF)
    description = match.describe()
    assert "in_port=2" in description
    assert "0xffff" in description
    assert Match().describe() == "any"


def test_table_priority_ordering():
    table = FlowTable()
    low = FlowEntry(Match(), (Output(1),), priority=10)
    high = FlowEntry(Match(in_port=1), (Output(2),), priority=200)
    table.add(low)
    table.add(high)
    hit = table.lookup(frame(), 1)
    assert hit is high
    # Frames not matching the high-priority rule fall through.
    assert table.lookup(frame(), 9) is low


def test_table_equal_priority_first_installed_wins():
    table = FlowTable()
    first = FlowEntry(Match(in_port=1), (Output(1),), priority=100)
    second = FlowEntry(Match(), (Output(2),), priority=100)
    table.add(first)
    table.add(second)
    assert table.lookup(frame(), 1) is first


def test_table_add_replaces_same_match_and_priority():
    table = FlowTable()
    table.add(FlowEntry(Match(in_port=1), (Output(1),), priority=100))
    table.add(FlowEntry(Match(in_port=1), (Output(5),), priority=100))
    assert len(table) == 1
    entry = table.lookup(frame(), 1)
    assert entry.actions == (Output(5),)


def test_table_nonstrict_delete_covers():
    table = FlowTable()
    table.add(FlowEntry(Match(in_port=1, dl_src=WorkerAddress(1, 1)),
                        (Output(1),)))
    table.add(FlowEntry(Match(in_port=1, dl_src=WorkerAddress(1, 2)),
                        (Output(2),)))
    table.add(FlowEntry(Match(in_port=2), (Output(3),)))
    removed = table.remove(Match(in_port=1))
    assert len(removed) == 2
    assert len(table) == 1


def test_table_strict_delete_respects_priority():
    table = FlowTable()
    base = FlowEntry(Match(in_port=1), (Output(1),), priority=100)
    mirror = FlowEntry(Match(in_port=1), (Output(1), Output(9)), priority=150)
    table.add(base)
    table.add(mirror)
    removed = table.remove(Match(in_port=1), strict=True, priority=150)
    assert removed == [mirror]
    assert len(table) == 1
    assert table.lookup(frame(), 1) is base


def test_idle_timeout_expiry():
    table = FlowTable()
    entry = FlowEntry(Match(in_port=1), (Output(1),), idle_timeout=5.0)
    table.add(entry, now=0.0)
    entry.touch(2.0, 100)
    assert table.expire_idle(6.9) == []
    expired = table.expire_idle(7.0)
    assert expired == [entry]
    assert len(table) == 0


def test_idle_timeout_uses_install_time_when_unused():
    table = FlowTable()
    entry = FlowEntry(Match(), (Output(1),), idle_timeout=3.0)
    table.add(entry, now=10.0)
    assert table.expire_idle(12.0) == []
    assert table.expire_idle(13.0) == [entry]


def test_counters_updated_on_touch():
    entry = FlowEntry(Match(), (Output(1),))
    entry.touch(1.0, 50)
    entry.touch(2.0, 70)
    assert entry.packets == 2
    assert entry.bytes == 120
    assert entry.last_used == 2.0


def test_referencing_port():
    table = FlowTable()
    by_input = FlowEntry(Match(in_port=7), (Output(1),))
    by_output = FlowEntry(Match(in_port=1), (SetTunnelDst("h"), Output(7)))
    unrelated = FlowEntry(Match(in_port=2), (Output(3),))
    for entry in (by_input, by_output, unrelated):
        table.add(entry)
    hits = table.referencing_port(7)
    assert by_input in hits and by_output in hits
    assert unrelated not in hits


def test_remove_by_cookie():
    table = FlowTable()
    table.add(FlowEntry(Match(in_port=1), (Output(1),), cookie=42))
    table.add(FlowEntry(Match(in_port=2), (Output(2),), cookie=7))
    removed = table.remove_by_cookie(42)
    assert len(removed) == 1
    assert len(table) == 1


def test_actions_are_immutable_dataclasses():
    assert Output(1) == Output(1)
    assert SetDlDst(WorkerAddress(1, 2)) == SetDlDst(WorkerAddress(1, 2))
    assert GroupAction(5) != GroupAction(6)
    with pytest.raises(Exception):
        Output(1).port = 2


# -- priority buckets (hot-path overhaul) ------------------------------------------


def test_buckets_keep_priorities_sorted_descending():
    table = FlowTable()
    for priority in (10, 200, 50, 150, 50, 10):
        table.add(FlowEntry(Match(in_port=priority), (Output(1),),
                            priority=priority))
    assert table._priorities == sorted(set((10, 200, 50, 150)),
                                       reverse=True)
    # Iteration walks priority groups high to low.
    seen = [entry.priority for entry in table]
    assert seen == sorted(seen, reverse=True)


def test_empty_buckets_are_pruned_on_removal():
    table = FlowTable()
    table.add(FlowEntry(Match(in_port=1), (Output(1),), priority=50))
    table.add(FlowEntry(Match(in_port=2), (Output(2),), priority=10))
    table.remove(Match(in_port=1), strict=True, priority=50)
    assert table._priorities == [10]
    assert 50 not in table._buckets
    # The pruned priority can be re-added cleanly.
    table.add(FlowEntry(Match(in_port=3), (Output(3),), priority=50))
    assert table._priorities == [50, 10]


def test_equal_priority_insertion_order_preserved_in_bucket():
    table = FlowTable()
    first = table.add(FlowEntry(Match(), (Output(1),), priority=5))
    second = table.add(FlowEntry(Match(in_port=1), (Output(2),), priority=5))
    # Both match in_port=1 frames; the first-installed entry wins.
    assert table.lookup(frame(), 1) is first
    assert list(table) == [first, second]


def test_replacement_keeps_bucket_slot():
    table = FlowTable()
    a = table.add(FlowEntry(Match(in_port=1), (Output(1),), priority=5))
    b = table.add(FlowEntry(Match(in_port=2), (Output(2),), priority=5))
    replacement = table.add(FlowEntry(Match(in_port=1), (Output(9),),
                                      priority=5))
    assert list(table) == [replacement, b]
    assert a not in list(table)


def test_miss_path_short_circuits_without_entries():
    table = FlowTable()
    assert table.lookup(frame(), 1) is None
    table.add(FlowEntry(Match(in_port=99), (Output(1),), priority=7))
    table.remove(Match(in_port=99), strict=True, priority=7)
    # Table fully drained: no buckets left to scan.
    assert table._buckets == {} and table._priorities == []
    assert table.lookup(frame(), 1) is None


# -- a Table-3 host rule set against the linearly scanned reference ----------------

#: Workers on the host; worker ``wid`` sits on port ``TUNNEL_PORT + 1 + wid``.
TABLE3_WORKERS = 12
TUNNEL_PORT = 1


def _table3_entries():
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


def test_table3_lookup_agrees_with_legacy_table():
    """On the frame mix a fig8 steady state offers (a cycle over the
    active (src, dst) pairs plus a broadcast), every answer is the entry
    the linearly scanned reference table picks."""
    table = FlowTable()
    legacy = LegacyFlowTable()
    for entry in _table3_entries():
        table.add(entry)
    for entry in _table3_entries():  # fresh entries: ids differ, matches equal
        legacy.add(entry)
    workers = TABLE3_WORKERS
    frames = [(frame(src, (src + 1) % workers), TUNNEL_PORT + 1 + src)
              for src in range(workers)]
    frames.append((frame(0, BROADCAST), TUNNEL_PORT + 1))
    for packet, in_port in frames:
        hit = table.lookup(packet, in_port)
        ref = legacy.lookup(packet, in_port)
        assert hit is not None and ref is not None
        assert (hit.match, hit.priority) == (ref.match, ref.priority)
