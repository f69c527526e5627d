"""Flow-table answers across table mutations.

The switch once kept an exact-match cache in front of the priority
table, and these tests checked that every add, delete and idle expiry
changed its answers exactly as the table's did. The cache is gone and
every frame takes one walk of the priority table; the tests keep the
answer checks, so each lookup after a mutation must still return the
entry the table's priority order picks.
"""

from repro.net import TYPHOON_ETHERTYPE, EthernetFrame, WorkerAddress
from repro.sdn import Match, Output
from repro.sdn.flow import FlowEntry, FlowTable

W1 = WorkerAddress(1, 1)
W2 = WorkerAddress(1, 2)
W3 = WorkerAddress(1, 3)


def frame(src=W1, dst=W2):
    return EthernetFrame(dst=dst, src=src, ethertype=TYPHOON_ETHERTYPE,
                         payload=b"data")


def test_cache_hit_returns_same_entry():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(2),)))
    first = table.lookup(frame(), 1)
    second = table.lookup(frame(), 1)
    assert first is entry and second is entry


def test_negative_cache_invalidated_by_covering_add():
    table = FlowTable()
    assert table.lookup(frame(), 1) is None
    assert table.lookup(frame(), 1) is None
    entry = table.add(FlowEntry(Match(in_port=1), (Output(2),)))
    assert table.lookup(frame(), 1) is entry


def test_add_higher_priority_overlap_invalidates():
    table = FlowTable()
    low = table.add(FlowEntry(Match(in_port=1), (Output(2),), priority=10))
    assert table.lookup(frame(), 1) is low
    high = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(3),),
                               priority=50))
    assert table.lookup(frame(), 1) is high


def test_add_lower_priority_overlap_keeps_cached_answer():
    table = FlowTable()
    high = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(3),),
                               priority=50))
    assert table.lookup(frame(), 1) is high
    table.add(FlowEntry(Match(in_port=1), (Output(2),), priority=10))
    # The earlier answer outranks the new entry.
    assert table.lookup(frame(), 1) is high


def test_add_unrelated_match_keeps_cached_answer():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(in_port=1, dl_dst=W2), (Output(2),)))
    assert table.lookup(frame(), 1) is entry
    table.add(FlowEntry(Match(in_port=7, dl_dst=W3), (Output(9),),
                        priority=200))
    assert table.lookup(frame(), 1) is entry


def test_remove_invalidates_only_removed_answers():
    table = FlowTable()
    primary = table.add(FlowEntry(Match(in_port=1, dl_dst=W2),
                                  (Output(2),), priority=50))
    fallback = table.add(FlowEntry(Match(in_port=1), (Output(4),),
                                   priority=10))
    other = table.add(FlowEntry(Match(in_port=7), (Output(9),)))
    assert table.lookup(frame(), 1) is primary
    assert table.lookup(frame(src=W3, dst=W1), 7) is other
    table.remove(Match(in_port=1, dl_dst=W2), strict=True, priority=50)
    # The deleted answer falls back; the other frame's answer stays.
    assert table.lookup(frame(), 1) is fallback
    assert table.lookup(frame(src=W3, dst=W1), 7) is other


def test_expire_idle_invalidates_cache():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(in_port=1), (Output(2),),
                                idle_timeout=1.0))
    assert table.lookup(frame(), 1) is entry
    expired = table.expire_idle(now=10.0)
    assert entry in expired
    assert table.lookup(frame(), 1) is None


def test_cache_overflow_clears_and_recovers():
    table = FlowTable()
    entry = table.add(FlowEntry(Match(), (Output(2),)))
    for i in range(40):
        key_frame = frame(src=WorkerAddress(2, i), dst=WorkerAddress(3, i))
        assert table.lookup(key_frame, i % 4) is entry
    assert table.lookup(frame(), 1) is entry
