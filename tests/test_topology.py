"""Unit tests for the logical topology builder and reconfiguration ops."""

import pytest

from repro.streaming import (
    ALL,
    FIELDS,
    Bolt,
    Grouping,
    SHUFFLE,
    Spout,
    TopologyBuilder,
    TopologyConfig,
    TopologyError,
)
from repro.streaming.topology import EmitterApi


class DummySpout(Spout):
    def next_tuple(self, collector):
        pass


class DummyBolt(Bolt):
    def execute(self, stream_tuple, collector):
        pass


def wordcount_builder():
    builder = TopologyBuilder("wc")
    builder.set_spout("input", DummySpout, 1)
    builder.set_bolt("split", DummyBolt, 2).shuffle_grouping("input")
    builder.set_bolt("count", DummyBolt, 4,
                     stateful=True).fields_grouping("split", [0])
    return builder


def test_build_wordcount():
    topology = wordcount_builder().build()
    assert topology.total_workers() == 7
    assert [n.name for n in topology.spouts()] == ["input"]
    assert len(topology.bolts()) == 2
    assert topology.outgoing("input")[0].dst == "split"
    assert topology.incoming("count")[0].grouping.kind == FIELDS


def test_duplicate_node_rejected():
    builder = TopologyBuilder("t")
    builder.set_spout("a", DummySpout)
    with pytest.raises(TopologyError):
        builder.set_bolt("a", DummyBolt)


def test_edge_to_unknown_node_rejected():
    builder = TopologyBuilder("t")
    builder.set_spout("src", DummySpout)
    builder.set_bolt("sink", DummyBolt).shuffle_grouping("ghost")
    with pytest.raises(TopologyError):
        builder.build()


def test_spout_cannot_have_inputs():
    builder = TopologyBuilder("t")
    builder.set_spout("a", DummySpout)
    builder.set_spout("b", DummySpout)
    builder._add_edge("a", "b", Grouping(SHUFFLE), 0)
    with pytest.raises(TopologyError):
        builder.build()


def test_cycle_rejected():
    builder = TopologyBuilder("t")
    builder.set_spout("src", DummySpout)
    builder.set_bolt("x", DummyBolt).shuffle_grouping("src")
    builder.set_bolt("y", DummyBolt).shuffle_grouping("x")
    builder._add_edge("y", "x", Grouping(SHUFFLE), 0)
    with pytest.raises(TopologyError):
        builder.build()


def test_topology_needs_spout():
    builder = TopologyBuilder("t")
    builder.set_bolt("only", DummyBolt)
    with pytest.raises(TopologyError):
        builder.build()


def test_stateful_requires_key_based_routing():
    builder = TopologyBuilder("t")
    builder.set_spout("src", DummySpout)
    builder.set_bolt("state", DummyBolt, stateful=True).shuffle_grouping("src")
    with pytest.raises(TopologyError):
        builder.build()


def test_stateful_global_routing_allowed():
    builder = TopologyBuilder("t")
    builder.set_spout("src", DummySpout)
    builder.set_bolt("state", DummyBolt, stateful=True).global_grouping("src")
    builder.build()  # no error


def test_grouping_validation():
    with pytest.raises(TopologyError):
        Grouping("teleport")
    with pytest.raises(TopologyError):
        Grouping(FIELDS)  # fields grouping without fields
    with pytest.raises(TopologyError):
        Grouping(SHUFFLE, (0,))  # fields on non-fields grouping


def test_parallelism_validation():
    builder = TopologyBuilder("t")
    with pytest.raises(TopologyError):
        builder.set_spout("src", DummySpout, parallelism=0)


def test_with_parallelism_copies():
    topology = wordcount_builder().build()
    scaled = topology.with_parallelism("split", 5)
    assert scaled.node("split").parallelism == 5
    assert topology.node("split").parallelism == 2  # original untouched
    assert scaled.version == topology.version + 1


def test_with_factory_swaps_logic():
    topology = wordcount_builder().build()

    class NewBolt(DummyBolt):
        pass

    updated = topology.with_factory("split", NewBolt)
    assert updated.node("split").factory is NewBolt
    assert topology.node("split").factory is not NewBolt


def test_with_grouping_replaces_edge():
    topology = wordcount_builder().build()
    updated = topology.with_grouping("input", "split", Grouping(ALL))
    assert updated.outgoing("input")[0].grouping.kind == ALL
    assert topology.outgoing("input")[0].grouping.kind == SHUFFLE
    with pytest.raises(TopologyError):
        topology.with_grouping("input", "count", Grouping(ALL))


def test_with_grouping_validates_stateful():
    topology = wordcount_builder().build()
    with pytest.raises(TopologyError):
        # count is stateful: shuffling its input is illegal (Table 4).
        topology.with_grouping("split", "count", Grouping(SHUFFLE))


def test_config_defaults():
    config = TopologyConfig()
    assert not config.acking
    assert config.batch_size == 100
    assert config.tuple_timeout == 30.0


class RecordingEmitter(EmitterApi):
    def __init__(self):
        self.calls = []

    def emit(self, values, stream=0, anchor=None, message_id=None):
        self.calls.append((values, stream, anchor, message_id))


def test_default_emit_many_with_message_ids_emits_each():
    """The base emit_many is exactly emit(values, stream, message_id=id)
    per item, in order; without ids it passes none; unequal lengths are
    refused before anything is emitted."""
    rows = [("a", 1), ("b", 2), ("c", 3)]
    batched, single = RecordingEmitter(), RecordingEmitter()
    batched.emit_many(rows, 5, message_ids=[10, None, "m"])
    for values, message_id in zip(rows, [10, None, "m"]):
        single.emit(values, 5, message_id=message_id)
    assert batched.calls == single.calls
    bare = RecordingEmitter()
    bare.emit_many(rows)
    assert bare.calls == [(values, 0, None, None) for values in rows]
    refused = RecordingEmitter()
    with pytest.raises(ValueError):
        refused.emit_many(rows, message_ids=[1, 2])
    assert refused.calls == []
