"""Data tuples and stream identifiers.

A :class:`StreamTuple` is the unit of data flowing through a topology:
a tuple of values plus metadata (source component/worker, stream id and —
when guaranteed processing is on — the ack anchor). The metadata mirrors
§2 of the paper: "source/destination node IDs, output length, and stream
type ... used for parsing, forwarding and multiplexing".

Stream identifiers are small integers on the wire (Fig. 5 reserves a
fixed-width Stream ID field); well-known ids cover the default data
stream, signal tuples (Listing 2), ack traffic and Typhoon control
tuples (Table 2).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

# -- well-known stream ids ----------------------------------------------------

DEFAULT_STREAM = 0
#: Signal tuples flush stateful workers' in-memory caches (Listing 2).
SIGNAL_STREAM = 1
#: Acker traffic (init/ack/complete messages).
ACK_STREAM = 2
#: Typhoon control tuples, generated by the SDN controller (Table 2).
CONTROL_STREAM = 3
#: Mirrored copies delivered to debug workers (live debugger, §4).
DEBUG_STREAM = 4
#: First id available to applications for custom streams.
USER_STREAM_BASE = 16


def is_control_stream(stream_id: int) -> bool:
    return stream_id == CONTROL_STREAM


def is_signal_stream(stream_id: int) -> bool:
    return stream_id == SIGNAL_STREAM


class Anchor:
    """Ack-tree anchor: the tuple's root id and its own edge id.

    An immutable ``__slots__`` record rather than a frozen dataclass:
    one is built per acked root, per anchored child and per anchored
    decode, and the frozen dataclass's ``object.__setattr__`` calls
    cost about twice this constructor. Equality, hash and repr match
    the dataclass exactly; assigning a field raises ``AttributeError``.
    """

    __slots__ = ("root_id", "edge_id")

    def __init__(self, root_id: int, edge_id: int):
        _set_root_id(self, root_id)
        _set_edge_id(self, edge_id)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not Anchor:
            return NotImplemented
        return (self.root_id == other.root_id
                and self.edge_id == other.edge_id)

    def __hash__(self) -> int:
        return hash((self.root_id, self.edge_id))

    def __repr__(self) -> str:
        return "Anchor(root_id=%r, edge_id=%r)" % (self.root_id,
                                                   self.edge_id)

    def __reduce__(self):
        return Anchor, (self.root_id, self.edge_id)


# The slot descriptors' setters bypass the raising __setattr__.
_set_root_id = Anchor.root_id.__set__
_set_edge_id = Anchor.edge_id.__set__


class StreamTuple:
    """One data tuple in flight.

    A ``__slots__`` class rather than a dataclass: one instance is built
    per emission *and* per wire decode, so construction is squarely on
    the Fig. 8 hot path. Field set, defaults, equality and repr match
    the original dataclass exactly (including being unhashable).
    """

    __slots__ = ("values", "stream", "source_component", "source_worker",
                 "anchor", "trace_id", "seq")

    def __init__(self, values: Tuple[Any, ...], stream: int = DEFAULT_STREAM,
                 source_component: str = "", source_worker: int = -1,
                 anchor: Optional[Anchor] = None,
                 trace_id: Optional[int] = None,
                 seq: Optional[Tuple[int, int]] = None):
        self.values = values if type(values) is tuple else tuple(values)
        self.stream = stream
        self.source_component = source_component
        self.source_worker = source_worker
        self.anchor = anchor
        #: Set only on sampled tuples (see :mod:`repro.sim.trace`);
        #: travels on the wire so every layer can report hop checkpoints.
        self.trace_id = trace_id
        #: ``(epoch, seq)`` stamp set only on tuples flowing into (or out
        #: of) a replica group (see :mod:`repro.streaming.replication`);
        #: travels on the wire so every replica applies identical input
        #: in identical order. ``None`` on all other traffic.
        self.seq = seq

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not StreamTuple:
            return NotImplemented
        return (self.values == other.values
                and self.stream == other.stream
                and self.source_component == other.source_component
                and self.source_worker == other.source_worker
                and self.anchor == other.anchor
                and self.trace_id == other.trace_id
                and self.seq == other.seq)

    __hash__ = None  # mutable record; matches dataclass(eq=True) semantics

    def __repr__(self) -> str:
        return ("StreamTuple(values=%r, stream=%r, source_component=%r, "
                "source_worker=%r, anchor=%r, trace_id=%r, seq=%r)"
                % (self.values, self.stream, self.source_component,
                   self.source_worker, self.anchor, self.trace_id, self.seq))

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __len__(self) -> int:
        return len(self.values)

    def with_values(self, values: Tuple[Any, ...]) -> "StreamTuple":
        return StreamTuple(values=values, stream=self.stream,
                           source_component=self.source_component,
                           source_worker=self.source_worker,
                           anchor=self.anchor, trace_id=self.trace_id,
                           seq=self.seq)


def signal_tuple(kind: str = "flush", source_worker: int = -1) -> StreamTuple:
    """Build a signal tuple (flush-the-cache marker for stateful workers)."""
    return StreamTuple(values=(kind,), stream=SIGNAL_STREAM,
                       source_component="__signal__",
                       source_worker=source_worker)
