"""Logical topologies and the application programming API.

A stream application is a DAG of *nodes* (Fig. 2a). Each node defines

* a data computing function (a :class:`Spout` or :class:`Bolt` subclass,
  created per worker by a factory),
* a routing policy toward each downstream node (a grouping, §2), and
* a degree of parallelism.

Logical topologies are built with :class:`TopologyBuilder` (the
framework-provided API the paper mentions) and are *versioned*: Typhoon's
dynamic topology manager mutates a copy and bumps the version, which is
how runtime reconfiguration propagates through the coordinator.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .tuples import DEFAULT_STREAM, StreamTuple

SPOUT = "spout"
BOLT = "bolt"

# Grouping (routing policy) types — §2 "Data tuple routing policies".
SHUFFLE = "shuffle"      # round robin, load balancing, stateless workers
FIELDS = "fields"        # key-based: same key -> same worker, stateful
GLOBAL = "global"        # everything to one specific worker (sinks)
ALL = "all"              # copy to every connected next worker (broadcast)
SDN_SELECT = "sdn_select"  # routing fully offloaded to SDN (load balancer, §4)

GROUPINGS = (SHUFFLE, FIELDS, GLOBAL, ALL, SDN_SELECT)


class TopologyError(ValueError):
    """Raised for malformed topology definitions."""


# -- user computation API ------------------------------------------------------


class Component:
    """Common base for spouts and bolts."""

    def open(self, ctx: "ComponentContext") -> None:
        """Called once when the hosting worker starts."""

    def close(self) -> None:
        """Called when the hosting worker shuts down cleanly."""

    def on_signal(self, signal: StreamTuple, collector: "EmitterApi") -> None:
        """Handle a signal tuple (stateful workers flush caches here)."""

    def snapshot(self) -> Optional[Any]:
        """Checkpointing: return the state to persist, or None to skip.

        Called periodically by the executor when the topology enables
        ``checkpoint_interval`` and the node is stateful. The returned
        object is deep-copied into the checkpoint store, so sharing live
        structures is safe."""
        return None

    def restore(self, state: Any) -> None:
        """Checkpointing: re-initialize from a persisted snapshot.

        Called once after ``open`` when a relaunched worker finds a
        snapshot in the checkpoint store."""


class Spout(Component):
    """A data source. ``next_tuple`` emits zero or more tuples per call."""

    #: Optional batch hook: ``next_tuple_batch(collector, want)`` emits up
    #: to ``want`` tuples in one call, each equivalent to one
    #: ``next_tuple`` call that emitted exactly one tuple. The executor
    #: invokes it, with or without acking, once a window's first
    #: ``next_tuple`` call has armed a single-edge lane (never under
    #: tracing or billed services), and replays per-tuple costs as if
    #: ``next_tuple`` had been called once per emission, so implementing
    #: it never changes results — only call overhead. Implementations
    #: must emit on a single stream, passing ``emit_many`` the
    #: ``message_ids`` that ``next_tuple`` would give (under acking that
    #: call registers one root per emission in one loop); they must not
    #: use ``charge()`` or direct emissions, and accept batch-granularity
    #: crash semantics (an exception forfeits the rest of the call;
    #: emissions made before it are sent). A hook that deviates (under
    #: acking, also one that emits without ids or through ``emit``) is
    #: handled deterministically, though not as a per-call replay.
    #: Leave as ``None`` for the classic per-call protocol.
    next_tuple_batch = None

    def next_tuple(self, collector: "EmitterApi") -> None:
        raise NotImplementedError

    def ack(self, message_id: Any) -> None:
        """Guaranteed processing: the tuple tree completed."""

    def fail(self, message_id: Any) -> None:
        """Guaranteed processing: the tuple tree failed/timed out."""


class Bolt(Component):
    """A processing node. ``execute`` consumes one tuple."""

    #: Optional batch hook: ``execute_batch(stream_tuples, collector)``
    #: consumes a whole single-stream delivery in one call, equivalent to
    #: calling ``execute`` once per tuple. The executor invokes it only
    #: for uniform data-stream train deliveries on the non-acked,
    #: non-traced path, and replays per-tuple compute costs exactly, so
    #: implementing it never changes results — only call overhead.
    #: Implementations must not emit per input tuple or use ``charge()``
    #: (terminal sinks are the intended users), and accept
    #: batch-granularity crash semantics (an exception forfeits the
    #: whole delivery). Leave as ``None`` for the per-tuple protocol.
    execute_batch = None

    def execute(self, stream_tuple: StreamTuple, collector: "EmitterApi") -> None:
        raise NotImplementedError


class EmitterApi:
    """What components see of the output collector."""

    # Empty slots so the concrete collector can be a __slots__ class:
    # emit() runs once per tuple produced anywhere in the system, and
    # slot loads beat instance-dict lookups there. Subclasses that
    # declare no __slots__ of their own still get a dict as usual.
    __slots__ = ()

    def emit(self, values: Sequence[Any], stream: int = DEFAULT_STREAM,
             anchor: Optional[StreamTuple] = None,
             message_id: Any = None) -> None:
        raise NotImplementedError

    def emit_many(self, values_seq: Sequence[Sequence[Any]],
                  stream: int = DEFAULT_STREAM,
                  message_ids: Optional[Sequence[Any]] = None) -> None:
        """Bulk emit: exactly ``emit(values, stream)`` for each item, in
        order — or, with ``message_ids`` (one per item), ``emit(values,
        stream, message_id=id)``, so a spout's batch hook can emit acked
        roots. Anchored emissions must be made one at a time. This
        default is literally that loop; the runtime collector overrides
        it with batched lanes that hoist the per-call checks out of the
        loop (and, under acking, register every root in one pass)."""
        if message_ids is None:
            for values in values_seq:
                self.emit(values, stream)
            return
        if len(message_ids) != len(values_seq):
            raise ValueError("emit_many: %d message ids for %d tuples"
                             % (len(message_ids), len(values_seq)))
        for values, message_id in zip(values_seq, message_ids):
            self.emit(values, stream, message_id=message_id)

    def ack(self, stream_tuple: StreamTuple) -> None:
        raise NotImplementedError

    def fail(self, stream_tuple: StreamTuple) -> None:
        raise NotImplementedError

    def charge(self, seconds: float) -> None:
        """Bill extra virtual compute time for the current call (used to
        model expensive user computations or external service calls)."""
        raise NotImplementedError


@dataclass
class ComponentContext:
    """Runtime information handed to a component in ``open``."""

    topology_id: str
    component: str
    worker_id: int
    task_index: int
    parallelism: int
    rng: Any = None
    services: Dict[str, Any] = field(default_factory=dict)


# -- logical structure -------------------------------------------------------------


@dataclass(frozen=True)
class Grouping:
    """A routing policy on an edge."""

    kind: str
    fields: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in GROUPINGS:
            raise TopologyError("unknown grouping %r" % self.kind)
        if self.kind == FIELDS and not self.fields:
            raise TopologyError("fields grouping requires key field indices")
        if self.kind != FIELDS and self.fields:
            raise TopologyError("only fields grouping takes field indices")


@dataclass(frozen=True)
class Edge:
    """A directed logical connection src -> dst on one stream."""

    src: str
    dst: str
    grouping: Grouping
    stream: int = DEFAULT_STREAM


@dataclass(frozen=True)
class ResourceDemand:
    """Per-worker resource demand vector (R-Storm style).

    Units match :class:`~repro.net.hosts.HostCapacity`: ``cpu`` in
    abstract compute units, ``memory`` in megabytes, ``bandwidth`` in
    bytes/second of emitted traffic. The all-zero default means "no
    declared demand": the resource-aware scheduler then places purely by
    locality and never rejects on capacity.
    """

    cpu: float = 0.0
    memory: float = 0.0
    bandwidth: float = 0.0

    def __post_init__(self) -> None:
        if self.cpu < 0 or self.memory < 0 or self.bandwidth < 0:
            raise TopologyError("resource demands must be non-negative")


@dataclass
class LogicalNode:
    """One node of the logical DAG."""

    name: str
    kind: str
    factory: Callable[[], Component]
    parallelism: int = 1
    stateful: bool = False
    max_pending: Optional[int] = None  # spouts: in-flight cap when acking
    replicas: int = 1  # >1: active replication (exactly-once, see replication.py)
    demand: Optional[ResourceDemand] = None  # per-worker resource vector

    def __post_init__(self) -> None:
        if self.kind not in (SPOUT, BOLT):
            raise TopologyError("node kind must be spout or bolt")
        if self.parallelism < 1:
            raise TopologyError("parallelism must be >= 1")
        if self.replicas < 1:
            raise TopologyError("replicas must be >= 1")
        if self.replicas > 1:
            if self.kind != BOLT or not self.stateful:
                raise TopologyError(
                    "replicas > 1 requires a stateful bolt (%r)" % self.name)
            if self.parallelism not in (1, self.replicas):
                # One logical task; expand_replicas raises parallelism
                # to the replica count at deployment.
                raise TopologyError(
                    "replicated node %r is a single logical task; leave "
                    "parallelism at 1 (replicas set the copy count)"
                    % self.name)


@dataclass
class TopologyConfig:
    """Per-topology runtime configuration."""

    acking: bool = False
    num_ackers: int = 1
    tuple_timeout: float = 30.0
    batch_size: int = 100             # Typhoon I/O batch size
    enable_oom: bool = False          # kill workers exceeding memory limit
    max_spout_rate: Optional[float] = None  # tuples/sec per spout worker
    # Reliability loop (replay / checkpoint / reliable control). All off
    # by default: enabling any of them changes scheduling and RNG use,
    # and default-path runs must stay byte-identical.
    max_pending: Optional[int] = None       # spouts: in-flight root cap
    replay_enabled: bool = False            # framework-level spout replay
    replay_max_retries: int = 8             # per-message retry budget
    replay_backoff_base: float = 0.25       # first-retry delay (seconds)
    replay_backoff_factor: float = 2.0      # exponential backoff factor
    replay_backoff_max: float = 2.0         # backoff ceiling (seconds)
    checkpoint_interval: Optional[float] = None  # stateful snapshots (s)
    reliable_control: bool = False          # acked, retried control tuples


class LogicalTopology:
    """An immutable-ish logical DAG plus reconfiguration helpers."""

    def __init__(self, topology_id: str, nodes: Dict[str, LogicalNode],
                 edges: List[Edge], config: Optional[TopologyConfig] = None,
                 version: int = 0):
        self.topology_id = topology_id
        self.nodes = nodes
        self.edges = edges
        self.config = config or TopologyConfig()
        self.version = version
        self._validate()

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        names = set(self.nodes)
        for edge in self.edges:
            if edge.src not in names or edge.dst not in names:
                raise TopologyError("edge %s->%s references unknown node"
                                    % (edge.src, edge.dst))
            if self.nodes[edge.dst].kind == SPOUT:
                raise TopologyError("spout %r cannot have inputs" % edge.dst)
        if not any(node.kind == SPOUT for node in self.nodes.values()):
            raise TopologyError("topology needs at least one spout")
        self._check_acyclic()
        for name, node in self.nodes.items():
            if node.stateful:
                if node.replicas > 1:
                    # Replica groups receive the full sequenced stream
                    # (ALL-grouped by expand_replicas) — stronger than
                    # the key-routing Table 4 asks for.
                    continue
                for edge in self.incoming(name):
                    if edge.stream != DEFAULT_STREAM:
                        continue
                    if edge.grouping.kind not in (FIELDS, GLOBAL):
                        raise TopologyError(
                            "stateful node %r requires key-based or global "
                            "routing on data inputs (Table 4)" % name
                        )

    def _check_acyclic(self) -> None:
        adjacency: Dict[str, List[str]] = {name: [] for name in self.nodes}
        indegree = {name: 0 for name in self.nodes}
        for edge in self.edges:
            adjacency[edge.src].append(edge.dst)
            indegree[edge.dst] += 1
        frontier = [n for n, d in indegree.items() if d == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            for nxt in adjacency[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    frontier.append(nxt)
        if seen != len(self.nodes):
            raise TopologyError("topology contains a cycle")

    # -- queries -------------------------------------------------------------------

    def node(self, name: str) -> LogicalNode:
        if name not in self.nodes:
            raise TopologyError("no node named %r" % name)
        return self.nodes[name]

    def outgoing(self, name: str) -> List[Edge]:
        return [e for e in self.edges if e.src == name]

    def incoming(self, name: str) -> List[Edge]:
        return [e for e in self.edges if e.dst == name]

    def spouts(self) -> List[LogicalNode]:
        return [n for n in self.nodes.values() if n.kind == SPOUT]

    def bolts(self) -> List[LogicalNode]:
        return [n for n in self.nodes.values() if n.kind == BOLT]

    def total_workers(self) -> int:
        return sum(n.parallelism for n in self.nodes.values())

    # -- reconfiguration (used by the dynamic topology manager) ----------------------

    def clone(self) -> "LogicalTopology":
        return LogicalTopology(
            self.topology_id,
            {name: replace(node) for name, node in self.nodes.items()},
            list(self.edges),
            copy.copy(self.config),
            self.version,
        )

    def with_parallelism(self, name: str, parallelism: int) -> "LogicalTopology":
        out = self.clone()
        out.node(name).parallelism = parallelism
        out.version += 1
        out._validate()
        return out

    def with_factory(self, name: str,
                     factory: Callable[[], Component]) -> "LogicalTopology":
        out = self.clone()
        out.node(name).factory = factory
        out.version += 1
        return out

    def with_grouping(self, src: str, dst: str,
                      grouping: Grouping) -> "LogicalTopology":
        out = self.clone()
        for i, edge in enumerate(out.edges):
            if edge.src == src and edge.dst == dst:
                out.edges[i] = Edge(src, dst, grouping, edge.stream)
                out.version += 1
                out._validate()
                return out
        raise TopologyError("no edge %s->%s" % (src, dst))


# -- builder -----------------------------------------------------------------------------


class _BoltDeclarer:
    """Fluent grouping declarations, Storm style."""

    def __init__(self, builder: "TopologyBuilder", name: str):
        self._builder = builder
        self._name = name

    def shuffle_grouping(self, src: str, stream: int = DEFAULT_STREAM):
        self._builder._add_edge(src, self._name, Grouping(SHUFFLE), stream)
        return self

    def fields_grouping(self, src: str, fields: Sequence[int],
                        stream: int = DEFAULT_STREAM):
        self._builder._add_edge(src, self._name,
                                Grouping(FIELDS, tuple(fields)), stream)
        return self

    def global_grouping(self, src: str, stream: int = DEFAULT_STREAM):
        self._builder._add_edge(src, self._name, Grouping(GLOBAL), stream)
        return self

    def all_grouping(self, src: str, stream: int = DEFAULT_STREAM):
        self._builder._add_edge(src, self._name, Grouping(ALL), stream)
        return self

    def sdn_select_grouping(self, src: str, stream: int = DEFAULT_STREAM):
        self._builder._add_edge(src, self._name, Grouping(SDN_SELECT), stream)
        return self


class TopologyBuilder:
    """Constructs a :class:`LogicalTopology` from component declarations."""

    def __init__(self, topology_id: str,
                 config: Optional[TopologyConfig] = None):
        if not topology_id:
            raise TopologyError("topology id must be non-empty")
        self.topology_id = topology_id
        self.config = config or TopologyConfig()
        self._nodes: Dict[str, LogicalNode] = {}
        self._edges: List[Edge] = []

    def set_spout(self, name: str, factory: Callable[[], Component],
                  parallelism: int = 1,
                  max_pending: Optional[int] = None,
                  demand: Optional[ResourceDemand] = None) -> "TopologyBuilder":
        self._add_node(LogicalNode(name, SPOUT, factory, parallelism,
                                   max_pending=max_pending, demand=demand))
        return self

    def set_bolt(self, name: str, factory: Callable[[], Component],
                 parallelism: int = 1, stateful: bool = False,
                 replicas: int = 1,
                 demand: Optional[ResourceDemand] = None) -> _BoltDeclarer:
        self._add_node(LogicalNode(name, BOLT, factory, parallelism,
                                   stateful=stateful, replicas=replicas,
                                   demand=demand))
        return _BoltDeclarer(self, name)

    def _add_node(self, node: LogicalNode) -> None:
        if node.name in self._nodes:
            raise TopologyError("duplicate node name %r" % node.name)
        self._nodes[node.name] = node

    def _add_edge(self, src: str, dst: str, grouping: Grouping,
                  stream: int) -> None:
        self._edges.append(Edge(src, dst, grouping, stream))

    def build(self) -> LogicalTopology:
        return LogicalTopology(self.topology_id, dict(self._nodes),
                               list(self._edges), self.config)
