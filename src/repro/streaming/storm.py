"""The Storm-like baseline runtime.

This is the system Typhoon is evaluated against: workers communicate
over **application-level TCP connections**, and a tuple sent to *k*
next-hop workers is serialized *k* times (each copy carries distinct
per-destination metadata — §1). Routing state is baked into workers at
deployment; the only reaction to failure is supervisor-local restart
plus Nimbus rescheduling after the 30 s heartbeat timeout.

The implementation note that matters for fidelity: tuple *batches* cross
TCP channels as Python objects, but every cost — per-destination
serialization, per-message syscalls, per-byte copies — is charged from
real encoded byte counts, and the byte counts come from actually encoding
each tuple once with the shared codec.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..coordination.schema import GlobalState
from ..coordination.store import Coordinator
from ..net.hosts import Cluster
from ..net.tcp import TcpChannel
from ..sim.audit import (
    LAYER_REGISTRY,
    LAYER_TRANSPORT,
    R_AFTER_CLOSE,
    R_DELIVER_REJECTED,
    R_UNRESOLVED,
    DeliveryLedger,
)
from ..sim.costs import DEFAULT_COSTS, CostModel
from ..sim.engine import Engine
from ..sim.metrics import MetricsRegistry
from ..sim.rng import as_factory
from .acker import ACKER_COMPONENT, AckerBolt
from .checkpoint import CHECKPOINT_SERVICE, CheckpointStore
from .executor import WorkerExecutor
from .grouping import Router
from .manager import StreamingManager, TopologyRecord
from .physical import PhysicalTopology, WorkerAssignment
from .replay import REPLAY_SERVICE, ReplayService
from .scheduler import RoundRobinScheduler
from .serialize import deserialize_cost, encode_tuple, serialize_cost
from .topology import (
    ALL,
    BOLT,
    Grouping,
    LogicalNode,
    LogicalTopology,
    TopologyBuilder,
)
from .transport import Delivery, Transport
from .tuples import StreamTuple


class _WireBatch:
    """A batch of tuples on a TCP channel; ``len()`` is its wire size."""

    __slots__ = ("tuples", "nbytes", "scope")

    def __init__(self, tuples: List[Tuple[StreamTuple, int]], nbytes: int,
                 scope: int = 0):
        self.tuples = tuples
        self.nbytes = nbytes
        self.scope = scope

    def __len__(self) -> int:
        return self.nbytes


def storm_batch_tuples(batch: object) -> Optional[Tuple[int, int]]:
    """Ledger inspector for the Storm wire format."""
    if isinstance(batch, _WireBatch):
        return batch.scope, len(batch.tuples)
    return None


class WorkerRegistry:
    """Cluster-wide lookup: worker id -> (executor, hostname)."""

    def __init__(self):
        self._entries: Dict[int, Tuple[WorkerExecutor, str]] = {}
        self.lost_tuples = 0

    def register(self, executor: WorkerExecutor, hostname: str) -> None:
        self._entries[executor.worker_id] = (executor, hostname)

    def resolve(self, worker_id: int) -> Optional[Tuple[WorkerExecutor, str]]:
        entry = self._entries.get(worker_id)
        if entry is None or not entry[0].alive:
            return None
        return entry


class StormTransport(Transport):
    """Per-worker TCP transport with per-destination serialization."""

    def __init__(self, engine: Engine, costs: CostModel, worker_id: int,
                 hostname: str, registry: WorkerRegistry,
                 batch_size: int = 100,
                 ledger: Optional[DeliveryLedger] = None, scope: int = 0):
        self.engine = engine
        self.costs = costs
        self.worker_id = worker_id
        self.hostname = hostname
        self.registry = registry
        self.batch_size = batch_size
        self.ledger = ledger
        self.scope = scope
        self._buffers: Dict[int, List[Tuple[StreamTuple, int]]] = {}
        self._channels: Dict[Tuple[int, str], TcpChannel] = {}
        self.tuples_sent = 0
        self.serializations = 0
        self.dropped_after_close = 0
        self.closed = False
        self.on_queue = None

    # -- outbound ---------------------------------------------------------

    def send(self, stream_tuple: StreamTuple,
             dst_worker_ids: Sequence[int]) -> float:
        if self.closed or not dst_worker_ids:
            return 0.0
        nbytes = len(encode_tuple(stream_tuple))
        cost = 0.0
        for dst in dst_worker_ids:
            # One serialization per destination: each copy carries its own
            # destination metadata (the overhead Typhoon eliminates).
            cost += serialize_cost(self.costs, nbytes)
            cost += self.costs.storm_enqueue_per_tuple
            self.serializations += 1
            buffer = self._buffers.setdefault(dst, [])
            buffer.append((stream_tuple, nbytes))
            self.tuples_sent += 1
            if self.ledger is not None:
                self.ledger.record_sent(self.scope)
            if len(buffer) >= self.batch_size:
                cost += self._flush_destination(dst)
        if self.on_queue is not None:
            self._fire_on_queue()
        return cost

    def send_broadcast(self, stream_tuple: StreamTuple,
                       dst_worker_ids: Sequence[int]) -> float:
        # No network-level replication available: degenerate to unicast.
        return self.send(stream_tuple, dst_worker_ids)

    def send_offloaded(self, stream_tuple: StreamTuple, edge_key,
                       dst_worker_ids: Sequence[int]) -> float:
        # SDN offload unavailable: fall back to round-robin.
        if not dst_worker_ids:
            return 0.0
        index = self.tuples_sent % len(dst_worker_ids)
        return self.send(stream_tuple, [dst_worker_ids[index]])

    def flush(self) -> float:
        cost = 0.0
        for dst in list(self._buffers):
            cost += self._flush_destination(dst)
        return cost

    def _flush_destination(self, dst: int) -> float:
        buffer = self._buffers.get(dst)
        if not buffer:
            return 0.0
        self._buffers[dst] = []
        payload = sum(nbytes for _t, nbytes in buffer) + 4 * len(buffer)
        cost = (self.costs.tcp_send_per_message
                + payload * self.costs.tcp_send_per_byte)
        resolved = self.registry.resolve(dst)
        if resolved is None:
            self.registry.lost_tuples += len(buffer)
            if self.ledger is not None:
                self.ledger.record_drop(self.scope, LAYER_REGISTRY,
                                        R_UNRESOLVED, len(buffer))
            return cost
        _executor, dst_host = resolved
        channel = self._channel_to(dst, dst_host)
        channel.send(_WireBatch(buffer, payload, self.scope))
        return cost

    def _channel_to(self, dst: int, dst_host: str) -> TcpChannel:
        key = (dst, dst_host)
        channel = self._channels.get(key)
        if channel is None:
            channel = TcpChannel(
                self.engine, self.costs,
                on_receive=lambda batch, _dst=dst: self._deliver(_dst, batch),
                remote=dst_host != self.hostname,
                name="tcp:%d->%d" % (self.worker_id, dst),
                extra_delay=self.costs.storm_pipeline_delay,
                ledger=self.ledger,
            )
            self._channels[key] = channel
        return channel

    # -- inbound (runs on the destination's side of the channel) -----------

    def _deliver(self, dst: int, batch: _WireBatch) -> None:
        resolved = self.registry.resolve(dst)
        if resolved is None:
            self.registry.lost_tuples += len(batch.tuples)
            if self.ledger is not None:
                self.ledger.record_drop(batch.scope, LAYER_REGISTRY,
                                        R_UNRESOLVED, len(batch.tuples))
            return
        executor, _host = resolved
        cost = (self.costs.tcp_recv_per_message
                + batch.nbytes * self.costs.tcp_recv_per_byte)
        for _stream_tuple, nbytes in batch.tuples:
            cost += deserialize_cost(self.costs, nbytes)
        delivered = executor.deliver(Delivery(
            tuples=[t for t, _n in batch.tuples], cost=cost,
        ))
        if self.ledger is not None:
            if delivered:
                self.ledger.record_delivered(batch.scope, len(batch.tuples))
            else:
                self.ledger.record_drop(batch.scope, LAYER_TRANSPORT,
                                        R_DELIVER_REJECTED, len(batch.tuples))
        if not delivered:
            self.registry.lost_tuples += len(batch.tuples)

    def set_batch_size(self, batch_size: int) -> None:
        self.batch_size = max(1, batch_size)

    def pending_tuples(self) -> int:
        """Tuples sitting in outbound batch buffers (conservation term)."""
        return sum(len(buffer) for buffer in self._buffers.values())

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        # Drain outbound buffers so a retired transport leaves no
        # unaccounted residue (matches TyphoonTransport.close()).
        for buffer in self._buffers.values():
            if buffer:
                self.dropped_after_close += len(buffer)
                if self.ledger is not None:
                    self.ledger.record_drop(self.scope, LAYER_TRANSPORT,
                                            R_AFTER_CLOSE, len(buffer))
        self._buffers.clear()
        for channel in self._channels.values():
            channel.close()


class StormManager(StreamingManager):
    """Nimbus with the default round-robin scheduler."""


class StormCluster:
    """End-to-end baseline runtime: coordinator + Nimbus + supervisors.

    Typical use::

        cluster = StormCluster(engine, num_hosts=3)
        cluster.submit(builder.build())
        engine.run(until=60)
    """

    def __init__(self, engine: Engine, num_hosts: int = 3,
                 costs: CostModel = DEFAULT_COSTS, seed: int = 0):
        self.engine = engine
        self.costs = costs
        self.seeds = as_factory(seed)
        self.cluster = Cluster.of_size(num_hosts)
        self.coordinator = Coordinator(engine, costs)
        self.state = GlobalState(self.coordinator)
        self.metrics = MetricsRegistry(engine)
        self.registry = WorkerRegistry()
        self.ledger = DeliveryLedger(inspector=storm_batch_tuples)
        self.transports: Dict[int, StormTransport] = {}
        self.services: Dict[str, object] = {
            "now": lambda: engine.now,
            REPLAY_SERVICE: ReplayService(),
            CHECKPOINT_SERVICE: CheckpointStore(),
        }
        self.manager = StormManager(engine, costs, self.cluster, self.state,
                                    RoundRobinScheduler())
        from .agent import WorkerAgent  # local import to avoid cycle noise
        for host in self.cluster:
            agent = WorkerAgent(
                engine, costs, host.name, self.state,
                worker_factory=self._make_worker_factory(host.name),
            )
            self.manager.register_agent(agent)

    # -- public API -------------------------------------------------------------

    def submit(self, logical: LogicalTopology) -> PhysicalTopology:
        logical = _with_ackers(logical)
        physical = self.manager.submit(logical)
        self.ledger.name_scope(physical.app_id, logical.topology_id)
        return physical

    def kill_topology(self, topology_id: str) -> None:
        self.manager.kill_topology(topology_id)

    def executor(self, worker_id: int) -> Optional[WorkerExecutor]:
        resolved = self.registry.resolve(worker_id)
        return resolved[0] if resolved else None

    def executors_for(self, topology_id: str,
                      component: str) -> List[WorkerExecutor]:
        record = self.manager.topologies.get(topology_id)
        if record is None:
            return []
        out = []
        for worker_id in record.physical.worker_ids_for(component):
            resolved = self.registry.resolve(worker_id)
            if resolved is not None:
                out.append(resolved[0])
        return out

    def _spout_executors(self, topology_id: str):
        record = self.manager.topologies.get(topology_id)
        if record is None:
            raise KeyError(topology_id)
        out = []
        for spout in record.logical.spouts():
            out.extend(self.executors_for(topology_id, spout.name))
        return out

    def deactivate(self, topology_id: str) -> None:
        """Throttle the topology's spouts (Storm's ``deactivate``
        command, propagated through Nimbus/ZooKeeper)."""
        delay = self.costs.coordinator_op_latency
        for executor in self._spout_executors(topology_id):
            self.engine.schedule(delay, setattr, executor, "active", False)

    def activate(self, topology_id: str) -> None:
        delay = self.costs.coordinator_op_latency
        for executor in self._spout_executors(topology_id):
            self.engine.schedule(delay, setattr, executor, "active", True)

    def set_debug_tap(self, topology_id: str, component: str,
                      enabled: bool) -> None:
        """Toggle replication of ``component``'s output to the topology's
        pre-provisioned debug worker (Storm-style event logging; the extra
        per-destination serialization is the Fig. 12 overhead)."""
        record = self.manager.topologies.get(topology_id)
        if record is None:
            raise KeyError(topology_id)
        debug_ids = record.physical.worker_ids_for("__debug__")
        if not debug_ids:
            raise RuntimeError("topology has no pre-provisioned debug worker")
        for worker in record.physical.workers_for(component):
            resolved = self.registry.resolve(worker.worker_id)
            if resolved is None:
                continue
            executor = resolved[0]
            key = ("__debug__", 0)
            if enabled:
                executor.routers[key] = Router(Grouping(ALL), debug_ids)
            else:
                executor.routers.pop(key, None)

    # -- worker construction --------------------------------------------------------

    def _make_worker_factory(self, hostname: str):
        def factory(assignment: WorkerAssignment) -> WorkerExecutor:
            return self._build_worker(hostname, assignment)

        return factory

    def _build_worker(self, hostname: str,
                      assignment: WorkerAssignment) -> WorkerExecutor:
        record = self._record_of(assignment)
        logical = record.logical
        physical = record.physical
        node = logical.node(assignment.component)
        routers = build_routers(logical, physical, assignment.component)
        transport = StormTransport(
            self.engine, self.costs, assignment.worker_id, hostname,
            self.registry, batch_size=logical.config.batch_size,
            ledger=self.ledger, scope=physical.app_id,
        )
        executor = WorkerExecutor(
            engine=self.engine,
            costs=self.costs,
            assignment=assignment,
            node=node,
            config=logical.config,
            transport=transport,
            routers=routers,
            metrics=self.metrics,
            rng=self.seeds.rng("worker:%d" % assignment.worker_id),
            topology_id=logical.topology_id,
            ackers=physical.worker_ids_for(ACKER_COMPONENT),
            services=getattr(self, "services", {}),
        )
        self.registry.register(executor, hostname)
        self.transports[assignment.worker_id] = transport
        return executor

    def _record_of(self, assignment: WorkerAssignment) -> TopologyRecord:
        for record in self.manager.topologies.values():
            if assignment.worker_id in record.physical.assignments:
                return record
        raise KeyError("no topology owns worker %d" % assignment.worker_id)


def _with_ackers(logical: LogicalTopology) -> LogicalTopology:
    """Add the framework acker node when guaranteed processing is on."""
    if not logical.config.acking or ACKER_COMPONENT in logical.nodes:
        return logical
    out = logical.clone()
    # Ledger expiry above the spout timeout: the spout's own sweeper
    # always declares the root failed first; the acker then garbage
    # collects the stale (or orphaned ack-before-init) entry.
    expiry = logical.config.tuple_timeout * 1.5
    out.nodes[ACKER_COMPONENT] = LogicalNode(
        name=ACKER_COMPONENT, kind=BOLT,
        factory=lambda: AckerBolt(expiry=expiry),
        parallelism=max(1, logical.config.num_ackers),
    )
    return out


def build_routers(logical: LogicalTopology, physical: PhysicalTopology,
                  component: str) -> Dict[Tuple[str, int], Router]:
    """Instantiate per-edge routing state for one worker (Listing 1)."""
    routers: Dict[Tuple[str, int], Router] = {}
    for edge in logical.outgoing(component):
        next_hops = physical.worker_ids_for(edge.dst)
        routers[(edge.dst, edge.stream)] = Router(
            edge.grouping, next_hops, stream=edge.stream
        )
    return routers
