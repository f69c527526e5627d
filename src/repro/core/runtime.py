"""The Typhoon cluster runtime: full §3.2 deployment workflow.

Wires every component of Fig. 3 together on one simulation engine:

1. compute hosts, each with a software SDN switch, meshed by host-level
   TCP tunnels (:class:`~repro.core.io_layer.TyphoonFabric`);
2. the central coordinator (ZooKeeper stand-in) holding Table 1 state;
3. the streaming manager with the locality-aware Typhoon scheduler and
   the dynamic topology manager;
4. per-host worker agents that launch Typhoon workers (three-layer
   design: application / framework / I/O);
5. the SDN controller running the core Typhoon app plus any §4 control
   plane applications.

Submitting a topology follows the paper's five steps: build & schedule,
notification via the coordinator, network setup (flow rules), application
setup (worker launch + switch attach), then data tuple communication.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..coordination.schema import GlobalState
from ..coordination.store import Coordinator
from ..net.hosts import Cluster
from ..sdn.controller import ControllerApp, SdnController
from ..sdn.ha import HAControlPlane
from ..sim.costs import DEFAULT_COSTS, CostModel
from ..sim.engine import Engine, Process
from ..sim.metrics import MetricsRegistry
from ..sim.rng import as_factory
from ..streaming.acker import ACKER_COMPONENT
from ..streaming.agent import WorkerAgent
from ..streaming.checkpoint import CHECKPOINT_SERVICE, CheckpointStore
from ..streaming.replay import REPLAY_SERVICE, ReplayService
from ..streaming.replication import (
    REPLICATION_SERVICE,
    ReplicationService,
    expand_replicas,
)
from ..streaming.executor import WorkerExecutor
from ..streaming.manager import StreamingManager, TopologyRecord
from ..streaming.physical import PhysicalTopology, WorkerAssignment
from ..sim.audit import DeliveryLedger
from ..sim.trace import Tracer
from ..streaming.storm import _with_ackers, build_routers
from ..streaming.topology import ALL, LogicalTopology, TopologyError
from . import control as ct
from .audit import typhoon_frame_tuples
from .tracing import frame_trace_ids
from .apps.bandwidth_allocator import BandwidthAllocator
from .controller import TyphoonControllerApp
from .framework_layer import handle_control_tuple
from .io_layer import TyphoonFabric, TyphoonTransport
from .scheduler import TyphoonScheduler
from .topology_manager import DynamicTopologyManager


def _check_one_broadcast_target(logical: LogicalTopology) -> None:
    """Reject a component that broadcasts to more than one component.

    The controller installs one one-to-many rule per source port over
    the union of its ALL-grouped destinations, but the executor sends
    one broadcast per edge, so each target would receive every tuple
    once per edge (replicated bolts count: their inputs are ALL edges).
    """
    targets: Dict[str, Dict[str, None]] = {}
    for edge in logical.edges:
        if edge.grouping.kind == ALL:
            targets.setdefault(edge.src, {})[edge.dst] = None
    for src, dsts in targets.items():
        if len(dsts) > 1:
            raise TopologyError(
                "%r broadcasts to %d components (%s); Typhoon supports "
                "one ALL-grouped or replicated target per source"
                % (src, len(dsts), ", ".join(dsts)))


class TyphoonManager(StreamingManager):
    """Nimbus refactored for Typhoon (custom scheduler plugged in)."""


class TyphoonCluster:
    """End-to-end Typhoon runtime.

    Typical use::

        engine = Engine()
        typhoon = TyphoonCluster(engine, num_hosts=3)
        typhoon.submit(builder.build())
        engine.run(until=60)
    """

    def __init__(self, engine: Engine, num_hosts: int = 3,
                 costs: CostModel = DEFAULT_COSTS, seed: int = 0,
                 scheduler=None, resource_aware: bool = False,
                 cluster: Optional[Cluster] = None, ha_replicas: int = 0):
        if ha_replicas and resource_aware:
            raise ValueError("resource-aware scheduling is not supported "
                             "with a replicated control plane yet")
        self.engine = engine
        self.costs = costs
        self.seeds = as_factory(seed)
        self.cluster = cluster if cluster is not None \
            else Cluster.of_size(num_hosts)
        self.coordinator = Coordinator(engine, costs)
        self.state = GlobalState(self.coordinator)
        self.metrics = MetricsRegistry(engine)
        self.ledger = DeliveryLedger(inspector=typhoon_frame_tuples)
        # Hop-by-hop tracing (disabled until ``tracer.configure(N)``).
        self.tracer = Tracer(engine, metrics=self.metrics,
                             frame_inspector=frame_trace_ids)
        self.fabric = TyphoonFabric(engine, costs, self.cluster,
                                    ledger=self.ledger, tracer=self.tracer)
        self.executors: Dict[int, WorkerExecutor] = {}
        self.transports: Dict[int, TyphoonTransport] = {}
        self.replication = ReplicationService()
        self.services: Dict[str, object] = {
            "now": lambda: engine.now,
            REPLAY_SERVICE: ReplayService(),
            CHECKPOINT_SERVICE: CheckpointStore(),
            REPLICATION_SERVICE: self.replication,
        }
        #: Replicated control plane (``ha_replicas >= 2``): N controller
        #: instances, leader election over the coordinator, role-fenced
        #: switch channels and post-failover reconciliation. ``None`` in
        #: the default single-controller deployment — that path is
        #: byte-identical to older builds.
        self.ha: Optional[HAControlPlane] = None
        self.bandwidth_allocator = None
        if ha_replicas:
            self._sdn = None
            self._app = None
            self.ha = HAControlPlane(engine, costs, self.coordinator,
                                     ledger=self.ledger,
                                     replicas=ha_replicas)
            self.ha.register_app_factory(self._build_core_app)
            self.ha.attach_switches(self.fabric.switches())
            self.ha.start()
        else:
            self._sdn = SdnController(engine, costs,
                                      name="typhoon-floodlight")
            self._sdn.ledger = self.ledger
            self._app = self._build_core_app()
            self._sdn.register_app(self._app)
            for switch in self.fabric.switches():
                self._sdn.connect_switch(switch)
            #: Online SDN bandwidth allocation rides with resource-aware
            #: scheduling; the default path installs neither the app nor
            #: any meters, keeping behavior byte-identical to older
            #: builds.
            if resource_aware:
                self.bandwidth_allocator = BandwidthAllocator(self._app,
                                                              self.cluster)
                self._sdn.register_app(self.bandwidth_allocator)
                self._app.bandwidth_policy = self.bandwidth_allocator
        self.manager = TyphoonManager(
            engine, costs, self.cluster, self.state,
            scheduler or TyphoonScheduler(resource_aware=resource_aware))
        #: ``listener(topology_id, op, phase)`` callbacks fired at the
        #: named phases of the Fig. 6 stable-update procedures (see
        #: :mod:`repro.core.update`); the chaos harness injects here.
        self.update_phase_listeners: List = []
        for host in self.cluster:
            agent = WorkerAgent(
                engine, costs, host.name, self.state,
                worker_factory=self._make_worker_factory(host.name),
            )
            self.manager.register_agent(agent)
        self.topology_manager = DynamicTopologyManager(self)

    def _build_core_app(self) -> TyphoonControllerApp:
        app = TyphoonControllerApp(self.state, self.fabric)
        # Replica failover rides the same port-status signal the fault
        # detector uses: a dead replica's switch port vanishing demotes
        # it (and promotes a new leader when it led the group).
        app.port_delete_listeners.append(
            lambda dpid, worker_id: self.replication.on_worker_down(worker_id))
        app.port_add_listeners.append(
            lambda dpid, worker_id: self.replication.on_worker_up(worker_id))
        return app

    # -- control plane accessors --------------------------------------------

    @property
    def sdn(self) -> SdnController:
        """The (active) SDN controller. Under HA this follows the elected
        leader, so callers always talk to the controller that owns the
        switches."""
        if self.ha is not None:
            return self.ha.active_sdn
        return self._sdn

    @property
    def app(self) -> TyphoonControllerApp:
        """The (active) core Typhoon control-plane app."""
        if self.ha is not None:
            return self.ha.active_sdn.app(TyphoonControllerApp.name)
        return self._app

    # -- public API ---------------------------------------------------------

    def submit(self, logical: LogicalTopology) -> PhysicalTopology:
        """Deploy a topology (steps i–v of §3.2)."""
        logical = expand_replicas(logical)
        _check_one_broadcast_target(logical)
        logical = _with_ackers(logical)
        physical = self.manager.submit(logical)
        self.ledger.name_scope(physical.app_id, logical.topology_id)
        self.replication.register_topology(logical, physical)
        self.app.manage(logical.topology_id)
        return physical

    def kill_topology(self, topology_id: str) -> None:
        self.app.unmanage(topology_id)
        self.replication.unregister_topology(topology_id)
        self.manager.kill_topology(topology_id)

    def register_app(self, app: ControllerApp) -> ControllerApp:
        """Deploy an SDN control plane application (§4)."""
        if self.ha is not None:
            raise ValueError(
                "replicated control plane: every replica needs its own app "
                "instance — use register_app_factory instead")
        return self._sdn.register_app(app)

    def register_app_factory(self, factory) -> None:
        """Deploy a control plane app from a factory — one instance per
        controller replica under HA, a single instance otherwise."""
        if self.ha is not None:
            self.ha.register_app_factory(factory)
        else:
            self._sdn.register_app(factory())

    def executor(self, worker_id: int) -> Optional[WorkerExecutor]:
        executor = self.executors.get(worker_id)
        if executor is None or not executor.alive:
            return None
        return executor

    def executors_for(self, topology_id: str,
                      component: str) -> List[WorkerExecutor]:
        record = self.manager.topologies.get(topology_id)
        if record is None:
            return []
        out = []
        for worker_id in record.physical.worker_ids_for(component):
            executor = self.executor(worker_id)
            if executor is not None:
                out.append(executor)
        return out

    def record(self, topology_id: str) -> TopologyRecord:
        return self.manager.topologies[topology_id]

    # -- topology-level controls via control tuples ----------------------------

    def _spout_worker_ids(self, topology_id: str) -> List[int]:
        record = self.record(topology_id)
        out: List[int] = []
        for spout in record.logical.spouts():
            out.extend(record.physical.worker_ids_for(spout.name))
        return out

    def activate(self, topology_id: str) -> None:
        for worker_id in self._spout_worker_ids(topology_id):
            self.app.send_control(topology_id, worker_id, ct.activate())

    def deactivate(self, topology_id: str) -> None:
        """Throttle the first workers of a topology (Table 2)."""
        for worker_id in self._spout_worker_ids(topology_id):
            self.app.send_control(topology_id, worker_id, ct.deactivate())

    def set_input_rate(self, topology_id: str,
                       rate: Optional[float]) -> None:
        for worker_id in self._spout_worker_ids(topology_id):
            self.app.send_control(topology_id, worker_id, ct.input_rate(rate))

    def set_batch_size(self, topology_id: str, size: int) -> None:
        record = self.record(topology_id)
        for worker_id in record.physical.assignments:
            self.app.send_control(topology_id, worker_id, ct.batch_size(size))

    # -- reconfiguration shortcuts (dynamic topology manager) --------------------

    def set_parallelism(self, topology_id: str, component: str,
                        parallelism: int) -> Process:
        return self.topology_manager.set_parallelism(
            topology_id, component, parallelism)

    def replace_computation(self, topology_id: str, component: str,
                            factory, parallelism: Optional[int] = None) -> Process:
        return self.topology_manager.replace_computation(
            topology_id, component, factory, parallelism)

    def set_grouping(self, topology_id: str, src: str, dst: str,
                     grouping) -> Process:
        return self.topology_manager.set_grouping(topology_id, src, dst,
                                                  grouping)

    def attach_component(self, topology_id: str, name: str, factory,
                         subscribe_to: str, grouping,
                         parallelism: int = 1, stream: int = 0,
                         stateful: bool = False) -> Process:
        return self.topology_manager.attach_component(
            topology_id, name, factory, subscribe_to, grouping,
            parallelism, stream, stateful)

    def detach_component(self, topology_id: str, name: str) -> Process:
        return self.topology_manager.detach_component(topology_id, name)

    def relocate_worker(self, topology_id: str, worker_id: int,
                        new_host: str) -> Process:
        return self.topology_manager.relocate_worker(topology_id, worker_id,
                                                     new_host)

    # -- worker construction -----------------------------------------------------

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
        transport = TyphoonTransport(
            self.engine, self.costs,
            worker_id=assignment.worker_id,
            app_id=physical.app_id,
            host_fabric=self.fabric.host(hostname),
            batch_size=logical.config.batch_size,
        )
        from ..streaming.topology import SDN_SELECT
        from .rules import select_address
        for edge in logical.outgoing(assignment.component):
            if edge.grouping.kind == SDN_SELECT:
                transport.select_addresses[(edge.dst, edge.stream)] = (
                    select_address(physical.app_id, edge.dst, edge.stream)
                )
        executor = WorkerExecutor(
            engine=self.engine,
            costs=self.costs,
            assignment=assignment,
            node=node,
            config=logical.config,
            transport=transport,
            routers=build_routers(logical, physical, assignment.component),
            metrics=self.metrics,
            rng=self.seeds.rng("worker:%d" % assignment.worker_id),
            topology_id=logical.topology_id,
            ackers=physical.worker_ids_for(ACKER_COMPONENT),
            services=self.services,
            control_handler=handle_control_tuple,
            tracer=self.tracer,
        )
        # Typhoon spouts deploy throttled; the controller ACTIVATEs them
        # once the topology's flow rules are installed (§3.2 step v).
        if executor.is_spout:
            executor.active = False
        if self.replication.active():
            # Senders into a replica group stamp the sequencer on their
            # broadcast edge (routers are keyed (dst_component, stream)).
            for key, router in executor.routers.items():
                group = self.replication.group_of(logical.topology_id,
                                                  key[0])
                if group is not None:
                    router.replication_group = group
        transport.deliver = executor.deliver
        transport.attach()
        self.executors[assignment.worker_id] = executor
        self.transports[assignment.worker_id] = transport
        return executor

    def _record_of(self, assignment: WorkerAssignment) -> TopologyRecord:
        for record in self.manager.topologies.values():
            if assignment.worker_id in record.physical.assignments:
                return record
        raise KeyError("no topology owns worker %d" % assignment.worker_id)
