"""Host-based software SDN switch (the DPDK-OVS stand-in).

Each compute host runs one :class:`SoftwareSwitch`. Workers attach to
numbered ports (shared-memory ring buffers in the prototype); one or more
*tunnel* ports lead to peer hosts over host-level TCP tunnels (§3.3.1).

Forwarding is modelled as a single busy-server: every packet occupies the
switch for ``lookup + per-output copy`` virtual time, so an overloaded
switch builds backlog and eventually drops (the TX-queue overflow the
paper discusses in §8). Per-packet cost is far below per-tuple
serialization cost, which is exactly why network-level replication beats
application-level broadcast (Fig. 9).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..net.ethernet import EthernetFrame
from ..sim.audit import (
    LAYER_SWITCH,
    R_BACKLOG_OVERFLOW,
    R_CONTROL_BACKLOG,
    R_METER_LIMIT,
    R_NO_CONTROLLER,
    R_NO_GROUP,
    R_NO_OUTPUT,
    R_PORT_DOWN,
    R_SWITCH_DOWN,
    R_TABLE_MISS,
    DeliveryLedger,
)
from ..sim.costs import CostModel
from ..sim.engine import Engine
from ..sim.trace import H_PACKET_IN, H_REPLICATE, H_SWITCH, Tracer
from .flow import (
    OFPP_CONTROLLER,
    Action,
    FlowEntry,
    FlowTable,
    GroupAction,
    Match,
    Meter,
    Output,
    SetDlDst,
    SetTunnelDst,
)
from .group import GroupEntry, GroupTable
from .openflow import (
    ADD,
    DELETE,
    DELETE_STRICT,
    MODIFY,
    OFPP_TABLE,
    FlowMod,
    FlowRemoved,
    FlowStatsEntry,
    FlowStatsReply,
    FlowStatsRequest,
    GroupMod,
    Message,
    MeterMod,
    MeterStatsEntry,
    MeterStatsReply,
    MeterStatsRequest,
    PacketIn,
    PacketOut,
    PortStatsEntry,
    PortStatsReply,
    PortStatsRequest,
    PortStatus,
    RoleReply,
    RoleRequest,
    SwitchReconnect,
    REASON_ACTION,
    REASON_DELETE,
    REASON_IDLE_TIMEOUT,
    PORT_ADD,
    PORT_DELETE,
    ROLE_MASTER,
    ROLE_SLAVE,
)

#: A port sink receives ``(frame, tun_dst)``; tun_dst is only meaningful
#: for tunnel ports and carries the peer host selected by SetTunnelDst.
PortSink = Callable[[EthernetFrame, Optional[str]], None]


class SwitchPort:
    """One switch port and its traffic counters."""

    WORKER = "worker"
    TUNNEL = "tunnel"

    def __init__(self, number: int, name: str, sink: PortSink, kind: str):
        self.number = number
        self.name = name
        self.sink = sink
        self.kind = kind
        self.up = True
        self.rx_packets = 0
        self.tx_packets = 0
        self.rx_bytes = 0
        self.tx_bytes = 0
        self.tx_dropped = 0

    def stats_entry(self) -> PortStatsEntry:
        return PortStatsEntry(
            port_no=self.number,
            port_name=self.name,
            rx_packets=self.rx_packets,
            tx_packets=self.tx_packets,
            rx_bytes=self.rx_bytes,
            tx_bytes=self.tx_bytes,
            tx_dropped=self.tx_dropped,
        )


class MeterState:
    """One installed rate meter: a token-bucket shaper with a bounded
    virtual queue.

    Modelled as a virtual serialization horizon ``next_free``: each
    admitted frame advances it by ``bytes/rate``; a ``burst`` allowance
    caps how much idle credit accumulates. Frames whose queueing delay
    would exceed ``max_queue`` seconds are dropped (the rate queue's
    finite depth), attributed as ``meter-limit``.
    """

    __slots__ = ("meter_id", "rate", "burst", "max_queue", "next_free",
                 "packets", "bytes", "dropped_packets", "dropped_bytes")

    def __init__(self, meter_id: int, rate: float, burst: float,
                 max_queue: float):
        self.meter_id = meter_id
        self.rate = rate
        self.burst = burst
        self.max_queue = max_queue
        self.next_free = 0.0
        self.packets = 0
        self.bytes = 0
        self.dropped_packets = 0
        self.dropped_bytes = 0

    def configure(self, rate: float, burst: float, max_queue: float) -> None:
        self.rate = rate
        self.burst = burst
        self.max_queue = max_queue

    def shape(self, nbytes: int, ready_at: float) -> "tuple[float, bool]":
        """Admit one frame at ``ready_at``; returns (departure, dropped)."""
        floor = ready_at - (self.burst / self.rate if self.burst else 0.0)
        horizon = self.next_free
        if horizon < floor:
            horizon = floor
        horizon += nbytes / self.rate
        if horizon - ready_at > self.max_queue:
            self.dropped_packets += 1
            self.dropped_bytes += nbytes
            return ready_at, True
        self.next_free = horizon
        self.packets += 1
        self.bytes += nbytes
        return (horizon if horizon > ready_at else ready_at), False

    def stats_entry(self) -> MeterStatsEntry:
        return MeterStatsEntry(
            meter_id=self.meter_id,
            rate_bytes_per_sec=self.rate,
            packets=self.packets,
            bytes=self.bytes,
            dropped_packets=self.dropped_packets,
            dropped_bytes=self.dropped_bytes,
        )


class _FrameAccount:
    """Dispositions of one frame traversal, for replication accounting.

    A frame entering the switch is one copy; action processing emits it
    to ``emitted + controller + dropped`` final dispositions. Anything
    above one is switch-level replication (broadcast, mirror rules);
    zero means the frame died without any output at all.
    """

    __slots__ = ("emitted", "controller", "dropped")

    def __init__(self) -> None:
        self.emitted = 0
        self.controller = 0
        self.dropped = 0

    @property
    def total(self) -> int:
        return self.emitted + self.controller + self.dropped


class _ControlChannel:
    """One named controller connection (OpenFlow 1.2+ multi-controller).

    A switch accepting several controllers keeps one channel per
    controller name; exactly one may hold the MASTER role at a time and
    only that one may mutate switch state.
    """

    __slots__ = ("name", "deliver", "role", "up")

    def __init__(self, name: str, deliver: Callable[[Message], None]):
        self.name = name
        self.deliver = deliver
        self.role = ROLE_SLAVE
        self.up = True


class SoftwareSwitch:
    """Flow-rule driven frame forwarding on one host."""

    #: Maximum forwarding backlog before packets are dropped (models
    #: bounded TX/RX rings).
    MAX_BACKLOG_SECONDS = 0.005

    #: Bound on events buffered for the control plane while no master
    #: controller is reachable (fail-safe blackout mode). Overflow is
    #: dropped tail-first and attributed in the delivery ledger.
    MAX_PENDING_CONTROLLER = 512

    #: The switch keeps no lookup cache; the benchmark's counters still
    #: read these two names.
    cache_hits = 0
    cache_misses = 0

    def __init__(self, engine: Engine, costs: CostModel, dpid: str,
                 idle_sweep_interval: float = 1.0,
                 ledger: Optional[DeliveryLedger] = None,
                 tracer: Optional[Tracer] = None):
        self.engine = engine
        self.costs = costs
        self.dpid = dpid
        self.ledger = ledger
        self.tracer = tracer
        self.flows = FlowTable()
        self.groups = GroupTable()
        self.meters: Dict[int, MeterState] = {}
        self.ports: Dict[int, SwitchPort] = {}
        self._next_port = 1
        self._busy_until = 0.0
        self.up = True
        self.crashes = 0
        self.control_lost_while_down = 0
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.table_misses = 0
        self.group_misses = 0
        self.meter_drops = 0
        #: Multi-frame flushes received through :meth:`inject_train`.
        self.trains = 0
        #: Set by the controller when it connects; receives event Messages.
        #: With named channels registered this is a derived pointer to the
        #: live master channel's deliver callback (or None in blackout).
        self._to_controller: Optional[Callable[[Message], None]] = None
        #: Named controller channels (replicated control plane). Empty in
        #: the classic single-controller wiring.
        self._channels: Dict[str, _ControlChannel] = {}
        self._master_channel: Optional[str] = None
        #: Largest master generation-id granted; MASTER claims below this
        #: are rejected (split-brain fencing, OpenFlow 1.2+).
        self.master_generation = -1
        self.stale_master_rejections = 0
        #: Fail-safe blackout buffer: events held for the next master.
        self._pending_ctrl: List[Message] = []
        self.max_pending_controller = self.MAX_PENDING_CONTROLLER
        self.pending_high_water = 0
        self.pending_overflow_dropped = 0
        #: Events from this switch dropped by the controller's bounded
        #: outage backlog (bumped by the controller for attribution).
        self.controller_backlog_dropped = 0
        #: Stats replies from a slave-role channel return to the asking
        #: channel, not the master; set around the reply dispatch.
        self._reply_override: Optional[Callable[[Message], None]] = None
        self._sweep_interval = idle_sweep_interval
        self._sweeper = engine.process(self._sweep_idle(), name="sweep:%s" % dpid)

    # -- controller connectivity ------------------------------------------

    def connect_controller(self, deliver: Callable[[Message], None]) -> None:
        self._to_controller = deliver

    def register_controller(self, name: str,
                            deliver: Callable[[Message], None]) -> None:
        """Attach a named controller channel (replicated control plane).

        The channel starts in the SLAVE role: it receives no events and
        may not mutate switch state until it wins a
        :class:`~repro.sdn.openflow.RoleRequest` master claim.
        """
        if name in self._channels:
            raise ValueError("controller channel %r already registered"
                             % name)
        self._channels[name] = _ControlChannel(name, deliver)

    @property
    def master_controller(self) -> Optional[str]:
        return self._master_channel

    def channels(self) -> Tuple[str, ...]:
        """Registered controller channel names, sorted."""
        return tuple(sorted(self._channels))

    def set_channel_up(self, name: str, up: bool) -> None:
        """Mark a controller channel alive/dead (chaos: replica outage).

        Losing the master channel starts fail-safe blackout mode: the
        data plane keeps forwarding on installed rules while events are
        buffered (bounded) for the next master.
        """
        channel = self._channels.get(name)
        if channel is None or channel.up == up:
            return
        channel.up = up
        if name == self._master_channel:
            if not up:
                self._to_controller = None
            else:
                self._to_controller = channel.deliver
                self._flush_pending(channel.deliver)

    def handle_message_from(self, name: str, message: Message) -> None:
        """Apply a message arriving on the named controller channel.

        Role claims are always examined; state-mutating messages
        (FlowMod/GroupMod/MeterMod/PacketOut) from any channel that does
        not hold the MASTER role are rejected and answered with a stale
        RoleReply so a deposed controller learns it lost mastership.
        Read-only stats requests are honoured for slaves, with the reply
        routed back to the asking channel.
        """
        if isinstance(message, RoleRequest):
            self._handle_role_request(message)
            return
        channel = self._channels.get(name)
        if channel is None:
            self.stale_master_rejections += 1
            return
        if name != self._master_channel and isinstance(
                message, (FlowMod, GroupMod, MeterMod, PacketOut)):
            self.stale_master_rejections += 1
            if self.up:
                self.engine.schedule(
                    self.costs.openflow_rtt / 2, channel.deliver,
                    RoleReply(self.dpid, name, ROLE_SLAVE,
                              self.master_generation, stale=True))
            return
        if name != self._master_channel:
            # Slave read: replies return on the asking channel.
            self._reply_override = channel.deliver
            try:
                self.handle_message(message)
            finally:
                self._reply_override = None
            return
        self.handle_message(message)

    def _handle_role_request(self, request: RoleRequest) -> None:
        if not self.up:
            self.control_lost_while_down += 1
            return
        channel = self._channels.get(request.controller)
        if channel is None:
            return
        half_rtt = self.costs.openflow_rtt / 2
        if request.role == ROLE_MASTER:
            if request.generation_id < self.master_generation:
                # Fencing: a deposed master re-claiming with an old
                # generation-id must not regain control.
                self.stale_master_rejections += 1
                self.engine.schedule(
                    half_rtt, channel.deliver,
                    RoleReply(self.dpid, request.controller, ROLE_SLAVE,
                              self.master_generation, stale=True))
                return
            self.master_generation = request.generation_id
            previous = self._master_channel
            if previous is not None and previous != request.controller:
                old = self._channels.get(previous)
                if old is not None:
                    old.role = ROLE_SLAVE
            self._master_channel = request.controller
            channel.role = ROLE_MASTER
            self._to_controller = channel.deliver if channel.up else None
            self.engine.schedule(
                half_rtt, channel.deliver,
                RoleReply(self.dpid, request.controller, ROLE_MASTER,
                          request.generation_id, stale=False))
            if channel.up:
                # Blackout ends: hand the buffered events to the new
                # master, then re-announce every port so it re-learns
                # worker locations without a cold re-learn elsewhere.
                self._flush_pending(channel.deliver)
                for number in sorted(self.ports):
                    port = self.ports[number]
                    self._notify_controller(
                        PortStatus(self.dpid, number, port.name, PORT_ADD),
                        self.costs.port_event_latency,
                    )
        else:
            if request.controller == self._master_channel:
                self._master_channel = None
                self._to_controller = None
            channel.role = ROLE_SLAVE
            self.engine.schedule(
                half_rtt, channel.deliver,
                RoleReply(self.dpid, request.controller, ROLE_SLAVE,
                          self.master_generation, stale=False))

    def _flush_pending(self, deliver: Callable[[Message], None]) -> None:
        """Drain the blackout buffer FIFO onto a live master channel."""
        if not self._pending_ctrl:
            return
        pending, self._pending_ctrl = self._pending_ctrl, []
        half_rtt = self.costs.openflow_rtt / 2
        for message in pending:
            self.engine.schedule(half_rtt, deliver, message)

    def _buffer_pending(self, message: Message) -> bool:
        """Queue an event for the next master; False when the bound hit."""
        pending = self._pending_ctrl
        if len(pending) >= self.max_pending_controller:
            self.pending_overflow_dropped += 1
            return False
        pending.append(message)
        if len(pending) > self.pending_high_water:
            self.pending_high_water = len(pending)
        return True

    def _notify_controller(self, message: Message, delay: float) -> None:
        override = self._reply_override
        if override is not None:
            self.engine.schedule(delay, override, message)
            return
        if self._to_controller is None:
            if self._channels:
                self._buffer_pending(message)
            return
        self.engine.schedule(delay, self._to_controller, message)

    def _live_tracer(self) -> Optional[Tracer]:
        """The tracer, only while at least one sampled tuple is in
        flight — keeps the per-frame hot path to one attribute test."""
        tracer = self.tracer
        if tracer is not None and tracer.has_active():
            return tracer
        return None

    # -- port management -----------------------------------------------------

    def add_port(self, name: str, sink: PortSink,
                 kind: str = SwitchPort.WORKER) -> int:
        number = self._next_port
        self._next_port += 1
        self.ports[number] = SwitchPort(number, name, sink, kind)
        self._notify_controller(
            PortStatus(self.dpid, number, name, PORT_ADD),
            self.costs.port_event_latency,
        )
        return number

    def remove_port(self, number: int) -> None:
        """Detach a port. The controller learns via PortStatus — this is
        the signal the fault detector reacts to (§4)."""
        port = self.ports.pop(number, None)
        if port is None:
            return
        self._notify_controller(
            PortStatus(self.dpid, number, port.name, PORT_DELETE),
            self.costs.port_event_latency,
        )

    def port_by_name(self, name: str) -> Optional[SwitchPort]:
        for port in self.ports.values():
            if port.name == name:
                return port
        return None

    # -- crash / restart (chaos injection) -----------------------------------

    def crash(self) -> None:
        """The switch process dies: flow and group tables are lost, the
        data plane stops, and the controller sees every port vanish (the
        same signal a worker death produces, but for the whole host).
        Ports themselves survive in the model — attached workers keep
        their ring buffers and re-appear on :meth:`restore`."""
        if not self.up:
            return
        self.up = False
        self.crashes += 1
        self.flows = FlowTable()
        self.groups = GroupTable()
        self.meters = {}
        self._busy_until = self.engine.now
        # Blackout-buffered events die with the switch process; buffered
        # PacketIns were already counted controller-delivered, so move
        # them to an attributed drop to keep conservation exact.
        if self._pending_ctrl:
            for message in self._pending_ctrl:
                if isinstance(message, PacketIn) and self.ledger is not None:
                    self.ledger.record_frame_controller_dropped(
                        LAYER_SWITCH, R_SWITCH_DOWN, message.frame)
            self._pending_ctrl = []
        for number in sorted(self.ports):
            port = self.ports[number]
            self._notify_controller(
                PortStatus(self.dpid, number, port.name, PORT_DELETE),
                self.costs.port_event_latency,
            )

    def restore(self) -> None:
        """Restart the switch with an empty flow table. Announces the
        reconnect first (so apps can invalidate bookkeeping for the lost
        tables), then re-adds every surviving port; the controller
        re-learns locations and re-installs rules per PORT_ADD."""
        if self.up:
            return
        self.up = True
        self._notify_controller(SwitchReconnect(self.dpid),
                                self.costs.port_event_latency)
        for number in sorted(self.ports):
            port = self.ports[number]
            self._notify_controller(
                PortStatus(self.dpid, number, port.name, PORT_ADD),
                self.costs.port_event_latency,
            )

    # -- OpenFlow message handling -------------------------------------------

    def handle_message(self, message: Message) -> None:
        """Apply a controller message (already delivered over the control
        channel; FlowMods additionally pay the rule-installation latency)."""
        if not self.up:
            # The control channel to a dead switch is gone; the message
            # is lost and the controller must reconcile after restart.
            self.control_lost_while_down += 1
            return
        if isinstance(message, FlowMod):
            self.engine.schedule(
                self.costs.flow_install_latency, self._apply_flow_mod, message
            )
        elif isinstance(message, GroupMod):
            self.engine.schedule(
                self.costs.flow_install_latency, self._apply_group_mod, message
            )
        elif isinstance(message, MeterMod):
            self.engine.schedule(
                self.costs.flow_install_latency, self._apply_meter_mod, message
            )
        elif isinstance(message, PacketOut):
            self._apply_packet_out(message)
        elif isinstance(message, FlowStatsRequest):
            self._reply_flow_stats(message)
        elif isinstance(message, PortStatsRequest):
            self._reply_port_stats(message)
        elif isinstance(message, MeterStatsRequest):
            self._reply_meter_stats(message)
        else:
            raise TypeError("switch cannot handle %r" % (message,))

    def _apply_flow_mod(self, mod: FlowMod) -> None:
        if not self.up:
            # The install latency straddled a crash: the mod dies with
            # the switch process instead of landing in the fresh table.
            self.control_lost_while_down += 1
            return
        if mod.command == ADD or mod.command == MODIFY:
            entry = FlowEntry(
                match=mod.match,
                actions=mod.actions,
                priority=mod.priority,
                idle_timeout=mod.idle_timeout,
                cookie=mod.cookie,
            )
            self.flows.add(entry, now=self.engine.now)
        elif mod.command in (DELETE, DELETE_STRICT):
            strict = mod.command == DELETE_STRICT
            removed = self.flows.remove(mod.match, strict=strict,
                                        priority=mod.priority if strict else None)
            for entry in removed:
                self._notify_controller(
                    FlowRemoved(self.dpid, entry.match, entry.cookie,
                                REASON_DELETE, entry.packets, entry.bytes),
                    self.costs.openflow_rtt / 2,
                )

    def _apply_group_mod(self, mod: GroupMod) -> None:
        if not self.up:
            self.control_lost_while_down += 1
            return
        if mod.command == ADD:
            self.groups.add(GroupEntry(mod.group_id, mod.group_type,
                                       list(mod.buckets)))
        elif mod.command == MODIFY:
            self.groups.get(mod.group_id).set_buckets(list(mod.buckets))
        elif mod.command == DELETE:
            self.groups.remove(mod.group_id)

    def _apply_meter_mod(self, mod: MeterMod) -> None:
        if not self.up:
            self.control_lost_while_down += 1
            return
        if mod.command == DELETE:
            self.meters.pop(mod.meter_id, None)
            return
        existing = self.meters.get(mod.meter_id)
        if mod.command == MODIFY and existing is not None:
            # Reconfiguration keeps counters and the shaping horizon:
            # the allocator's rate changes must not reset accounting.
            existing.configure(mod.rate_bytes_per_sec, mod.burst_bytes,
                               mod.max_queue_seconds)
            return
        self.meters[mod.meter_id] = MeterState(
            mod.meter_id, mod.rate_bytes_per_sec, mod.burst_bytes,
            mod.max_queue_seconds)

    def _reply_meter_stats(self, request: MeterStatsRequest) -> None:
        if request.meter_id is None:
            meters = [self.meters[mid] for mid in sorted(self.meters)]
        else:
            meters = [m for m in self.meters.values()
                      if m.meter_id == request.meter_id]
        self._notify_controller(
            MeterStatsReply(self.dpid, [m.stats_entry() for m in meters]),
            self.costs.openflow_rtt / 2,
        )

    def _apply_packet_out(self, message: PacketOut) -> None:
        # Controller-injected frames enter the data plane here without
        # passing any transport's send path: count them as inputs.
        account: Optional[_FrameAccount] = None
        if self.ledger is not None:
            self.ledger.record_frame_injected(message.frame)
            account = _FrameAccount()
        tracer = self._live_tracer()
        if tracer is not None:
            tracer.frame_event(message.frame, H_SWITCH, dpid=self.dpid,
                               packet_out=True)
        self._run_actions(message.frame, message.actions, message.in_port,
                          tun_dst=None, account=account)
        self._settle_account(message.frame, account)

    def _settle_account(self, frame: EthernetFrame,
                        account: Optional[_FrameAccount]) -> None:
        """Balance one frame traversal: one copy in, ``total`` out."""
        if account is None or self.ledger is None:
            return
        if account.total == 0:
            self.ledger.record_frame_drop(LAYER_SWITCH, R_NO_OUTPUT, frame)
            tracer = self._live_tracer()
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_SWITCH, R_NO_OUTPUT)
        else:
            self.ledger.record_frame_replicated(frame, account.total - 1)

    def _reply_flow_stats(self, request: FlowStatsRequest) -> None:
        entries = [
            FlowStatsEntry(e.match, e.priority, e.cookie, e.packets, e.bytes,
                           e.actions)
            for e in self.flows
            if request.match.covers(e.match)
        ]
        self._notify_controller(
            FlowStatsReply(self.dpid, entries), self.costs.openflow_rtt / 2
        )

    def _reply_port_stats(self, request: PortStatsRequest) -> None:
        if request.port_no is None:
            ports = list(self.ports.values())
        else:
            ports = [p for p in self.ports.values() if p.number == request.port_no]
        self._notify_controller(
            PortStatsReply(self.dpid, [p.stats_entry() for p in ports]),
            self.costs.openflow_rtt / 2,
        )

    # -- data plane -------------------------------------------------------------

    def inject(self, in_port: int, frame: EthernetFrame) -> bool:
        """Receive a frame on ``in_port`` and forward it.

        Returns False when the frame was dropped (backlog or table miss).
        """
        tracer = self._live_tracer()
        if not self.up:
            self.packets_dropped += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_SWITCH,
                                              R_SWITCH_DOWN, frame)
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_SWITCH, R_SWITCH_DOWN)
            return False
        port = self.ports.get(in_port)
        if port is not None:
            port.rx_packets += 1
            port.rx_bytes += len(frame)

        backlog = self._busy_until - self.engine.now
        if backlog > self.MAX_BACKLOG_SECONDS:
            self.packets_dropped += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_SWITCH,
                                              R_BACKLOG_OVERFLOW, frame)
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_SWITCH, R_BACKLOG_OVERFLOW)
            return False

        entry = self.flows.lookup_cached(frame, in_port)
        if entry is None:
            self.table_misses += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_SWITCH,
                                              R_TABLE_MISS, frame)
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_SWITCH, R_TABLE_MISS)
            return False
        entry.touch(self.engine.now, len(frame))
        if tracer is not None:
            tracer.frame_event(frame, H_SWITCH, dpid=self.dpid)

        cost = self.costs.switch_lookup_per_packet
        start = max(self.engine.now, self._busy_until)
        finish = start + cost
        self._busy_until = finish
        self.packets_forwarded += 1
        account = _FrameAccount() if self.ledger is not None else None
        self._run_actions(frame, entry.actions, in_port, tun_dst=None,
                          ready_at=finish, account=account)
        self._settle_account(frame, account)
        return True

    def inject_train(self, in_port: int, frames) -> None:
        """Receive one transport flush of several frames on ``in_port``
        and forward each frame by :meth:`inject`."""
        self.trains += 1
        for frame in frames:
            self.inject(in_port, frame)

    def _run_actions(
        self,
        frame: EthernetFrame,
        actions,
        in_port: int,
        tun_dst: Optional[str],
        ready_at: Optional[float] = None,
        account: Optional[_FrameAccount] = None,
        meter_extra: float = 0.0,
    ) -> None:
        """Execute an action list; copies pay per-output switch time.

        ``meter_extra`` is accumulated rate-queue shaping delay: it
        postpones deliveries without occupying the forwarding server
        (metered frames wait in a port queue, not on the switch CPU).
        """
        if ready_at is None:
            ready_at = self.engine.now
        current = frame
        for action in actions:
            if isinstance(action, SetTunnelDst):
                tun_dst = action.host
            elif isinstance(action, SetDlDst):
                current = current.with_dst(action.address)
            elif isinstance(action, Meter):
                meter = self.meters.get(action.meter_id)
                if meter is None:
                    continue  # fail open: police only installed meters
                depart, dropped = meter.shape(len(current),
                                              ready_at + meter_extra)
                if dropped:
                    # Rate-queue overflow: the frame dies here; none of
                    # the remaining actions see it.
                    self.meter_drops += 1
                    self.packets_dropped += 1
                    if account is not None:
                        account.dropped += 1
                    if self.ledger is not None:
                        self.ledger.record_frame_drop(LAYER_SWITCH,
                                                      R_METER_LIMIT, current)
                    tracer = self._live_tracer()
                    if tracer is not None:
                        tracer.frame_drop(current, LAYER_SWITCH,
                                          R_METER_LIMIT)
                    return
                meter_extra = depart - ready_at
            elif isinstance(action, GroupAction):
                if action.group_id not in self.groups:
                    # Install race (flow landed before its group) or a
                    # group lost to a switch restart: drop, attributed so
                    # the conservation audit can explain the frame.
                    self.group_misses += 1
                    self.packets_dropped += 1
                    if account is not None:
                        account.dropped += 1
                    if self.ledger is not None:
                        self.ledger.record_frame_drop(LAYER_SWITCH,
                                                      R_NO_GROUP, current)
                    tracer = self._live_tracer()
                    if tracer is not None:
                        tracer.frame_drop(current, LAYER_SWITCH, R_NO_GROUP)
                    continue
                group = self.groups.get(action.group_id)
                buckets = list(group.select_buckets())
                tracer = self._live_tracer()
                if tracer is not None and len(buckets) > 1:
                    tracer.frame_event(current, H_REPLICATE, dpid=self.dpid,
                                       copies=len(buckets))
                for bucket in buckets:
                    self._run_actions(current, bucket.actions, in_port,
                                      tun_dst, ready_at, account, meter_extra)
            elif isinstance(action, Output):
                ready_at = self._output(current, action.port, in_port,
                                        tun_dst, ready_at, account,
                                        meter_extra)
            else:
                raise TypeError("unknown action %r" % (action,))

    def _output(
        self,
        frame: EthernetFrame,
        out_port: int,
        in_port: int,
        tun_dst: Optional[str],
        ready_at: float,
        account: Optional[_FrameAccount] = None,
        meter_extra: float = 0.0,
    ) -> float:
        copy_cost = (
            self.costs.switch_copy_per_output
            + len(frame) * self.costs.switch_copy_per_byte
        )
        finish = max(ready_at, self._busy_until) + copy_cost
        self._busy_until = finish

        tracer = self._live_tracer()
        if out_port == OFPP_CONTROLLER:
            if self._to_controller is None and self._channels:
                # Fail-safe blackout: no live master, but the replicated
                # control plane will promote one — buffer (bounded) and
                # attribute overflow instead of stalling the data plane.
                message = PacketIn(self.dpid, frame, in_port, REASON_ACTION)
                if self._buffer_pending(message):
                    if account is not None:
                        account.controller += 1
                    if self.ledger is not None:
                        self.ledger.record_frame_controller_delivered(frame)
                    if tracer is not None:
                        tracer.frame_event(frame, H_PACKET_IN, dpid=self.dpid)
                else:
                    self.packets_dropped += 1
                    if account is not None:
                        account.dropped += 1
                    if self.ledger is not None:
                        self.ledger.record_frame_drop(LAYER_SWITCH,
                                                      R_CONTROL_BACKLOG, frame)
                    if tracer is not None:
                        tracer.frame_drop(frame, LAYER_SWITCH,
                                          R_CONTROL_BACKLOG)
                return finish
            if self._to_controller is None:
                if account is not None:
                    account.dropped += 1
                if self.ledger is not None:
                    self.ledger.record_frame_drop(LAYER_SWITCH,
                                                  R_NO_CONTROLLER, frame)
                if tracer is not None:
                    tracer.frame_drop(frame, LAYER_SWITCH, R_NO_CONTROLLER)
                return finish
            if account is not None:
                account.controller += 1
            if self.ledger is not None:
                self.ledger.record_frame_controller_delivered(frame)
            if tracer is not None:
                tracer.frame_event(frame, H_PACKET_IN, dpid=self.dpid)
            self._notify_controller(
                PacketIn(self.dpid, frame, in_port, REASON_ACTION),
                (finish - self.engine.now) + self.costs.openflow_rtt / 2,
            )
            return finish
        if out_port == OFPP_TABLE:
            entry = self.flows.lookup_cached(frame, in_port)
            if entry is None:
                self.table_misses += 1
                if account is not None:
                    account.dropped += 1
                if self.ledger is not None:
                    self.ledger.record_frame_drop(LAYER_SWITCH,
                                                  R_TABLE_MISS, frame)
                if tracer is not None:
                    tracer.frame_drop(frame, LAYER_SWITCH, R_TABLE_MISS)
                return finish
            entry.touch(self.engine.now, len(frame))
            self._run_actions(frame, entry.actions, in_port, tun_dst, finish,
                              account, meter_extra)
            return self._busy_until

        port = self.ports.get(out_port)
        if port is None or not port.up:
            self.packets_dropped += 1
            if account is not None:
                account.dropped += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_SWITCH,
                                              R_PORT_DOWN, frame)
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_SWITCH, R_PORT_DOWN)
            return finish
        if account is not None:
            account.emitted += 1
        port.tx_packets += 1
        port.tx_bytes += len(frame)
        # Meter shaping delays the delivery (the frame sits in the port's
        # rate queue) without occupying the switch forwarding server.
        delay = (finish - self.engine.now) + self.costs.loopback_latency \
            + meter_extra
        self.engine.schedule(delay, port.sink, frame, tun_dst)
        return finish

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Operational counters for the REST/chaos surfaces."""
        return {
            "dpid": self.dpid,
            "up": self.up,
            "rules": len(self.flows),
            "ports": len(self.ports),
            "crashes": self.crashes,
            "packets_forwarded": self.packets_forwarded,
            "packets_dropped": self.packets_dropped,
            "table_misses": self.table_misses,
            "group_misses": self.group_misses,
            "meter_drops": self.meter_drops,
            "control_lost_while_down": self.control_lost_while_down,
            "master": self._master_channel,
            "master_generation": self.master_generation,
            "stale_master_rejections": self.stale_master_rejections,
            "pending_controller": len(self._pending_ctrl),
            "pending_high_water": self.pending_high_water,
            "pending_overflow_dropped": self.pending_overflow_dropped,
            "controller_backlog_dropped": self.controller_backlog_dropped,
        }

    # -- idle-timeout sweeper ------------------------------------------------------

    def _sweep_idle(self):
        while True:
            yield self._sweep_interval
            for entry in self.flows.expire_idle(self.engine.now):
                self._notify_controller(
                    FlowRemoved(self.dpid, entry.match, entry.cookie,
                                REASON_IDLE_TIMEOUT, entry.packets, entry.bytes),
                    self.costs.openflow_rtt / 2,
                )

    def shutdown(self) -> None:
        self._sweeper.interrupt("switch shutdown")
