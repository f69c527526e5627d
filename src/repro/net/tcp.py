"""TCP-like reliable channels.

Two uses in this system, matching the paper:

* the **Storm baseline** keeps one application-level TCP connection per
  worker pair (the per-destination serialization + send cost on these
  connections is what Typhoon eliminates for broadcast);
* **Typhoon** keeps a fixed mesh of *host-level* TCP tunnels between
  compute hosts; tunnels reliably carry custom Ethernet frames across the
  physical network and hide the custom EtherType from it (§3.3.1).

A channel carries any message whose ``len()`` is its wire size: the
Storm baseline sends ``_WireBatch`` objects, Typhoon sends
:class:`~repro.net.ethernet.EthernetFrame` objects. Byte counts and
transmission delays read only that size; a dropped message goes to the
ledger and tracer inspectors as is.

The channel is reliable and strictly FIFO: message ``i`` is always
delivered before message ``i+1`` even when size-dependent transmission
delays would reorder them.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sized

from ..sim.audit import (
    LAYER_CHANNEL,
    R_CHANNEL_CLOSED,
    R_LINK_LOSS,
    DeliveryLedger,
)
from ..sim.costs import CostModel, transmission_delay
from ..sim.engine import Engine
from ..sim.trace import Tracer


class ChannelClosed(RuntimeError):
    """Raised when sending on a closed channel."""


class TcpChannel:
    """A unidirectional reliable, ordered message channel.

    ``send(message)`` schedules ``on_receive(message)`` on the
    destination after propagation + transmission delay. CPU costs
    (syscalls, copies) are the caller's responsibility — they differ
    between Storm and Typhoon and are charged in the respective transport
    layers.
    """

    def __init__(
        self,
        engine: Engine,
        costs: CostModel,
        on_receive: Callable[[Sized], None],
        remote: bool,
        name: str = "",
        extra_delay: float = 0.0,
        ledger: Optional[DeliveryLedger] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.costs = costs
        self.on_receive = on_receive
        self.remote = remote
        self.name = name
        self.extra_delay = extra_delay
        self.ledger = ledger
        self.tracer = tracer
        self.closed = False
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._last_delivery = 0.0
        #: Opt-in link-serialization model: each message occupies the
        #: link for its transmission time, so a channel offered more
        #: than ``lan_bandwidth_bytes_per_sec`` builds a real queue
        #: (congestion benchmarks flip this on). Off by default — the
        #: historic model charges only per-message delay, and existing
        #: scenario timings depend on it byte-for-byte.
        self.serialize = False
        self._busy_until = 0.0
        # Chaos-injection knobs (see repro.sim.faults). ``down`` models a
        # partition: TCP keeps retransmitting, so writes queue losslessly
        # until the link heals. ``loss_rate`` models an *application-level*
        # lossy link (e.g. a saturated middlebox dropping whole writes);
        # ``chaos_delay`` adds latency on top of the base transmission cost.
        self.down = False
        self.loss_rate = 0.0
        self.loss_rng = None
        self.chaos_delay = 0.0
        self._backlog: List[Sized] = []

    def send(self, data: Sized) -> None:
        if self.closed:
            raise ChannelClosed("channel %s is closed" % self.name)
        self.messages_sent += 1
        self.bytes_sent += len(data)
        if self.down:
            self._backlog.append(data)
            return
        if (self.loss_rate > 0.0 and self.loss_rng is not None
                and self.loss_rng.random() < self.loss_rate):
            self.messages_dropped += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_CHANNEL, R_LINK_LOSS,
                                              data)
            if self.tracer is not None:
                self.tracer.frame_drop(data, LAYER_CHANNEL, R_LINK_LOSS)
            return
        self._schedule_delivery(data)

    def _schedule_delivery(self, data: Sized) -> None:
        if self.serialize and self.remote:
            # The link is a shared serial resource: this message starts
            # transmitting when the previous one finishes.
            start = max(self.engine.now, self._busy_until)
            self._busy_until = (
                start + len(data) / self.costs.lan_bandwidth_bytes_per_sec)
            deliver_at = (self._busy_until + self.costs.lan_latency
                          + self.extra_delay + self.chaos_delay)
        else:
            delay = (transmission_delay(self.costs, len(data), self.remote)
                     + self.extra_delay + self.chaos_delay)
            deliver_at = self.engine.now + delay
        deliver_at = max(deliver_at, self._last_delivery)
        self._last_delivery = deliver_at
        self.engine.schedule(deliver_at - self.engine.now, self._deliver, data)

    def set_down(self, down: bool) -> None:
        """Partition / heal the link. Healing replays the backlog in send
        order; FIFO with pre-partition traffic is preserved by the
        monotonic ``_last_delivery`` watermark."""
        self.down = bool(down)
        if not self.down and self._backlog:
            backlog, self._backlog = self._backlog, []
            for data in backlog:
                self._schedule_delivery(data)

    def _deliver(self, data: Sized) -> None:
        if self.closed:
            # In-flight data on a torn-down connection: account it so
            # the tuples it carried don't silently vanish.
            self.messages_dropped += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_CHANNEL,
                                              R_CHANNEL_CLOSED, data)
            if self.tracer is not None:
                self.tracer.frame_drop(data, LAYER_CHANNEL, R_CHANNEL_CLOSED)
            return
        self.messages_delivered += 1
        self.on_receive(data)

    def close(self) -> None:
        """Close the channel; in-flight and future messages are dropped
        (and counted in ``messages_dropped`` as they land)."""
        self.closed = True
        backlog, self._backlog = self._backlog, []
        for data in backlog:
            self.messages_dropped += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_CHANNEL,
                                              R_CHANNEL_CLOSED, data)
            if self.tracer is not None:
                self.tracer.frame_drop(data, LAYER_CHANNEL, R_CHANNEL_CLOSED)


class TcpTunnel:
    """A bidirectional host-level tunnel: a pair of TCP channels.

    Typhoon designates one switch port per peer host as the *tunnelling
    port*; frames output there are carried to the peer host's switch.
    """

    def __init__(
        self,
        engine: Engine,
        costs: CostModel,
        host_a: str,
        host_b: str,
        deliver_to_a: Callable[[Sized], None],
        deliver_to_b: Callable[[Sized], None],
        ledger: Optional[DeliveryLedger] = None,
        tracer: Optional[Tracer] = None,
    ):
        if host_a == host_b:
            raise ValueError("tunnel endpoints must differ")
        self.host_a = host_a
        self.host_b = host_b
        self._a_to_b = TcpChannel(
            engine, costs, deliver_to_b, remote=True,
            name="tunnel:%s->%s" % (host_a, host_b),
            ledger=ledger, tracer=tracer,
        )
        self._b_to_a = TcpChannel(
            engine, costs, deliver_to_a, remote=True,
            name="tunnel:%s->%s" % (host_b, host_a),
            ledger=ledger, tracer=tracer,
        )

    def send_from(self, host: str, data: Sized) -> None:
        if host == self.host_a:
            self._a_to_b.send(data)
        elif host == self.host_b:
            self._b_to_a.send(data)
        else:
            raise ValueError("host %r is not an endpoint of this tunnel" % host)

    def channel_from(self, host: str) -> TcpChannel:
        if host == self.host_a:
            return self._a_to_b
        if host == self.host_b:
            return self._b_to_a
        raise ValueError("host %r is not an endpoint of this tunnel" % host)

    @property
    def total_bytes(self) -> int:
        return self._a_to_b.bytes_sent + self._b_to_a.bytes_sent

    # -- chaos knobs (both directions at once) -----------------------------

    def set_down(self, down: bool) -> None:
        """Partition or heal the host pair (lossless, TCP semantics)."""
        self._a_to_b.set_down(down)
        self._b_to_a.set_down(down)

    def set_loss(self, rate: float, rng) -> None:
        """Make the link drop whole writes with probability ``rate``."""
        for channel in (self._a_to_b, self._b_to_a):
            channel.loss_rate = rate
            channel.loss_rng = rng if rate > 0.0 else None

    def set_chaos_delay(self, extra: float) -> None:
        """Add (or with 0.0, remove) extra one-way latency."""
        self._a_to_b.chaos_delay = extra
        self._b_to_a.chaos_delay = extra

    def close(self) -> None:
        self._a_to_b.close()
        self._b_to_a.close()
