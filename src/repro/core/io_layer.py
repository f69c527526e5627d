"""The Typhoon I/O layer and data-plane fabric (§3.3.1, Fig. 7).

Two halves:

* :class:`HostFabric` / :class:`TyphoonFabric` — per-host software SDN
  switches interconnected by a full mesh of host-level TCP tunnels, with
  one designated *tunnelling port* per switch (Table 3's remote rows
  select the peer via ``set_tun_dst``).
* :class:`TyphoonTransport` — the per-worker custom transport library
  that replaces worker-level TCP. The northbound side receives tuple
  objects from the framework layer and serializes them **once**; the
  southbound side multiplexes/segments them into custom Ethernet frames
  (see :mod:`repro.core.packets`) and exchanges them with the host switch
  through shared-memory rings, paying JNI/ring/packetization costs per
  batch and per packet.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..net.addresses import BROADCAST, CONTROLLER_ADDRESS, TYPHOON_ETHERTYPE, WorkerAddress
from ..net.ethernet import DEFAULT_MTU, EthernetFrame
from ..net.hosts import Cluster
from ..net.tcp import TcpTunnel
from ..sdn.switch import SoftwareSwitch, SwitchPort
from ..sim.audit import (
    LAYER_FABRIC,
    LAYER_REASSEMBLY,
    LAYER_TRANSPORT,
    R_AFTER_CLOSE,
    R_CLOSED_PORT,
    R_DELIVER_REJECTED,
    R_TUNNEL_UNROUTABLE,
    DeliveryLedger,
)
from ..sim.costs import CostModel
from ..sim.engine import Engine
from ..sim.trace import (
    H_BATCH,
    H_DESERIALIZE,
    H_REASSEMBLY,
    H_SERIALIZE,
    H_TUNNEL_RX,
    H_TUNNEL_TX,
    H_WIRE,
    Tracer,
    address_branch,
)
from ..streaming.serialize import (
    decode_tuple,
    deserialize_cost,
    encode_train,
    encode_train_uniform,
    encode_tuple,
    encode_tuple_scalar,
    peek_trace_id,
    serialize_cost,
)
from ..streaming.transport import Delivery, Transport
from ..streaming.tuples import StreamTuple
from .packets import (
    KIND_MULTI,
    _MULTI_HEAD,
    Fragment,
    Reassembler,
    pack_tuples_spans,
    unpack_payload,
)


class HostFabric:
    """One host's data plane: its software switch plus tunnel endpoints."""

    def __init__(self, engine: Engine, costs: CostModel, hostname: str,
                 ledger: Optional[DeliveryLedger] = None,
                 tracer: Optional[Tracer] = None):
        self.engine = engine
        self.costs = costs
        self.hostname = hostname
        self.ledger = ledger
        self.tracer = tracer
        self.switch = SoftwareSwitch(engine, costs, dpid=hostname,
                                     ledger=ledger, tracer=tracer)
        self.tunnels: Dict[str, TcpTunnel] = {}
        self.tunnel_drops = 0
        self.tunnel_port = self.switch.add_port(
            "tunnel", self._tunnel_sink, kind=SwitchPort.TUNNEL
        )

    def _live_tracer(self) -> Optional[Tracer]:
        tracer = self.tracer
        if tracer is not None and tracer.has_active():
            return tracer
        return None

    def _tunnel_sink(self, frame: EthernetFrame, tun_dst: Optional[str]) -> None:
        tunnel = self.tunnels.get(tun_dst) if tun_dst else None
        tracer = self._live_tracer()
        if tunnel is None:
            self.tunnel_drops += 1
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_FABRIC,
                                              R_TUNNEL_UNROUTABLE, frame)
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_FABRIC, R_TUNNEL_UNROUTABLE)
            return
        if tracer is not None:
            tracer.frame_event(frame, H_TUNNEL_TX, src=self.hostname,
                               peer=tun_dst)
        # The tunnel carries the frame object: its len() is the packed
        # length, so channel bytes, delays and drops are unchanged.
        tunnel.send_from(self.hostname, frame)

    def receive_from_tunnel(self, frame: EthernetFrame) -> None:
        annotated = frame.tuples
        if annotated is not None:
            # Remote view of the sender's fast-lane annotation: claimed,
            # so every receiver here clones instead of adopting objects
            # a receiver on the sending host may hold, and no stream
            # hint, so the delivery matches what a decode would build.
            view = _TrainAnnotation(annotated.objs, annotated.rlens, None,
                                    annotated.start, annotated.end,
                                    annotated.est, False)
            view.claimed = True
            frame = EthernetFrame(dst=frame.dst, src=frame.src,
                                  ethertype=frame.ethertype,
                                  payload=frame.payload, tuples=view)
        tracer = self._live_tracer()
        if tracer is not None:
            tracer.frame_event(frame, H_TUNNEL_RX, host=self.hostname)
        self.switch.inject(self.tunnel_port, frame)


class TyphoonFabric:
    """Cluster-wide data plane: one fabric per host, full tunnel mesh."""

    def __init__(self, engine: Engine, costs: CostModel, cluster: Cluster,
                 ledger: Optional[DeliveryLedger] = None,
                 tracer: Optional[Tracer] = None):
        self.engine = engine
        self.costs = costs
        self.ledger = ledger
        self.tracer = tracer
        self.hosts: Dict[str, HostFabric] = {
            host.name: HostFabric(engine, costs, host.name, ledger=ledger,
                                  tracer=tracer)
            for host in cluster
        }
        names = sorted(self.hosts)
        for i, name_a in enumerate(names):
            for name_b in names[i + 1:]:
                fabric_a = self.hosts[name_a]
                fabric_b = self.hosts[name_b]
                tunnel = TcpTunnel(
                    engine, costs, name_a, name_b,
                    deliver_to_a=fabric_a.receive_from_tunnel,
                    deliver_to_b=fabric_b.receive_from_tunnel,
                    ledger=ledger, tracer=tracer,
                )
                fabric_a.tunnels[name_b] = tunnel
                fabric_b.tunnels[name_a] = tunnel

    def host(self, hostname: str) -> HostFabric:
        if hostname not in self.hosts:
            raise KeyError("no fabric for host %r" % hostname)
        return self.hosts[hostname]

    def switches(self) -> List[SoftwareSwitch]:
        return [fabric.switch for fabric in self.hosts.values()]


#: Destination key on the outbound buffers: a concrete worker id or a
#: special Ethernet address (broadcast, controller, select-group virtual).
_DstKey = Union[int, WorkerAddress]


class _TrainAnnotation:
    """Frame annotation for the same-process fast lane.

    Records ``start..end`` of ``objs`` are the sender's tuples in frame
    order and ``rlens`` their encoded lengths; the payload still holds
    the authoritative bytes. Every value is an exact scalar type (see
    :data:`repro.streaming.serialize.SCALAR_TYPES`), so a decode would
    rebuild each tuple field for field and the receiver may skip it.
    Containers never ride the lane: decode materializes fresh mutable
    lists/dicts, so aliasing the sender's objects would be observable.

    The first local delivery may adopt objects the batched send path
    released (it blanked their ``source_component`` when it queued the
    train) instead of cloning them. ``released`` says every object of
    the window is such a one, so the adoption is one list slice;
    otherwise each object is tested and the unreleased ones cloned.
    ``claimed`` arms after that first delivery: replicated frames
    (broadcast rules, debug mirrors) share one annotation through
    ``EthernetFrame.with_dst``, and every later delivery clones, as do
    receivers behind a host tunnel (a claimed remote view). ``est``
    is the window's store-sizer charge when the encoder precomputed it
    (an exact integer — see ``ests`` in
    :func:`repro.streaming.serialize.encode_train`), else ``None``."""

    __slots__ = ("objs", "rlens", "stream", "start", "end", "est",
                 "released", "claimed")

    def __init__(self, objs: List[StreamTuple], rlens: List[int],
                 stream: Optional[int], start: int, end: int,
                 est: Optional[int], released: bool):
        self.objs = objs
        self.rlens = rlens
        self.stream = stream
        self.start = start
        self.end = end
        self.est = est
        self.released = released
        self.claimed = False


def train_window(frame: EthernetFrame) -> Optional[List[int]]:
    """Record lengths of the tuples a frame's train annotation names,
    when the annotation agrees with the payload, else ``None``.

    The frame inspectors (delivery ledger, tracer) read the window
    instead of re-parsing every replicated frame. It is trusted only
    when the payload is a MULTI whose count is the window's size and
    whose length is the 3-byte head plus a ``u32`` prefix and the bytes
    of each record; anything else returns ``None`` so the caller takes
    the validating :func:`~repro.core.packets.unpack_payload` walk.
    Record ``k`` of the window then starts at ``3 + 4 * (k + 1)`` plus
    the lengths before it."""
    annotation = frame.tuples
    if annotation is None:
        return None
    rlens = annotation.rlens[annotation.start:annotation.end]
    count = len(rlens)
    payload = frame.payload
    if len(payload) != _MULTI_HEAD.size + 4 * count + sum(rlens) \
            or _MULTI_HEAD.unpack_from(payload) != (KIND_MULTI, count):
        return None
    return rlens


class _TrainChunk:
    """A contiguous run of records from one encoded train.

    :func:`repro.streaming.serialize.encode_train` returns one
    length-prefixed buffer for the whole batch; the transport queues
    records ``start..end`` of it as a *single* buffer item instead of
    ``end - start`` per-record slices. A flush whose window is exactly
    one chunk lifts the MULTI payload body straight out of ``data``
    with one slice (see :meth:`TyphoonTransport._emit_batch`); any
    other window expands the chunk back into ``(encoded, obj)`` pairs
    and takes the generic path, byte-identically.

    The parallel arrays (``bounds``/``rlens``/``ests``/``objs``) are
    the whole train's, shared by reference across the train's chunks;
    ``start``/``end`` select this chunk's records. Record ``i`` spans
    ``data[bounds[i] + 4 : bounds[i + 1]]`` (the 4 bytes are its
    ``u32`` length prefix, already in the packets layer's MULTI record
    framing). Chunks never carry trace ids — a stamped batch refuses
    train encoding before any chunk exists."""

    __slots__ = ("data", "bounds", "rlens", "ests", "objs", "all_fast",
                 "stream", "start", "end")

    def __init__(self, data: bytes, bounds: List[int], rlens: List[int],
                 ests: List[int], objs: List[Optional[StreamTuple]],
                 all_fast: bool, stream: Optional[int], start: int,
                 end: int):
        self.data = data
        self.bounds = bounds
        self.rlens = rlens
        self.ests = ests
        self.objs = objs
        self.all_fast = all_fast
        self.stream = stream
        self.start = start
        self.end = end


class _SendBuffer(list):
    """Per-destination outbound batch buffer.

    Items are either one ``(encoded, obj)`` record or a
    :class:`_TrainChunk` covering many, so ``len()`` no longer equals
    the queued tuple count once a chunk is queued. ``tuples`` tracks
    the true count — it drives the batch-size flush trigger, the
    conservation term (:meth:`TyphoonTransport.pending_tuples`) and
    the after-close drop accounting, keeping all three identical to
    the per-record representation."""

    __slots__ = ("tuples",)

    def __init__(self):
        super().__init__()
        self.tuples = 0

    def clear(self) -> None:
        super().clear()
        self.tuples = 0


class TyphoonTransport(Transport):
    """Per-worker northbound + southbound transport libraries."""

    def __init__(
        self,
        engine: Engine,
        costs: CostModel,
        worker_id: int,
        app_id: int,
        host_fabric: HostFabric,
        batch_size: int = 100,
        mtu: int = DEFAULT_MTU,
        ledger: Optional[DeliveryLedger] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.engine = engine
        self.costs = costs
        self.worker_id = worker_id
        self.app_id = app_id
        self.fabric = host_fabric
        self.batch_size = max(1, batch_size)
        self.mtu = mtu
        self.ledger = ledger if ledger is not None else host_fabric.ledger
        self.tracer = tracer if tracer is not None else host_fabric.tracer
        self.address = WorkerAddress(app_id, worker_id)
        self.port_no: Optional[int] = None
        self.deliver: Optional[Callable[[Delivery], bool]] = None
        self.select_addresses: Dict[Tuple[str, int], WorkerAddress] = {}
        # Buffer entries are (encoded, obj) pairs — obj is the original
        # StreamTuple when it qualifies for fast-lane delivery, else
        # None — or whole _TrainChunk runs from the batched senders.
        self._buffers: Dict[WorkerAddress, _SendBuffer] = {}
        self._frag_id = 0
        # Round-robin fallback state for offloaded edges, per edge key —
        # a shared counter would skew the distribution whenever one
        # worker feeds several offloaded edges.
        self._rr_counters: Dict[Tuple, int] = {}
        # Worker ids are a small dense set; interning their WorkerAddress
        # saves a namedtuple construction per (tuple, destination) on the
        # Fig. 8 hot path. Addresses compare by value, so reuse is safe.
        self._addr_cache: Dict[int, WorkerAddress] = {}
        self._enqueue_cost = costs.typhoon_enqueue_per_tuple
        self._pending_recv_cost = 0.0
        self._reassembler = Reassembler(
            on_drop=self._on_reassembly_drop,
            on_discard_data=self._on_reassembly_discard,
        )
        self.closed = False
        self.on_queue = None
        self.tuples_sent = 0
        self.serializations = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.dropped_after_close = 0
        # Train telemetry: flushes that took the fused single-slice
        # MULTI path in _emit_batch, and the tuples they carried. The
        # repo benchmark derives its fast-path fraction and average
        # train length from these.
        self.fused_flushes = 0
        self.fused_tuples = 0
        # Memoized per-record-length cost terms. Record lengths repeat
        # heavily (fixed-shape workload tuples), and each term is the
        # exact float the per-tuple expression would produce — same
        # operations in the same order, so replay is bit-identical.
        # _train_terms: (serialize_per_tuple + rlen * serialize_per_byte)
        #               + typhoon_enqueue_per_tuple   (send, no flush)
        # _recv_terms:  deserialize_per_tuple + rlen * deserialize_per_byte
        self._train_terms: Dict[int, float] = {}
        self._recv_terms: Dict[int, float] = {}

    # -- attachment --------------------------------------------------------

    @property
    def switch(self) -> SoftwareSwitch:
        return self.fabric.switch

    def attach(self) -> int:
        """Create this worker's switch port (PortStatus ADD fires to the
        controller, which installs the Table 3 rules for it)."""
        if self.port_no is not None:
            raise RuntimeError("transport already attached")
        self.port_no = self.switch.add_port(
            "w%d" % self.worker_id, self._on_frame, kind=SwitchPort.WORKER
        )
        return self.port_no

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.port_no is not None:
            self.switch.remove_port(self.port_no)
            self.port_no = None
        # Drain outbound buffers and partial reassembly so a retired
        # transport leaves no unaccounted residue behind.
        for buffer in self._buffers.values():
            if buffer:
                self.dropped_after_close += buffer.tuples
                if self.ledger is not None:
                    self.ledger.record_drop(self.app_id, LAYER_TRANSPORT,
                                            R_AFTER_CLOSE, buffer.tuples)
                self._drop_buffered_traces(buffer, R_AFTER_CLOSE)
        self._buffers.clear()
        self._reassembler.drain()

    def _live_tracer(self) -> Optional[Tracer]:
        tracer = self.tracer
        if tracer is not None and tracer.has_active():
            return tracer
        return None

    def _drop_buffered_traces(self, buffer: Sequence,
                              reason: str) -> None:
        """Close spans of sampled tuples dying in an outbound buffer."""
        tracer = self._live_tracer()
        if tracer is None:
            return
        for item in buffer:
            if type(item) is _TrainChunk:
                # Trains never carry trace ids: a stamped batch refuses
                # train encoding before any chunk exists.
                continue
            trace_id = peek_trace_id(item[0])
            if trace_id is not None:
                tracer.finish_drop(trace_id, LAYER_TRANSPORT, reason)

    def _on_reassembly_drop(self, key, reason: str) -> None:
        if self.ledger is None:
            return
        # Keys are ((src_app_id, src_worker_id), frag_id); attribute the
        # lost tuple to the sending application.
        source = key[0]
        scope = source[0] if isinstance(source, tuple) else self.app_id
        self.ledger.record_drop(scope, LAYER_REASSEMBLY, reason)

    def _on_reassembly_discard(self, key, reason: str, data: bytes) -> None:
        # The partial buffer starts at offset 0, so the tuple's fixed
        # header — and with it any embedded trace id — is intact.
        tracer = self._live_tracer()
        if tracer is None:
            return
        trace_id = peek_trace_id(data)
        if trace_id is not None:
            tracer.finish_drop(trace_id, LAYER_REASSEMBLY, reason,
                               branch=self.worker_id)

    def pending_tuples(self) -> int:
        """Tuples sitting in outbound batch buffers (conservation term)."""
        return sum(buffer.tuples for buffer in self._buffers.values())

    @property
    def pending_reassembly(self) -> int:
        """Partially reassembled inbound tuples (conservation term)."""
        return self._reassembler.pending_count

    # -- outbound (northbound -> southbound -> switch) -----------------------

    def _trace_serialized(self, stream_tuple: StreamTuple,
                          nbytes: int, cost: float) -> None:
        if stream_tuple.trace_id is None:
            return
        tracer = self.tracer
        if tracer is not None:
            tracer.event(stream_tuple.trace_id, H_SERIALIZE, cost=cost,
                         nbytes=nbytes)

    def send(self, stream_tuple: StreamTuple,
             dst_worker_ids: Sequence[int]) -> float:
        """The per-tuple primitive: serialize once, queue one record per
        destination (a worker id, or a special address such as
        ``BROADCAST`` or a select group's virtual address)."""
        # Hottest method in the data plane (once per tuple emitted):
        # address interning, buffering and the serialize cost are
        # inlined. Per-destination enqueue+flush is summed first, then
        # added, so schedules stay bit-identical.
        if self.closed or not dst_worker_ids:
            return 0.0
        encoded, all_scalar = encode_tuple_scalar(stream_tuple)
        # Serialized once, no matter how many destinations.
        costs = self.costs
        cost = costs.serialize_per_tuple + len(encoded) * costs.serialize_per_byte
        self.serializations += 1
        if stream_tuple.trace_id is not None:
            self._trace_serialized(stream_tuple, len(encoded), cost)
        item = (encoded, stream_tuple if all_scalar else None)
        addr_cache = self._addr_cache
        buffers = self._buffers
        ledger = self.ledger
        app_id = self.app_id
        enqueue_cost = self._enqueue_cost
        batch_size = self.batch_size
        for dst in dst_worker_ids:
            address = addr_cache.get(dst)
            if address is None:
                if isinstance(dst, WorkerAddress):
                    address = addr_cache[dst] = dst
                else:
                    address = addr_cache[dst] = WorkerAddress(app_id, dst)
            buffer = buffers.get(address)
            if buffer is None:
                buffer = buffers[address] = _SendBuffer()
            buffer.append(item)
            buffer.tuples += 1
            self.tuples_sent += 1
            if ledger is not None:
                ledger.record_sent(app_id)
            dcost = enqueue_cost
            if buffer.tuples >= batch_size:
                dcost += self._flush_address(address)
            cost += dcost
        if self.on_queue is not None:
            self._fire_on_queue()
        return cost

    def send_many(self, stream_tuples: Sequence[StreamTuple],
                  dst: _DstKey) -> float:
        """Batched :meth:`send` of every tuple to one destination: the
        train sender with nothing charged between tuples."""
        return self.send_interleaved(stream_tuples, dst, 0.0, 0.0)

    def _address(self, dst: _DstKey) -> WorkerAddress:
        """The interned buffer key for a worker id or special address."""
        address = self._addr_cache.get(dst)
        if address is None:
            if isinstance(dst, WorkerAddress):
                address = self._addr_cache[dst] = dst
            else:
                address = self._addr_cache[dst] = WorkerAddress(self.app_id,
                                                                dst)
        return address

    def _train_term(self, rlen: int) -> float:
        """Memoize the send total of an unflushed record of ``rlen``
        bytes: serialize, then enqueue, the float :meth:`send` adds."""
        costs = self.costs
        term = self._train_terms[rlen] = (
            costs.serialize_per_tuple + rlen * costs.serialize_per_byte
            + self._enqueue_cost)
        return term

    def send_log(self, stream_tuples: Sequence[StreamTuple],
                 dsts: Sequence[int],
                 lane: Optional[int] = None) -> List[float]:
        """Replay a window's per-tuple sends ``send(t, [dst])`` as
        per-destination trains and return each send's total.

        Each destination's run is cut at its flush points (where its
        batch buffer fills), and the segments go through
        :meth:`send_interleaved` in the order their flushes fall in the
        log, so frames reach the switch in the per-tuple order;
        segments that end without a flush follow. Buffers are created
        in the order the log first names each destination, which keeps
        :meth:`flush`'s destination order too.

        ``lane`` names the destination of a spout's acked lane (one
        ``(stream, source)`` envelope, no trace or sequencing stamps).
        Its segments whose first tuple is anchored go out with
        ``uniform=True``, so :func:`encode_train_uniform` patches them
        when every tuple is anchored; the lane may mix in unanchored
        tuples (an emission without a message id), and a segment that
        starts with one is walked."""
        n = len(stream_tuples)
        if self.closed:
            return [0.0] * n
        first = dsts[0]
        if dsts.count(first) == n:
            totals: List[float] = []
            self.send_interleaved(
                stream_tuples, first, 0.0, 0.0,
                first == lane and stream_tuples[0].anchor is not None,
                totals=totals)
            return totals
        runs: Dict[int, List[int]] = {}
        for i, dst in enumerate(dsts):
            run = runs.get(dst)
            if run is None:
                runs[dst] = [i]
            else:
                run.append(i)
        buffers = self._buffers
        batch_size = self.batch_size
        # (log index of the flushing send, or n for a tail; dst; run)
        segments: List[Tuple[int, int, List[int]]] = []
        for dst, run in runs.items():
            address = self._address(dst)
            if address not in buffers:
                buffers[address] = _SendBuffer()
            # The same flush positions send_interleaved's walk finds.
            cut = max(0, batch_size - 1 - buffers[address].tuples)
            lo = 0
            while cut < len(run):
                segments.append((run[cut], dst, run[lo:cut + 1]))
                lo = cut + 1
                cut += batch_size
            if lo < len(run):
                segments.append((n, dst, run[lo:]))
        segments.sort(key=itemgetter(0))   # stable: tails keep dst order
        totals = [0.0] * n
        part: List[float] = []
        for _, dst, run in segments:
            train = [stream_tuples[i] for i in run]
            self.send_interleaved(
                train, dst, 0.0, 0.0,
                dst == lane and train[0].anchor is not None, totals=part)
            for i, total in zip(run, part):
                totals[i] = total
            part.clear()
        return totals

    def send_interleaved(self, stream_tuples: Sequence[StreamTuple],
                         dst: _DstKey, pre_cost: float,
                         cost: float, uniform: bool = False,
                         totals: Optional[List[float]] = None) -> float:
        """The train primitive, which every batched send delegates to.
        Replays the executor's per-tuple dispatch ``for t: cost +=
        pre_cost; cost += send(t, [dst])`` with the identical
        float-addition sequence on the running ``cost`` (the per-tuple
        send total is assembled serialize-then-enqueue exactly as
        :meth:`send` does), in one call frame per batch. ``dst`` is a
        worker id or a special address (``BROADCAST`` for the
        switch-replicated one-to-many send).

        ``uniform=True`` is the caller's pledge that the whole batch
        came off one collector's lane — one shared ``(stream,
        source_worker)`` envelope, no trace/seq stamps, and no anchor
        unless the first tuple has one (the fast-sink lane carries
        none; :meth:`send_log` passes an acked lane's segment only when
        its first tuple is anchored) — so :func:`encode_train_uniform`
        may encode a column-uniform train as one replicated record with
        patched numeric lanes instead of walking every value (it hands
        any other batch to :func:`encode_train`). Bytes and costs are
        unchanged either way.

        With a ``totals`` list, the walk appends each tuple's own send
        total (the float :meth:`send` would have returned) to it
        instead of accumulating ``cost``, which is then returned
        unchanged; :meth:`send_log` folds those totals."""
        if not stream_tuples:
            return cost
        if self.closed:
            # send() would return 0.0 per tuple; += 0.0 is a bit-exact
            # no-op on a finite cost, so only pre_cost remains.
            if totals is not None:
                totals.extend([0.0] * len(stream_tuples))
                return cost
            for _ in stream_tuples:
                cost += pre_cost
            return cost
        costs = self.costs
        ser_per_tuple = costs.serialize_per_tuple
        ser_per_byte = costs.serialize_per_byte
        address = self._address(dst)
        buffers = self._buffers
        buffer = buffers.get(address)
        if buffer is None:
            buffer = buffers[address] = _SendBuffer()
        # _flush_address clears the list in place (the object is reused
        # across batch windows), so the alias holds and the tracked
        # length resets to zero at each flush point.
        append = buffer.append
        enqueue_cost = self._enqueue_cost
        batch_size = self.batch_size
        blen = buffer.tuples
        # Train fast path: encode the whole batch into one contiguous
        # length-prefixed buffer, queued chunk-per-flush-window instead
        # of record-per-tuple. A train encodes only when no tuple is
        # traced or sequenced.
        if uniform:
            first = stream_tuples[0]
            train = encode_train_uniform(stream_tuples, first.stream,
                                         first.source_worker)
        else:
            train = encode_train(stream_tuples)
        if train is not None:
            data, bounds, rlens, ests, objs, tstream = train
            all_fast = objs is None
            # Fast-lane objects are released to the transport: blanking
            # source_component marks them adoptable by the first local
            # receiver (see :class:`_TrainAnnotation`). Blanking is
            # hoisted out of the cost loop: nothing observes the tuples
            # between per-tuple iterations (frame forwarding is
            # event-scheduled, never inline). objs None means "all fast
            # — the input run itself"; chunks need their own list
            # because the executor clears the pending list it passed in.
            if all_fast:
                for obj in stream_tuples:
                    obj.source_component = ""
                objs = list(stream_tuples)
            else:
                for obj in objs:
                    if obj is not None:
                        obj.source_component = ""
            terms = self._train_terms
            term_get = terms.get
            n = len(objs)
            seg = 0
            prev_rlen = -1
            term = 0.0
            # Flush positions are arithmetic (every batch_size-th
            # tuple), so the per-tuple loop splits into flush-delimited
            # runs: inside a run there is no batch-counter bookkeeping
            # and no branch — just the replayed cost additions, with
            # the memoized (serialize + enqueue) term refreshed only
            # when the record length changes (identical float
            # expression, same operation order as the per-tuple walk).
            i = 0
            while i < n:
                # A shrunken batch_size (control tuple) can leave the
                # buffer over-full; the first tuple then flushes at
                # once, as in the per-tuple walk.
                fi = i + (batch_size - 1 - blen)
                if fi < i:
                    fi = i
                stop = fi if fi < n else n
                if totals is None:
                    for rlen in rlens[i:stop]:
                        cost += pre_cost
                        if rlen != prev_rlen:
                            term = term_get(rlen)
                            if term is None:
                                term = self._train_term(rlen)
                            prev_rlen = rlen
                        cost += term
                else:
                    # ``or`` recomputes a memoized 0.0 to the same 0.0.
                    totals += [term_get(rlen) or self._train_term(rlen)
                               for rlen in rlens[i:stop]]
                if fi >= n:
                    blen += n - i
                    break
                # Tuple fi fills the batch window: queue the chunk so
                # far and flush, exactly as the per-tuple walk does.
                cost += pre_cost
                tcost = ser_per_tuple + rlens[fi] * ser_per_byte
                end = fi + 1
                append(_TrainChunk(data, bounds, rlens, ests, objs,
                                   all_fast, tstream, seg, end))
                buffer.tuples += end - seg
                seg = end
                dcost = enqueue_cost
                dcost += self._flush_address(address)
                blen = 0
                tcost += dcost
                if totals is None:
                    cost += tcost
                else:
                    totals.append(tcost)
                i = end
            if seg < n:
                append(_TrainChunk(data, bounds, rlens, ests, objs,
                                   all_fast, tstream, seg, n))
                buffer.tuples += n - seg
        else:
            # Stamped batch: one record per tuple, as send() queues it.
            for stream_tuple in stream_tuples:
                if totals is None:
                    cost += pre_cost
                encoded, all_scalar = encode_tuple_scalar(stream_tuple)
                tcost = ser_per_tuple + len(encoded) * ser_per_byte
                if stream_tuple.trace_id is not None:
                    self._trace_serialized(stream_tuple, len(encoded), tcost)
                append((encoded, stream_tuple if all_scalar else None))
                buffer.tuples += 1
                blen += 1
                dcost = enqueue_cost
                if blen >= batch_size:
                    dcost += self._flush_address(address)
                    blen = 0
                tcost += dcost
                if totals is None:
                    cost += tcost
                else:
                    totals.append(tcost)
        sent = len(stream_tuples)
        # Counter/ledger bumps are coalesced: nothing outside this call
        # can observe them before it returns (frame forwarding is
        # event-scheduled, never inline).
        self.tuples_sent += sent
        self.serializations += sent
        if self.ledger is not None:
            self.ledger.record_sent(self.app_id, sent)
        if self.on_queue is not None:
            self._fire_on_queue()
        return cost

    def send_broadcast(self, stream_tuple: StreamTuple,
                       dst_worker_ids: Sequence[int]) -> float:
        """One record to the broadcast address; the switch replicates
        it to as many destinations as the one-to-many rule lists
        (§3.3.1)."""
        return self.send(stream_tuple, (BROADCAST,))

    def send_broadcast_interleaved(self, stream_tuples: Sequence[StreamTuple],
                                   dst_worker_ids: Sequence[int],
                                   pre_cost: float, cost: float,
                                   uniform: bool = False) -> float:
        """Batched :meth:`send_broadcast`: the train sender aimed at the
        broadcast address. Each tuple is still one record, which the
        switch's one-to-many rule replicates."""
        return self.send_interleaved(stream_tuples, BROADCAST, pre_cost,
                                     cost, uniform)

    def send_offloaded(self, stream_tuple: StreamTuple, edge_key,
                       dst_worker_ids: Sequence[int]) -> float:
        """SDN load balancing: emit to the edge's virtual select address;
        the switch's select group rewrites the destination (§4)."""
        if self.closed:
            return 0.0
        address = self.select_addresses.get(edge_key)
        if address is None:
            if not dst_worker_ids:
                return 0.0
            counter = self._rr_counters.get(edge_key, 0)
            self._rr_counters[edge_key] = counter + 1
            index = counter % len(dst_worker_ids)
            return self.send(stream_tuple, [dst_worker_ids[index]])
        return self.send(stream_tuple, (address,))

    def send_to_controller(self, stream_tuple: StreamTuple) -> float:
        """Framework-layer reply path (METRIC_RESP): flushed immediately."""
        if self.closed:
            return 0.0
        encoded = encode_tuple(stream_tuple)
        cost = serialize_cost(self.costs, len(encoded))
        self.serializations += 1
        self._trace_serialized(stream_tuple, len(encoded), cost)
        buffer = self._buffers.get(CONTROLLER_ADDRESS)
        if buffer is None:
            buffer = self._buffers[CONTROLLER_ADDRESS] = _SendBuffer()
        buffer.append((encoded, None))
        buffer.tuples += 1
        self.tuples_sent += 1
        if self.ledger is not None:
            self.ledger.record_sent(self.app_id)
        enqueue_cost = self._enqueue_cost
        if buffer.tuples >= self.batch_size:
            enqueue_cost += self._flush_address(CONTROLLER_ADDRESS)
        cost += enqueue_cost
        cost += self._flush_address(CONTROLLER_ADDRESS)
        if self.on_queue is not None:
            self._fire_on_queue()
        return cost

    def flush(self) -> float:
        """Flush every non-empty destination buffer in one coalesced
        pass: the closed/unattached checks run once per batch window
        (not once per destination), empty buffers are skipped without a
        dict re-walk, and each batch does a single envelope pass in
        :meth:`_emit_batch`. Frame emission order (dict insertion order
        of the destinations) is unchanged, so schedules stay identical.
        """
        if self.closed:
            cost = 0.0
            for address in list(self._buffers):
                cost += self._flush_address(address)
            return cost
        if self.port_no is None:
            # Live but not (yet) attached to a switch port: hold the
            # batches — the flusher keeps ticking while anything is
            # held and retries after attach. Only a closed transport
            # may discard.
            return 0.0
        cost = 0.0
        for address, buffer in self._buffers.items():
            if buffer:
                cost += self._emit_batch(address, buffer)
                buffer.clear()
        return cost

    def _flush_address(self, address: WorkerAddress) -> float:
        buffer = self._buffers.get(address)
        if not buffer:
            return 0.0
        if self.closed:
            self._buffers[address] = _SendBuffer()
            self.dropped_after_close += buffer.tuples
            if self.ledger is not None:
                self.ledger.record_drop(self.app_id, LAYER_TRANSPORT,
                                        R_AFTER_CLOSE, buffer.tuples)
            self._drop_buffered_traces(buffer, R_AFTER_CLOSE)
            return 0.0
        if self.port_no is None:
            # Hold the batch until attach (see :meth:`flush`).
            return 0.0
        cost = self._emit_batch(address, buffer)
        buffer.clear()
        return cost

    def _emit_batch(self, address: WorkerAddress,
                    buffer: "_SendBuffer") -> float:
        """One envelope pass for one destination's batch: trace
        checkpoints, multiplex/segment into payloads, frame and inject.
        The caller clears the buffer afterwards (the list object is
        reused across batch windows — no per-flush reallocation).

        Fused fast path: when the window is exactly one train chunk
        whose records fit a single MULTI payload — the steady state of
        a batched emitter — the payload body is one slice of the
        train's already-prefixed bytes (no per-record re-join),
        byte-identical to :func:`pack_tuples_spans` over the expanded
        records, and the frame is built and injected directly."""
        tracer = self._live_tracer()
        costs = self.costs
        per_packet = costs.packetize_per_packet
        per_byte = costs.packetize_per_byte
        ring_op = costs.ring_op_per_packet
        if tracer is None and len(buffer) == 1 \
                and type(buffer[0]) is _TrainChunk and buffer[0].all_fast:
            chunk = buffer[0]
            bounds = chunk.bounds
            start = chunk.start
            end = chunk.end
            lo = bounds[start]
            hi = bounds[end]
            if 3 + (hi - lo) <= self.mtu:   # MULTI head is 3 bytes
                self.fused_flushes += 1
                self.fused_tuples += end - start
                payload = _MULTI_HEAD.pack(KIND_MULTI, end - start) \
                    + chunk.data[lo:hi]
                cost = costs.jni_call_overhead
                cost += per_packet + len(payload) * per_byte + ring_op
                ests = chunk.ests
                annotation = _TrainAnnotation(
                    chunk.objs, chunk.rlens, chunk.stream, start, end,
                    ests[end] - ests[start], True)
                self.frames_sent += 1
                self.switch.inject(self.port_no, EthernetFrame(
                    dst=address, src=self.address,
                    ethertype=TYPHOON_ETHERTYPE,
                    payload=payload, tuples=annotation))
                return cost
        # Generic path: expand any train chunks back into per-record
        # (encoded, obj) pairs — byte-identical slices of the train —
        # and run the full multiplex/segment machinery.
        items: List[Tuple[bytes, Optional[StreamTuple]]] = []
        for item in buffer:
            if type(item) is _TrainChunk:
                data = item.data
                bounds = item.bounds
                objs = item.objs
                for j in range(item.start, item.end):
                    items.append((data[bounds[j] + 4:bounds[j + 1]],
                                  objs[j]))
            else:
                items.append(item)
        if tracer is not None:
            # The segment since each tuple's serialize checkpoint is the
            # time it sat in this batch buffer waiting for the flush.
            branch = address_branch(address)
            for encoded, _obj in items:
                trace_id = peek_trace_id(encoded)
                if trace_id is not None:
                    tracer.event(trace_id, H_BATCH, branch=branch,
                                 batch=len(items))
        records = [item[0] for item in items]
        objs = [item[1] for item in items]
        rlens = [len(record) for record in records]
        payloads, self._frag_id, spans = pack_tuples_spans(
            records, self.mtu, self._frag_id)
        # One JNI crossing per batch handed to the southbound library.
        cost = costs.jni_call_overhead
        src_address = self.address
        frames: List[EthernetFrame] = []
        for payload, span in zip(payloads, spans):
            cost += per_packet + len(payload) * per_byte + ring_op
            annotation = None
            if span is not None:
                # Whole-tuple payload: annotated when every record of
                # it is fast-lane eligible.
                start, end = span
                for obj in objs[start:end]:
                    if obj is None:
                        break
                else:
                    annotation = _TrainAnnotation(objs, rlens, None, start,
                                                  end, None, False)
            frames.append(EthernetFrame(dst=address, src=src_address,
                                        ethertype=TYPHOON_ETHERTYPE,
                                        payload=payload, tuples=annotation))
        self.frames_sent += len(frames)
        # The whole flush rides one switch call: the train fast path
        # classifies the shared header once and replays the per-frame
        # busy-server arithmetic (identical schedule), falling back to
        # per-frame inject whenever anything non-trivial is armed.
        if len(frames) == 1:
            self.switch.inject(self.port_no, frames[0])
        elif frames:
            self.switch.inject_train(self.port_no, frames)
        return cost

    def set_batch_size(self, batch_size: int) -> None:
        self.batch_size = max(1, int(batch_size))

    # -- inbound (switch -> southbound -> northbound) ---------------------------

    def _frame_scope(self, frame: EthernetFrame) -> int:
        """Application a frame's tuples belong to. Control frames carry
        the controller/broadcast pseudo-app in ``src``; attribute those
        to the destination's application instead."""
        if frame.src.is_controller or frame.src.is_broadcast:
            return frame.dst.app_id
        return frame.src.app_id

    def _on_frame(self, frame: EthernetFrame, _tun_dst: Optional[str]) -> None:
        if self.closed or self.deliver is None:
            if self.ledger is not None:
                self.ledger.record_frame_drop(LAYER_TRANSPORT,
                                              R_CLOSED_PORT, frame)
            tracer = self._live_tracer()
            if tracer is not None:
                tracer.frame_drop(frame, LAYER_TRANSPORT, R_CLOSED_PORT)
            return
        self.frames_received += 1
        costs = self.costs
        cost = (costs.ring_op_per_packet
                + costs.depacketize_per_packet
                + len(frame) * costs.depacketize_per_byte
                + costs.jni_call_overhead)
        annotated = frame.tuples
        if annotated is not None and self._live_tracer() is None:
            # Same-process fast lane (see :class:`_TrainAnnotation`):
            # reconstruct the delivery from the sender's objects without
            # walking the bytes.
            start = annotated.start
            end = annotated.end
            first = not annotated.claimed
            annotated.claimed = True
            if first and annotated.released:
                # Every object was released, so each one *is* what the
                # clone below would build: adopt the window by slicing.
                tuples = annotated.objs[start:end]
            else:
                new = StreamTuple.__new__
                tuples = []
                append = tuples.append
                for src_tuple in annotated.objs[start:end]:
                    if first and not src_tuple.source_component:
                        append(src_tuple)
                        continue
                    # Field-by-field clone via __new__ (hot path):
                    # matches what decode_tuple would build —
                    # source_component is reset to "", everything else
                    # carried over.
                    out = new(StreamTuple)
                    out.values = src_tuple.values
                    out.stream = src_tuple.stream
                    out.source_component = ""
                    out.source_worker = src_tuple.source_worker
                    out.anchor = src_tuple.anchor
                    out.trace_id = src_tuple.trace_id
                    out.seq = src_tuple.seq
                    append(out)
            # Costs are charged from the authoritative encoded lengths:
            # the memoized deserialize term is the identical float
            # expression per record length, added in record order, so
            # the accumulated cost is bit-identical to the decode walk.
            per_tuple = costs.deserialize_per_tuple
            per_byte = costs.deserialize_per_byte
            terms = self._recv_terms
            term_get = terms.get
            prev_rlen = -1
            term = 0.0
            for rlen in annotated.rlens[start:end]:
                if rlen != prev_rlen:
                    term = term_get(rlen)
                    if term is None:
                        term = terms[rlen] = per_tuple + rlen * per_byte
                    prev_rlen = rlen
                cost += term
            est = annotated.est
            if est is None:
                # The store's OOM sizer (delivery_bytes) is prepaid
                # here: fast-lane values are *exact* scalar types, so
                # the exact-type checks reproduce the sizer's
                # isinstance-based estimate identically.
                est = 0
                for out in tuples:
                    est += 80
                    for value in out.values:
                        kind = type(value)
                        if kind is str or kind is bytes:
                            est += len(value)
                        else:
                            est += 8
            cost += self._pending_recv_cost
            self._pending_recv_cost = 0.0
            accepted = self.deliver(Delivery(tuples=tuples, cost=cost,
                                             nbytes=est,
                                             stream=annotated.stream))
            if self.ledger is not None:
                scope = self._frame_scope(frame)
                if accepted:
                    self.ledger.record_delivered(scope, len(tuples))
                else:
                    self.ledger.record_drop(scope, LAYER_TRANSPORT,
                                            R_DELIVER_REJECTED, len(tuples))
            return
        decoded = unpack_payload(frame.payload)
        records: List[bytes]
        reassembled = False
        if isinstance(decoded, Fragment):
            # Key by (app, worker): same-numbered workers of different
            # applications must never share a reassembly stream.
            source = (frame.src.app_id, frame.src.worker_id)
            complete = self._reassembler.feed(source, decoded)
            if complete is None:
                # Partial tuple: bank the cost against the next delivery.
                self._pending_recv_cost += cost
                return
            records = [complete]
            reassembled = True
        else:
            records = decoded
        tuples = []
        tracer = self._live_tracer()
        for data in records:
            stream_tuple = decode_tuple(data)
            tuple_cost = deserialize_cost(self.costs, len(data))
            cost += tuple_cost
            if tracer is not None and stream_tuple.trace_id is not None:
                tracer.event(stream_tuple.trace_id, H_WIRE,
                             branch=self.worker_id)
                if reassembled:
                    tracer.event(stream_tuple.trace_id, H_REASSEMBLY,
                                 branch=self.worker_id)
                tracer.event(stream_tuple.trace_id, H_DESERIALIZE,
                             branch=self.worker_id, cost=tuple_cost,
                             nbytes=len(data))
            tuples.append(stream_tuple)
        cost += self._pending_recv_cost
        self._pending_recv_cost = 0.0
        accepted = self.deliver(Delivery(tuples=tuples, cost=cost))
        if self.ledger is not None:
            scope = self._frame_scope(frame)
            if accepted:
                self.ledger.record_delivered(scope, len(tuples))
            else:
                self.ledger.record_drop(scope, LAYER_TRANSPORT,
                                        R_DELIVER_REJECTED, len(tuples))
        if not accepted and tracer is not None:
            for stream_tuple in tuples:
                if stream_tuple.trace_id is not None:
                    tracer.finish_drop(stream_tuple.trace_id, LAYER_TRANSPORT,
                                       R_DELIVER_REJECTED,
                                       branch=self.worker_id)
