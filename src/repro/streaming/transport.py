"""Worker transport abstraction (Storm's ``IContext``/``IConnection``).

The executor is transport-agnostic: it hands routed tuples to a
:class:`Transport` and receives :class:`Delivery` batches on its input
store. The two implementations differ exactly where the paper says they
do:

* :class:`~repro.streaming.storm.StormTransport` — application-level TCP
  connections, **one serialization per destination**;
* :class:`~repro.core.io_layer.TyphoonTransport` — serialize once,
  packetize into custom Ethernet frames, hand to the host SDN switch
  (which replicates broadcast frames at the network layer).

All CPU the transport consumes is *returned* from its methods as a
virtual-time cost; the calling executor yields that amount, so the
sender's clock advances by exactly the work it did.

When hop-by-hop tracing is on (:mod:`repro.sim.trace`), the Typhoon
transport additionally reports ``serialize`` / ``batch-wait`` / ``wire``
/ ``reassembly`` / ``deserialize`` checkpoints for sampled tuples (the
trace id rides inside the serialized envelope, so no side-channel is
needed). The Storm baseline transport is left untraced on purpose: it
is the comparison system, and its schedule must not depend on Typhoon
observability features.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from .tuples import StreamTuple


@dataclass
class Delivery:
    """A batch of tuples arriving at a worker, plus its receive-side cost.

    ``cost`` covers everything the receiving worker must pay before the
    tuples are usable: TCP receive / depacketization, demultiplexing and
    deserialization. The executor yields it before processing.
    """

    tuples: List[StreamTuple]
    cost: float = 0.0
    #: Memoized :func:`delivery_bytes` result — the sizer runs on both
    #: store put and get, and the footprint of an immutable batch never
    #: changes between the two.
    nbytes: Optional[int] = None
    #: When set, every tuple in the batch rides this one stream id (the
    #: transport knows this for free on uniform train deliveries). The
    #: executor uses it to hand a whole data-stream delivery to a
    #: component's ``execute_batch`` hook; ``None`` means unknown/mixed
    #: and forces the per-tuple path.
    stream: Optional[int] = None

    def __len__(self) -> int:
        return len(self.tuples)


def delivery_bytes(delivery: Delivery) -> int:
    """Approximate byte footprint of a queued delivery (for OOM tracking)."""
    cached = delivery.nbytes
    if cached is not None:
        return cached
    # 80 bytes of object overhead per tuple plus a rough payload estimate.
    total = 0
    for stream_tuple in delivery.tuples:
        total += 80
        for value in stream_tuple.values:
            if isinstance(value, (str, bytes)):
                total += len(value)
            else:
                total += 8
    delivery.nbytes = total
    return total


class Transport:
    """Outbound side of a worker's communication stack.

    Delivery accounting contract: implementations that hold a
    :class:`repro.sim.audit.DeliveryLedger` must report every tuple
    accepted for transmission (``record_sent``), every tuple handed to
    an executor (``record_delivered``) and every loss with a typed
    (layer, reason) drop, and must expose :meth:`pending_tuples` so the
    auditor can count what is still buffered. The conservation identity
    ``sent + injected + replicated == delivered + controller_delivered +
    drops + buffered + pending_reassembly`` is then checked by
    :func:`repro.core.audit.verify_conservation` after each run.
    """

    def send(self, stream_tuple: StreamTuple, dst_worker_ids: Sequence[int]) -> float:
        """Route one tuple to explicit destinations; returns CPU cost.
        The per-tuple primitive every transport implements."""
        raise NotImplementedError

    def send_many(self, stream_tuples: Sequence[StreamTuple],
                  dst: Any) -> float:
        """Batched send: every tuple to the same single destination.
        Delegates to :meth:`send_interleaved` with nothing charged
        between tuples, so it is exactly per-tuple :meth:`send` calls
        summed from zero."""
        return self.send_interleaved(stream_tuples, dst, 0.0, 0.0)

    def send_interleaved(self, stream_tuples: Sequence[StreamTuple],
                         dst: Any, pre_cost: float, cost: float,
                         uniform: bool = False) -> float:
        """The batched primitive: replay of ``for t: cost += pre_cost;
        cost += send(t, [dst])`` — the executor's per-tuple
        accumulation pattern — on the running ``cost`` value,
        preserving the exact float-addition sequence. This default is
        literally that loop; transports override it to encode the batch
        as one train. ``uniform`` is the caller's pledge that the batch
        shares one (stream, source) envelope and carries no stamps — a
        hint only; this default ignores it."""
        dsts = [dst]
        for stream_tuple in stream_tuples:
            cost += pre_cost
            cost += self.send(stream_tuple, dsts)
        return cost

    def send_broadcast(self, stream_tuple: StreamTuple,
                       dst_worker_ids: Sequence[int]) -> float:
        """One-to-many send. Typhoon sends one record to the broadcast
        address through :meth:`send` and lets the switch replicate; the
        baseline degenerates to per-destination sends."""
        raise NotImplementedError

    def send_broadcast_interleaved(self, stream_tuples: Sequence[StreamTuple],
                                   dst_worker_ids: Sequence[int],
                                   pre_cost: float, cost: float,
                                   uniform: bool = False) -> float:
        """Batched replay of ``for t: cost += pre_cost; cost +=
        send_broadcast(t, dsts)`` on the running ``cost`` value,
        preserving the exact float-addition sequence. This default is
        literally that loop; Typhoon delegates to
        :meth:`send_interleaved` aimed at the broadcast address.
        ``uniform`` as in :meth:`send_interleaved`."""
        for stream_tuple in stream_tuples:
            cost += pre_cost
            cost += self.send_broadcast(stream_tuple, dst_worker_ids)
        return cost

    def send_offloaded(self, stream_tuple: StreamTuple, edge_key,
                       dst_worker_ids: Sequence[int]) -> float:
        """SDN-offloaded routing (§4, load balancer): the worker picks no
        destination; the switch's select group rewrites it (Typhoon
        sends to the edge's virtual address through :meth:`send`).
        Transports without SDN support fall back to local round robin."""
        raise NotImplementedError

    def flush(self) -> float:
        """Force out partially filled batches; returns CPU cost."""
        raise NotImplementedError

    def set_batch_size(self, batch_size: int) -> None:
        """Adjust batching (Typhoon BATCH_SIZE control tuples)."""

    def pending_tuples(self) -> int:
        """Tuples buffered for sending but not yet on the wire."""
        return 0

    def close(self) -> None:
        """Tear down connections/ports, draining (and accounting) any
        still-buffered tuples."""
