"""Typhoon-side glue for the delivery-accounting layer.

The ledger itself lives in :mod:`repro.sim.audit` (it must be importable
from every layer without cycles); this module contributes the pieces
that need to understand Typhoon frames and clusters:

* :func:`typhoon_frame_tuples` — the ledger ``inspector`` that maps an
  Ethernet frame to ``(scope, tuple_count)``;
* :func:`conservation_report` — snapshot the conservation identity for
  a cluster (Typhoon or the Storm baseline — both expose ``ledger`` and
  ``transports``);
* :func:`verify_conservation` — quiesce a cluster and assert zero
  unattributed loss; the bench harness runs this after the Fig. 10/11/14
  reproductions so a tuple leak fails the experiment loudly.

Tuple identity across fragmentation: a FRAGMENT frame carries 1 tuple
iff it is the head (``offset == 0``), else 0. The head defines the
tuple, so whichever layer kills the head accounts for the whole tuple,
trailing fragments are free to die uncounted, and a gap discovered at
the receiver is accounted exactly once by the reassembler.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..net.ethernet import EthernetFrame
from ..sim.audit import (
    ConservationError,
    ConservationReport,
    DeliveryLedger,
)
from .io_layer import train_window
from .packets import Fragment, unpack_payload

__all__ = [
    "ConservationError",
    "ConservationReport",
    "DeliveryLedger",
    "conservation_report",
    "quiesce",
    "typhoon_frame_tuples",
    "verify_conservation",
]


def typhoon_frame_tuples(frame: object) -> Optional[Tuple[int, int]]:
    """Ledger inspector: ``(scope, tuple_count)`` for a Typhoon frame.

    Control frames name the controller/broadcast pseudo-application in
    ``src``; their tuples belong to the destination's application. A
    frame whose train annotation agrees with its payload is counted
    from the annotation's window (:func:`~.io_layer.train_window`)
    instead of re-parsing the payload.
    """
    if not isinstance(frame, EthernetFrame):
        return None
    if frame.src.is_controller or frame.src.is_broadcast:
        scope = frame.dst.app_id
    else:
        scope = frame.src.app_id
    window = train_window(frame)
    if window is not None:
        return scope, len(window)
    decoded = unpack_payload(frame.payload)
    if isinstance(decoded, Fragment):
        return scope, (1 if decoded.offset == 0 else 0)
    return scope, len(decoded)


def conservation_report(cluster) -> ConservationReport:
    """Snapshot the conservation identity for a cluster's ledger.

    The ledger holds the flow terms; the buffered / pending-reassembly
    terms are read off the live transports here.
    """
    ledger: DeliveryLedger = cluster.ledger
    buffered = 0
    pending = 0
    for transport in getattr(cluster, "transports", {}).values():
        pending_fn = getattr(transport, "pending_tuples", None)
        if pending_fn is not None:
            buffered += pending_fn()
        pending += getattr(transport, "pending_reassembly", 0)
    return ConservationReport(
        sent=sum(ledger.sent.values()),
        injected=sum(ledger.injected.values()),
        replicated=sum(ledger.replicated.values()),
        delivered=sum(ledger.delivered.values()),
        controller_delivered=sum(ledger.controller_delivered.values()),
        drops=ledger.total_drops(),
        buffered=buffered,
        pending_reassembly=pending,
        drop_rows=ledger.drop_rows(),
        unattributable_frames=ledger.unattributable_frames,
    )


def quiesce(cluster, settle: float = 2.0) -> None:
    """Stop emissions and drain the data plane.

    Deactivates every topology, lets in-flight traffic land, then
    flushes live transports and lets those frames land too. After this,
    the only tuples not delivered or dropped sit in transport buffers
    (detached workers) or partial reassembly — both snapshot terms.
    """
    engine = cluster.engine
    for topology_id in list(cluster.manager.topologies):
        cluster.deactivate(topology_id)
    engine.run(until=engine.now + settle)
    for transport in list(cluster.transports.values()):
        if not getattr(transport, "closed", False):
            transport.flush()
    engine.run(until=engine.now + settle)


def verify_conservation(cluster, settle: float = 2.0,
                        strict: bool = True) -> ConservationReport:
    """Quiesce ``cluster`` and check the conservation identity.

    Returns the report; with ``strict`` (the default) raises
    :class:`ConservationError` when any tuple is unaccounted for.
    """
    quiesce(cluster, settle)
    report = conservation_report(cluster)
    if strict and not report.ok:
        raise ConservationError(report)
    return report
