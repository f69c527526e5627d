"""Typhoon-side glue for the hop-by-hop tracing layer.

The tracer itself lives in :mod:`repro.sim.trace` (it must be importable
from every layer — switch, channels, transports — without cycles); this
module contributes the pieces that understand Typhoon frames and
clusters:

* :func:`frame_trace_ids` — the tracer ``frame_inspector`` that maps an
  Ethernet frame to the trace ids of sampled tuples it carries;
* :func:`trace_snapshot` — JSON-shaped view for ``GET /trace``;
* :func:`run_forwarding_trace` — the Fig. 8 forwarding workload with
  tracing enabled, behind ``repro trace``.

Tuple identity across fragmentation mirrors the audit layer: a FRAGMENT
frame carries its tuple's trace id iff it is the head (``offset == 0``),
so replication/drop of a traced fragmented tuple is recorded exactly
once per frame copy.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..net.ethernet import EthernetFrame
from ..sim.trace import TraceReport, Tracer
from ..streaming.serialize import peek_trace_id
from .packets import Fragment, unpack_payload

__all__ = [
    "TraceReport",
    "Tracer",
    "frame_trace_ids",
    "run_forwarding_trace",
    "trace_snapshot",
]


def frame_trace_ids(frame: object) -> Tuple[int, ...]:
    """Tracer inspector: trace ids of sampled tuples inside a frame.

    A fragment contributes its id only on the head chunk; trailing
    fragments are anonymous, like in the audit layer.
    """
    if not isinstance(frame, EthernetFrame):
        return ()
    decoded = unpack_payload(frame.payload)
    if isinstance(decoded, Fragment):
        if decoded.offset != 0:
            return ()
        trace_id = peek_trace_id(decoded.chunk)
        return (trace_id,) if trace_id is not None else ()
    ids = []
    for chunk in decoded:
        trace_id = peek_trace_id(chunk)
        if trace_id is not None:
            ids.append(trace_id)
    return tuple(ids)


def trace_snapshot(cluster) -> Dict[str, object]:
    """Live view of the tracer for ``GET /trace`` (non-quiescing)."""
    tracer: Optional[Tracer] = getattr(cluster, "tracer", None)
    if tracer is None:
        return {"enabled": False, "sample_every": 0}
    report = tracer.report()
    out = report.to_dict()
    out["enabled"] = tracer.enabled
    out["span_events"] = tracer.span_events
    out["overflow_traces"] = tracer.overflow_traces
    return out


def run_forwarding_trace(seed: int = 0, sample_every: int = 7,
                         rate: float = 50_000.0, duration: float = 0.5,
                         hosts: int = 2):
    """Run the Fig. 8 forwarding workload with tracing on.

    Returns ``(report, tracer, cluster)`` after quiescing, so every
    sampled tuple has reached a terminal hop and the hop-sum identity
    against ``trace.e2e`` in the metrics registry holds exactly.
    """
    from ..sim.engine import Engine
    from ..streaming.topology import TopologyConfig
    from ..workloads.wordcount import forwarding_topology
    from .audit import quiesce
    from .runtime import TyphoonCluster

    engine = Engine()
    cluster = TyphoonCluster(engine, num_hosts=hosts, seed=seed)
    cluster.tracer.configure(sample_every)
    config = TopologyConfig(batch_size=50, max_spout_rate=rate,
                            acking=False)
    cluster.submit(forwarding_topology("fwd", config))
    deploy = 2.1  # same settle the bench harness gives §3.2 deployment
    engine.run(until=deploy)
    engine.run(until=deploy + duration)
    quiesce(cluster, settle=1.0)
    return cluster.tracer.report(), cluster.tracer, cluster
