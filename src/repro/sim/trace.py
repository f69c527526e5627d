"""Hop-by-hop tuple tracing: the observability analogue of the audit layer.

The paper's headline numbers are end-to-end latency CDFs (Figs. 8c/8d)
and per-second throughput under reconfiguration (Figs. 10-14), but an
aggregate latency distribution says nothing about *where* inside a
tuple's path the time goes — executor queue, serialization, batch wait,
switch match/replicate, wire, reassembly or the receiving executor's
input queue. This module records that path for a deterministic sample
of tuples:

* :class:`Tracer` — the sampling recorder. Sampling is 1-in-N by tuple
  id: every candidate tuple increments a counter, and the tuple is
  sampled iff ``counter % sample_every == 0``. The counter value becomes
  the trace id, carried *inside the serialized tuple envelope* (see
  :mod:`repro.streaming.serialize`), so every layer a tuple crosses —
  executor, transport, switch, tunnel, reassembler — can report
  checkpoints for it without any side-channel. With ``sample_every=0``
  (the default) the tracer is disabled and every hook is a guarded no-op
  that allocates nothing; the simulated schedule is bit-identical to a
  run without a tracer.

* :class:`TupleTrace` — one sampled tuple's ordered checkpoint events.
  A checkpoint ``(hop, t)`` closes the segment since the previous
  checkpoint and names it; segment durations therefore telescope, so
  the per-hop breakdown of a delivered tuple sums *exactly* to its
  end-to-end latency. Switch-level replication forks a trace into
  branches (one per destination); sender-side trunk checkpoints are
  shared by every branch.

* :class:`TraceReport` — aggregation: per-hop latency breakdown
  (count / wall time / modelled CPU cost) and a critical-path ranking.

Completed branches feed their end-to-end latency into the cluster's
:class:`~repro.sim.metrics.MetricsRegistry` under ``trace.e2e`` — the
value recorded is the *sum of the branch's segment durations*, so the
breakdown table and the metrics distribution agree to the last bit.

Like the delivery ledger, this module imports nothing above the
simulation kernel; frame-carrying layers hand opaque frames to
:meth:`Tracer.frame_ids`, which defers to an inspector callback the
cluster runtime installs (see :func:`repro.core.tracing.frame_trace_ids`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .engine import Engine
from .metrics import MetricsRegistry

# -- hop names --------------------------------------------------------------
#
# Each constant names a checkpoint; the checkpoint closes (and names) the
# segment of the tuple's timeline since the previous checkpoint.

H_EMIT = "emit"                    #: trace opens at the emitting executor
H_SERIALIZE = "serialize"          #: tuple encoded once (cost-annotated)
H_BATCH = "batch-wait"             #: sat in the sender's batch buffer
H_SWITCH = "switch-match"          #: flow-table lookup at a switch
H_REPLICATE = "switch-replicate"   #: group action forked the frame
H_PACKET_IN = "packet-in"          #: lifted to the controller (detour)
H_TUNNEL_TX = "tunnel-tx"          #: entered a host-level TCP tunnel
H_TUNNEL_RX = "tunnel-rx"          #: left the tunnel at the peer host
H_WIRE = "wire"                    #: switch output -> receiving transport
H_REASSEMBLY = "reassembly"        #: final fragment completed the tuple
H_DESERIALIZE = "deserialize"      #: decoded at the receiver (cost)
H_QUEUE = "queue-wait"             #: receiving executor's input queue
H_EXECUTE = "execute"              #: user component ran (terminal, data)
H_CONTROL = "control-apply"        #: control handler ran (terminal)
H_DROP = "drop"                    #: tuple died (terminal; layer+reason)

#: Terminal hops: after one of these, a branch (or the trace) is closed.
TERMINAL_HOPS = (H_EXECUTE, H_CONTROL, H_DROP)

KIND_DATA = "data"
KIND_CONTROL = "control"

#: Virtual worker-id space (SDN select-group destinations, see
#: ``repro.core.rules``): frames addressed there are not yet bound to a
#: concrete receiver, so their checkpoints stay on the trunk.
_VIRTUAL_WORKER_BASE = 0xE0000000


def address_branch(address: object) -> Optional[int]:
    """Concrete destination worker id of an address, else ``None``.

    Duck-typed so the sim layer needs no knowledge of Ethernet
    addressing: anything exposing ``worker_id`` plus the broadcast /
    controller flags of ``repro.net.addresses`` qualifies.
    """
    if address is None:
        return None
    if getattr(address, "is_broadcast", False) or getattr(
            address, "is_controller", False):
        return None
    worker_id = getattr(address, "worker_id", None)
    if worker_id is None or worker_id >= _VIRTUAL_WORKER_BASE:
        return None
    return worker_id


def frame_branch(frame: object) -> Optional[int]:
    """Destination worker id of a unicast frame, else ``None``.

    Checkpoints for unicast frames are tagged with the receiving branch,
    so a replicated (broadcast) trace keeps per-destination timelines
    clean; frames not yet bound to one receiver stay on the trunk.
    """
    return address_branch(getattr(frame, "dst", None))


@dataclass
class TraceEvent:
    """One checkpoint on a sampled tuple's path."""

    hop: str
    t: float
    branch: Optional[int] = None      #: destination worker id, once known
    cost: float = 0.0                 #: modelled CPU cost of this hop
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One interval of a sampled tuple's timeline (derived from events)."""

    span_id: int
    parent_id: Optional[int]
    hop: str
    start: float
    end: float
    branch: Optional[int] = None
    cost: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class TupleTrace:
    """Ordered checkpoint events for one sampled tuple."""

    __slots__ = ("trace_id", "kind", "t0", "meta", "events",
                 "delivered_branches", "drops")

    def __init__(self, trace_id: int, kind: str, t0: float,
                 meta: Optional[Dict[str, object]] = None):
        self.trace_id = trace_id
        self.kind = kind
        self.t0 = t0
        self.meta = meta or {}
        self.events: List[TraceEvent] = [TraceEvent(H_EMIT, t0)]
        #: Branches (destination worker ids) that reached a terminal
        #: deliver hop, with the branch's telescoped end-to-end latency.
        self.delivered_branches: Dict[int, float] = {}
        #: Terminal drops: (layer, reason) per drop event.
        self.drops: List[Tuple[str, str]] = []

    @property
    def e2e(self) -> float:
        """Sum of delivered-branch latencies (order-independent)."""
        return math.fsum(self.delivered_branches.values())

    # -- recording ---------------------------------------------------------

    def add(self, event: TraceEvent) -> None:
        self.events.append(event)

    @property
    def finished(self) -> bool:
        return bool(self.delivered_branches or self.drops)

    @property
    def open(self) -> bool:
        return not self.finished

    def branches(self) -> List[Optional[int]]:
        """Branch keys seen on this trace (None = trunk-only so far)."""
        seen: List[Optional[int]] = []
        for event in self.events:
            if event.branch not in seen and event.branch is not None:
                seen.append(event.branch)
        return seen or [None]

    def branch_events(self, branch: Optional[int]) -> List[TraceEvent]:
        """Trunk events plus the events of one branch, in recorded order,
        truncated at the branch's terminal event (trunk events recorded
        after another copy kept travelling do not belong to this branch).

        Recorded order is causal order: the engine clock is monotone and
        every hook fires at the simulated instant it models.
        """
        out = []
        for event in self.events:
            if event.branch is None or event.branch == branch:
                out.append(event)
                if event.branch == branch and event.hop in TERMINAL_HOPS:
                    break
        return out

    def segments(self, branch: Optional[int] = None
                 ) -> List[Tuple[str, float, float, TraceEvent]]:
        """``(hop, wall, cost, event)`` per closed segment of a branch."""
        events = self.branch_events(branch)
        out = []
        for previous, event in zip(events, events[1:]):
            out.append((event.hop, event.t - previous.t, event.cost, event))
        return out

    # -- span tree ---------------------------------------------------------

    def spans(self) -> List[Span]:
        """Materialize the span tree: one root covering the whole tuple,
        one container span per branch, one leaf span per segment."""
        next_id = [0]

        def make(parent: Optional[int], hop: str, start: float, end: float,
                 branch: Optional[int] = None, cost: float = 0.0,
                 meta: Optional[Dict[str, object]] = None) -> Span:
            span = Span(next_id[0], parent, hop, start, end, branch, cost,
                        meta or {})
            next_id[0] += 1
            return span

        out: List[Span] = []
        last_t = max((event.t for event in self.events), default=self.t0)
        root = make(None, "tuple", self.t0, last_t, meta=dict(self.meta))
        out.append(root)
        for branch in self.branches():
            events = self.branch_events(branch)
            branch_end = events[-1].t if events else self.t0
            container = make(root.span_id, "branch", self.t0, branch_end,
                             branch=branch)
            out.append(container)
            for previous, event in zip(events, events[1:]):
                out.append(make(container.span_id, event.hop, previous.t,
                                event.t, branch=branch, cost=event.cost,
                                meta=dict(event.meta)))
        return out


@dataclass
class HopStats:
    """Aggregated per-hop totals across delivered branches."""

    count: int = 0
    wall: float = 0.0
    cost: float = 0.0

    @property
    def mean(self) -> float:
        return self.wall / self.count if self.count else 0.0


class TraceReport:
    """Per-hop breakdown + critical path over a tracer's finished traces."""

    def __init__(self, sample_every: int):
        self.sample_every = sample_every
        self.sampled = 0
        self.delivered = 0          #: delivered branches
        self.dropped = 0            #: terminal drop events
        self.open = 0               #: traces still in flight
        self.hops: Dict[str, HopStats] = {}
        self.drop_reasons: Dict[Tuple[str, str], int] = {}
        #: How often each hop was the slowest segment of a branch.
        self.dominant: Dict[str, int] = {}
        self.e2e_count = 0
        #: Per-branch end-to-end latencies, as recorded into the metrics
        #: ``trace.e2e`` distribution — same multiset, so the fsum-based
        #: aggregates below agree with the registry to the last bit.
        self._e2e_values: List[float] = []
        self._walls: List[float] = []

    @property
    def e2e_sum(self) -> float:
        """fsum of every delivered branch's end-to-end latency. Equals
        ``Distribution.total()`` of ``trace.e2e`` exactly (same sample
        multiset, and fsum is independent of summation order)."""
        return math.fsum(self._e2e_values)

    def e2e_values(self) -> List[float]:
        return list(self._e2e_values)

    # -- accumulation ------------------------------------------------------

    def absorb(self, trace: TupleTrace) -> None:
        self.sampled += 1
        if trace.open:
            self.open += 1
        self.dropped += len(trace.drops)
        for layer_reason in trace.drops:
            self.drop_reasons[layer_reason] = (
                self.drop_reasons.get(layer_reason, 0) + 1)
        for branch, e2e in sorted(trace.delivered_branches.items()):
            self.delivered += 1
            self._e2e_values.append(e2e)
            self.e2e_count += 1
            worst_hop, worst_wall = "", -1.0
            for hop, wall, cost, _event in trace.segments(branch):
                stats = self.hops.setdefault(hop, HopStats())
                stats.count += 1
                stats.wall += wall
                stats.cost += cost
                self._walls.append(wall)
                if wall > worst_wall:
                    worst_hop, worst_wall = hop, wall
            if worst_hop:
                self.dominant[worst_hop] = self.dominant.get(worst_hop, 0) + 1

    # -- views -------------------------------------------------------------

    def hop_rows(self) -> List[Tuple[str, int, float, float, float, int]]:
        """(hop, count, wall_total, wall_mean, cost_total, dominant)
        sorted by descending wall total (the critical-path ranking)."""
        rows = []
        for hop, stats in self.hops.items():
            rows.append((hop, stats.count, stats.wall, stats.mean,
                         stats.cost, self.dominant.get(hop, 0)))
        rows.sort(key=lambda row: (-row[2], row[0]))
        return rows

    def critical_path(self) -> List[str]:
        """Hops ranked by how often they dominated a delivered branch."""
        return [hop for hop, _count in
                sorted(self.dominant.items(),
                       key=lambda item: (-item[1], item[0]))]

    def wall_total(self) -> float:
        """fsum of every delivered segment's wall time — the hop table's
        grand total. Agrees with :attr:`e2e_sum` up to regrouping of the
        per-branch fsums (identical multiset of segment walls)."""
        return math.fsum(self._walls)

    def to_dict(self) -> Dict[str, object]:
        return {
            "sample_every": self.sample_every,
            "sampled": self.sampled,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "open": self.open,
            "e2e_sum": self.e2e_sum,
            "e2e_count": self.e2e_count,
            "critical_path": self.critical_path(),
            "hops": [
                {"hop": hop, "count": count, "wall_total": wall,
                 "wall_mean": mean, "cost_total": cost, "dominant": dominant}
                for hop, count, wall, mean, cost, dominant in self.hop_rows()
            ],
            "drops": [
                {"layer": layer, "reason": reason, "traces": count}
                for (layer, reason), count in sorted(self.drop_reasons.items())
            ],
        }

    def render(self) -> str:
        """Deterministic text table (identical bytes for identical runs)."""
        lines = ["per-hop latency breakdown (sampling 1 in %d)"
                 % self.sample_every,
                 "-----------------------------------------"]
        lines.append("sampled=%d delivered=%d dropped=%d open=%d"
                     % (self.sampled, self.delivered, self.dropped, self.open))
        rows = self.hop_rows()
        if rows:
            lines.append("%-18s %8s %14s %14s %14s %9s"
                         % ("hop", "count", "wall-total-us", "wall-mean-us",
                            "cost-total-us", "dominant"))
            for hop, count, wall, mean, cost, dominant in rows:
                lines.append("%-18s %8d %14.6f %14.6f %14.6f %9d"
                             % (hop, count, wall * 1e6, mean * 1e6,
                                cost * 1e6, dominant))
            lines.append("hop wall sum   = %.9f s" % self.wall_total())
            lines.append("e2e latency sum= %.9f s over %d deliveries"
                         % (self.e2e_sum, self.e2e_count))
        else:
            lines.append("(no delivered sampled tuples)")
        if self.drop_reasons:
            lines.append("terminal drops:")
            for (layer, reason), count in sorted(self.drop_reasons.items()):
                lines.append("  %-12s %-22s %d" % (layer, reason, count))
        critical = self.critical_path()
        if critical:
            lines.append("critical path: %s" % " > ".join(critical))
        return "\n".join(lines)


class Tracer:
    """Deterministic sampling span recorder shared by every layer.

    Hooks follow one convention: callers that might be on a hot path
    guard with ``tracer is not None and tracer.enabled`` (and, for
    frame-level hooks, :meth:`has_active`), so a disabled tracer costs
    one attribute read. ``maybe_trace`` both samples and opens a trace;
    every other hook silently ignores unknown trace ids, so layers never
    need to know whether sampling is on.
    """

    def __init__(self, engine: Engine,
                 metrics: Optional[MetricsRegistry] = None,
                 sample_every: int = 0,
                 frame_inspector: Optional[
                     Callable[[object], Sequence[int]]] = None,
                 max_traces: int = 100_000):
        self.engine = engine
        self.metrics = metrics
        self.sample_every = int(sample_every)
        self.frame_inspector = frame_inspector
        self.max_traces = max_traces
        self.traces: Dict[int, TupleTrace] = {}
        self._counter = 0
        self.span_events = 0          #: total checkpoint events recorded
        self.overflow_traces = 0      #: sampled tuples past max_traces

    # -- configuration -----------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.sample_every > 0

    def configure(self, sample_every: int) -> None:
        """Set the 1-in-N sampling rate; 0 disables tracing entirely."""
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = int(sample_every)

    def reset(self) -> None:
        self.traces.clear()
        self._counter = 0
        self.span_events = 0
        self.overflow_traces = 0

    def has_active(self) -> bool:
        return bool(self.traces)

    # -- sampling ----------------------------------------------------------

    def maybe_trace(self, stream_tuple, kind: str = KIND_DATA,
                    **meta) -> Optional[int]:
        """Consider one tuple for sampling; assigns ``trace_id`` and opens
        the trace when selected. Returns the trace id or None."""
        if self.sample_every <= 0:
            return None
        if getattr(stream_tuple, "trace_id", None) is not None:
            return stream_tuple.trace_id   # already sampled upstream
        self._counter += 1
        if self._counter % self.sample_every != 0:
            return None
        if len(self.traces) >= self.max_traces:
            self.overflow_traces += 1
            return None
        trace_id = self._counter
        stream_tuple.trace_id = trace_id
        self.traces[trace_id] = TupleTrace(trace_id, kind, self.engine.now,
                                           meta=dict(meta))
        self.span_events += 1
        return trace_id

    # -- checkpoints -------------------------------------------------------

    def event(self, trace_id: Optional[int], hop: str,
              t: Optional[float] = None, branch: Optional[int] = None,
              cost: float = 0.0, **meta) -> None:
        if trace_id is None:
            return
        trace = self.traces.get(trace_id)
        if trace is None:
            return
        trace.add(TraceEvent(hop, self.engine.now if t is None else t,
                             branch=branch, cost=cost, meta=meta))
        self.span_events += 1

    def finish_delivery(self, trace_id: Optional[int], branch: int,
                        cost: float = 0.0, hop: str = H_EXECUTE,
                        **meta) -> None:
        """Terminal hop of one branch. The terminal checkpoint sits at
        ``now + cost`` so the executing hop has its compute width; the
        branch latency is the telescoped sum of its segment durations
        (not ``end - t0``) so breakdown tables match it bit-for-bit."""
        if trace_id is None:
            return
        trace = self.traces.get(trace_id)
        if trace is None or branch in trace.delivered_branches:
            return
        self.event(trace_id, hop, t=self.engine.now + cost, branch=branch,
                   cost=cost, **meta)
        e2e = math.fsum(
            wall for _hop, wall, _cost, _event in trace.segments(branch))
        trace.delivered_branches[branch] = e2e
        if self.metrics is not None:
            self.metrics.distribution("trace.e2e").record(e2e)
            self.metrics.distribution("trace.e2e.%s" % trace.kind).record(e2e)

    def finish_drop(self, trace_id: Optional[int], layer: str, reason: str,
                    branch: Optional[int] = None) -> None:
        """Terminal drop: the tuple died at ``layer`` for ``reason`` (the
        same constants the :class:`~repro.sim.audit.DeliveryLedger` uses,
        so trace terminations can be cross-checked against the ledger)."""
        if trace_id is None:
            return
        trace = self.traces.get(trace_id)
        if trace is None:
            return
        self.event(trace_id, H_DROP, branch=branch,
                   layer=layer, reason=reason)
        trace.drops.append((layer, reason))

    # -- frame-level hooks -------------------------------------------------

    def frame_ids(self, frame: object) -> Tuple[int, ...]:
        """Trace ids carried by an opaque frame, restricted to ids with
        a live trace. Cheap when nothing is being traced; needs the
        runtime-installed inspector otherwise. A malformed frame (the
        packet, frame and codec errors are all ``ValueError``s) carries
        no ids; any other inspector error is a bug and propagates."""
        if not self.traces or self.frame_inspector is None:
            return ()
        try:
            ids = self.frame_inspector(frame)
        except ValueError:
            return ()
        return tuple(i for i in ids if i in self.traces)

    def frame_event(self, frame: object, hop: str,
                    branch: Optional[int] = None, cost: float = 0.0,
                    **meta) -> Tuple[int, ...]:
        """Checkpoint every live trace a frame carries. Unless the caller
        supplies one, the branch is the frame's unicast destination."""
        ids = self.frame_ids(frame)
        if not ids:
            return ids
        if branch is None:
            branch = frame_branch(frame)
        for trace_id in ids:
            self.event(trace_id, hop, branch=branch, cost=cost, **meta)
        return ids

    def frame_drop(self, frame: object, layer: str, reason: str) -> None:
        ids = self.frame_ids(frame)
        if not ids:
            return
        branch = frame_branch(frame)
        for trace_id in ids:
            self.finish_drop(trace_id, layer, reason, branch=branch)

    def drop_ids(self, trace_ids: Sequence[int], layer: str,
                 reason: str) -> None:
        for trace_id in trace_ids:
            self.finish_drop(trace_id, layer, reason)

    # -- reporting ---------------------------------------------------------

    def report(self) -> TraceReport:
        out = TraceReport(self.sample_every)
        for trace_id in sorted(self.traces):
            out.absorb(self.traces[trace_id])
        return out

    def spans(self) -> List[Span]:
        out: List[Span] = []
        for trace_id in sorted(self.traces):
            out.extend(self.traces[trace_id].spans())
        return out
