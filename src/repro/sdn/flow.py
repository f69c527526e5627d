"""Flow matches, actions and flow tables (OpenFlow-style).

The match fields are exactly those Typhoon's rules use (Table 3):
``in_port``, ``dl_src``, ``dl_dst`` and ``ether_type``; any field may be
wildcarded. Actions cover the paper's needs: output to ports, output to
the controller, set-tunnel-destination (for remote transfers over host
TCP tunnels), destination rewrite and group indirection (for the SDN
load balancer's weighted round robin).
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.addresses import WorkerAddress
from ..net.ethernet import EthernetFrame

#: Virtual port number addressing the controller (cf. OFPP_CONTROLLER).
OFPP_CONTROLLER = 0xFFFFFFFD


@dataclass(frozen=True)
class Match:
    """A wildcard-capable match over frame headers and ingress port."""

    in_port: Optional[int] = None
    dl_src: Optional[WorkerAddress] = None
    dl_dst: Optional[WorkerAddress] = None
    ether_type: Optional[int] = None

    def matches(self, frame: EthernetFrame, in_port: int) -> bool:
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.dl_src is not None and frame.src != self.dl_src:
            return False
        if self.dl_dst is not None and frame.dst != self.dl_dst:
            return False
        if self.ether_type is not None and frame.ethertype != self.ether_type:
            return False
        return True

    def covers(self, other: "Match") -> bool:
        """True if every frame matched by ``other`` is matched by ``self``."""
        for name in ("in_port", "dl_src", "dl_dst", "ether_type"):
            mine = getattr(self, name)
            theirs = getattr(other, name)
            if mine is not None and mine != theirs:
                return False
        return True

    def describe(self) -> str:
        parts = []
        if self.in_port is not None:
            parts.append("in_port=%d" % self.in_port)
        if self.dl_src is not None:
            parts.append("dl_src=%s" % self.dl_src)
        if self.dl_dst is not None:
            parts.append("dl_dst=%s" % self.dl_dst)
        if self.ether_type is not None:
            parts.append("ether_type=0x%04x" % self.ether_type)
        return ", ".join(parts) or "any"


# -- actions ---------------------------------------------------------------


@dataclass(frozen=True)
class Action:
    """Base class for flow actions."""


@dataclass(frozen=True)
class Output(Action):
    """Emit the frame on a switch port (or OFPP_CONTROLLER)."""

    port: int


@dataclass(frozen=True)
class SetTunnelDst(Action):
    """Select the peer host for a subsequent tunnel-port output."""

    host: str


@dataclass(frozen=True)
class SetDlDst(Action):
    """Rewrite the destination worker address (SDN load balancing, §4)."""

    address: WorkerAddress


@dataclass(frozen=True)
class GroupAction(Action):
    """Indirect through a group-table entry."""

    group_id: int


@dataclass(frozen=True)
class Meter(Action):
    """Pass the frame through a rate meter before further processing.

    Installed via MeterMod; an uninstalled meter id passes traffic
    through unmetered (rate policing fails open, never drops)."""

    meter_id: int


# -- flow entries ------------------------------------------------------------

_entry_ids = itertools.count(1)


@dataclass
class FlowEntry:
    """One rule: match + action list + priority + timeouts + counters."""

    match: Match
    actions: Tuple[Action, ...]
    priority: int = 100
    idle_timeout: Optional[float] = None
    cookie: int = 0
    entry_id: int = field(default_factory=lambda: next(_entry_ids))
    packets: int = 0
    bytes: int = 0
    installed_at: float = 0.0
    last_used: float = 0.0

    def __post_init__(self) -> None:
        self.actions = tuple(self.actions)

    def touch(self, now: float, nbytes: int) -> None:
        self.packets += 1
        self.bytes += nbytes
        self.last_used = now

    def idle_expired(self, now: float) -> bool:
        if self.idle_timeout is None:
            return False
        reference = self.last_used if self.packets else self.installed_at
        return now - reference >= self.idle_timeout

    def describe(self) -> str:
        return "[prio=%d] match(%s) -> %s" % (
            self.priority, self.match.describe(),
            ", ".join(type(a).__name__ for a in self.actions),
        )


class FlowTable:
    """Priority-bucketed flow rules with exact-overlap replacement.

    Entries live in per-priority buckets (insertion-ordered), so ADD
    costs O(bucket) instead of a full re-sort, and lookup walks the
    buckets from highest priority down, short-circuiting on the first
    match. Among equal priorities the earliest-installed slot wins
    (deterministic); adding an entry whose match and priority equal an
    existing entry replaces it in place (OpenFlow ADD semantics).
    """

    def __init__(self):
        self._buckets: Dict[int, List[FlowEntry]] = {}
        #: Bucket priorities, kept sorted descending.
        self._priorities: List[int] = []

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __iter__(self):
        entries: List[FlowEntry] = []
        for priority in self._priorities:
            entries.extend(self._buckets[priority])
        return iter(entries)

    def add(self, entry: FlowEntry, now: float = 0.0) -> FlowEntry:
        entry.installed_at = now
        entry.last_used = now
        bucket = self._buckets.get(entry.priority)
        if bucket is None:
            bucket = self._buckets[entry.priority] = []
            position = bisect.bisect_left(
                [-p for p in self._priorities], -entry.priority)
            self._priorities.insert(position, entry.priority)
            bucket.append(entry)
        else:
            for i, existing in enumerate(bucket):
                if existing.match == entry.match:
                    bucket[i] = entry
                    break
            else:
                bucket.append(entry)
        return entry

    def lookup(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        for priority in self._priorities:
            for entry in self._buckets[priority]:
                if entry.match.matches(frame, in_port):
                    return entry
        return None

    #: The name the switch calls, kept because the benchmark's
    #: ``sdn.flow`` layer (``benchmarks/suite/layers.py``) times it.
    lookup_cached = lookup

    def _drop_bucket_entries(self, removed: List[FlowEntry]) -> None:
        for entry in removed:
            bucket = self._buckets.get(entry.priority)
            if bucket is None:
                continue
            bucket.remove(entry)
            if not bucket:
                del self._buckets[entry.priority]
                self._priorities.remove(entry.priority)

    def remove(self, match: Match, strict: bool = False,
               priority: Optional[int] = None) -> List[FlowEntry]:
        """Delete entries; non-strict removes every entry *covered* by
        match. Strict deletion also requires the priority to match when
        one is given (OpenFlow delete_strict semantics)."""
        if strict:
            removed = [e for e in self
                       if e.match == match
                       and (priority is None or e.priority == priority)]
        else:
            removed = [e for e in self if match.covers(e.match)]
        self._drop_bucket_entries(removed)
        return removed

    def remove_by_cookie(self, cookie: int) -> List[FlowEntry]:
        removed = [e for e in self if e.cookie == cookie]
        self._drop_bucket_entries(removed)
        return removed

    def expire_idle(self, now: float) -> List[FlowEntry]:
        expired = [e for e in self if e.idle_expired(now)]
        self._drop_bucket_entries(expired)
        return expired

    def referencing_port(self, port: int) -> List[FlowEntry]:
        """Entries that match on or output to the given port."""
        hits = []
        for entry in self:
            if entry.match.in_port == port:
                hits.append(entry)
                continue
            if any(isinstance(a, Output) and a.port == port for a in entry.actions):
                hits.append(entry)
        return hits

