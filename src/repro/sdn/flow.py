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

    def matches_key(self, dl_dst: WorkerAddress, dl_src: WorkerAddress,
                    in_port: int, ether_type: int) -> bool:
        """Like :meth:`matches`, but against an exact-match cache key.

        The key carries every field a :class:`Match` can constrain, so
        this decides *exactly* whether a frame with these headers would
        be matched — the property the exact-match cache relies on."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.dl_src is not None and dl_src != self.dl_src:
            return False
        if self.dl_dst is not None and dl_dst != self.dl_dst:
            return False
        if self.ether_type is not None and ether_type != self.ether_type:
            return False
        return True

    @property
    def mask_bits(self) -> int:
        """Bitmask of constrained fields, in cache-key field order
        (bit0=dl_dst, bit1=dl_src, bit2=in_port, bit3=ether_type)."""
        bits = 0
        if self.dl_dst is not None:
            bits |= 1
        if self.dl_src is not None:
            bits |= 2
        if self.in_port is not None:
            bits |= 4
        if self.ether_type is not None:
            bits |= 8
        return bits

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


def train_forward_plan(
        actions) -> Optional[List[Tuple[int, Optional[str]]]]:
    """Precompile a pure-forwarding action list for the train fast path.

    Returns ``[(port_no, tun_dst), ...]`` — one entry per frame copy the
    switch would emit, with the tunnel destination in effect at that
    output — when the action list consists solely of :class:`Output` and
    :class:`SetTunnelDst` actions. Anything that could diverge per frame
    or touch side machinery (meters, groups, address rewrites,
    controller/table outputs) returns ``None``, sending the train down
    the per-frame matching path. The switch still validates each planned
    port (existence, up, kind) against its own tables before fusing.
    """
    plan: List[Tuple[int, Optional[str]]] = []
    tun_dst: Optional[str] = None
    for action in actions:
        kind = type(action)
        if kind is Output:
            port = action.port
            if port == OFPP_CONTROLLER:
                return None
            plan.append((port, tun_dst))
        elif kind is SetTunnelDst:
            tun_dst = action.host
        else:
            return None
    return plan or None


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


#: Full cache key: every header field a :class:`Match` can constrain —
#: ``(dl_dst, dl_src, in_port, ether_type)``. Megaflow entries cache the
#: projection of this key onto the fields the table walk actually
#: examined; because the projection covers every compared field, two
#: frames with equal projections always resolve to the same table entry.
CacheKey = Tuple[WorkerAddress, WorkerAddress, int, int]

#: All four key fields constrained.
_FULL_MASK = 0xF

#: mask -> indices of the key fields it includes, precomputed.
_MASK_FIELDS = tuple(
    tuple(i for i in range(4) if mask >> i & 1) for mask in range(16)
)


def _project(mask: int, key: CacheKey) -> Tuple:
    fields = _MASK_FIELDS[mask]
    return tuple(key[i] for i in fields)


class MegaflowCache:
    """Masked (megaflow-style) lookup cache in front of the priority table.

    The priority table is authoritative; the cache memoizes its answers
    (the matched :class:`FlowEntry`, or ``None`` for a table miss) under
    *masked* keys, as in Open vSwitch's megaflow cache. A miss walks the
    table, accumulating the union of the constrained-field masks of every
    entry it examines; the result is stored under the frame key projected
    onto that union. Any later frame that agrees on those fields takes the
    identical path through the walk and therefore gets the same answer —
    so a wildcard-heavy rule set (e.g. one catch-all rule) collapses whole
    swaths of the header space onto a single cached megaflow instead of
    one cache line per exact header combination.

    Invalidation is *overlapping-priority aware*:

    * an ADD drops the megaflows whose answer the new entry could change —
      those whose cached answer is a miss or an entry of equal-or-lower
      priority, where the new match could coincide with the megaflow's
      key space (fields the megaflow leaves unmasked are wildcards, so
      they are conservatively treated as "could coincide");
    * a delete/expiry drops the megaflows whose cached answer *is* one of
      the removed entries (a removal can never create a better match for
      a key it did not answer);
    * table loss or environment changes (switch crash, GroupMod,
      PortStatus, SwitchReconnect) clear the whole cache.

    Hit/miss/invalidation counters feed the repo benchmark; the cache
    never affects which entry a lookup returns, so virtual-time results
    and flow counters are identical with or without it.
    """

    #: Bound on cached megaflows across all masks; on overflow the cache
    #: is simply cleared (rare: masked keys collapse the key space hard).
    MAX_ENTRIES = 8192

    def __init__(self):
        #: mask -> {projected key -> entry-or-None}
        self._masks: Dict[int, Dict[Tuple, Optional[FlowEntry]]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return self._size

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        if self._size:
            self.invalidations += self._size
            self._masks.clear()
            self._size = 0

    def _drop_empty_masks(self) -> None:
        for mask in [m for m, bucket in self._masks.items() if not bucket]:
            del self._masks[mask]

    def invalidate_for_add(self, entry: FlowEntry) -> None:
        match = entry.match
        priority = entry.priority
        values = (match.dl_dst, match.dl_src, match.in_port,
                  match.ether_type)
        dropped = 0
        for mask, bucket in self._masks.items():
            fields = _MASK_FIELDS[mask]
            stale = []
            for mkey, cached in bucket.items():
                if cached is not None and cached.priority > priority:
                    continue
                for j, i in enumerate(fields):
                    constrained = values[i]
                    if constrained is not None and constrained != mkey[j]:
                        break
                else:
                    stale.append(mkey)
            for mkey in stale:
                del bucket[mkey]
            dropped += len(stale)
        if dropped:
            self._drop_empty_masks()
            self._size -= dropped
            self.invalidations += dropped

    def invalidate_entries(self, removed: List[FlowEntry]) -> None:
        if not removed:
            return
        gone = {id(entry) for entry in removed}
        dropped = 0
        for bucket in self._masks.values():
            stale = [mkey for mkey, cached in bucket.items()
                     if cached is not None and id(cached) in gone]
            for mkey in stale:
                del bucket[mkey]
            dropped += len(stale)
        if dropped:
            self._drop_empty_masks()
            self._size -= dropped
            self.invalidations += dropped


#: Backwards-compatible alias (the pre-megaflow name).
ExactMatchCache = MegaflowCache


class FlowTable:
    """Priority-bucketed flow rules with exact-overlap replacement.

    Entries live in per-priority buckets (insertion-ordered), so ADD
    costs O(bucket) instead of a full re-sort, and lookup walks the
    buckets from highest priority down, short-circuiting on the first
    match. Among equal priorities the earliest-installed slot wins
    (deterministic); adding an entry whose match and priority equal an
    existing entry replaces it in place (OpenFlow ADD semantics).

    A :class:`MegaflowCache` memoizes :meth:`lookup_cached` answers;
    every table mutation invalidates the affected megaflows.
    """

    def __init__(self):
        self._buckets: Dict[int, List[FlowEntry]] = {}
        #: Bucket priorities, kept sorted descending.
        self._priorities: List[int] = []
        self.cache = MegaflowCache()

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
        self.cache.invalidate_for_add(entry)
        return entry

    def lookup(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        for priority in self._priorities:
            for entry in self._buckets[priority]:
                if entry.match.matches(frame, in_port):
                    return entry
        return None

    def lookup_cached(self, frame: EthernetFrame,
                      in_port: int) -> Optional[FlowEntry]:
        """Megaflow-cached lookup; same answer as :meth:`lookup`.

        A hit under *any* mask is correct: each megaflow covers every
        field its walk compared, so frames agreeing on those fields take
        the same decision path through the table (probe order is free).
        """
        cache = self.cache
        key = (frame.dst, frame.src, in_port, frame.ethertype)
        for mask, bucket in cache._masks.items():
            mkey = key if mask == _FULL_MASK else _project(mask, key)
            entry = bucket.get(mkey, _CACHE_ABSENT)
            if entry is not _CACHE_ABSENT:
                cache.hits += 1
                return entry
        cache.misses += 1
        # Authoritative walk; union the constrained fields of every entry
        # examined (rejected or matched) — the megaflow's mask.
        union = 0
        result = None
        for priority in self._priorities:
            for entry in self._buckets[priority]:
                match = entry.match
                union |= match.mask_bits
                if match.matches(frame, in_port):
                    result = entry
                    break
            if result is not None:
                break
        if cache._size >= cache.MAX_ENTRIES:
            cache.clear()
        mkey = key if union == _FULL_MASK else _project(union, key)
        bucket = cache._masks.get(union)
        if bucket is None:
            bucket = cache._masks[union] = {}
        bucket[mkey] = result
        cache._size += 1
        return result

    def invalidate_cache(self) -> None:
        """Drop every cached answer (environment changed: group tables,
        port set, switch reconnect — anything outside the table)."""
        self.cache.clear()

    def _drop_bucket_entries(self, removed: List[FlowEntry]) -> None:
        for entry in removed:
            bucket = self._buckets.get(entry.priority)
            if bucket is None:
                continue
            bucket.remove(entry)
            if not bucket:
                del self._buckets[entry.priority]
                self._priorities.remove(entry.priority)
        self.cache.invalidate_entries(removed)

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


#: Sentinel distinguishing "cached miss" (None) from "not cached".
_CACHE_ABSENT = object()
