"""Guaranteed processing: the acker component (§6.1, "tuple forwarding
with reliability guarantee").

Storm's scheme, reproduced faithfully: every tuple tree is tracked by a
64-bit XOR ledger keyed by the root tuple id. The spout sends an INIT
entry with the root's first edge id; every bolt that finishes processing
an anchored tuple sends ``input_edge_id XOR (xor of emitted edge ids)``.
When a root's ledger reaches zero, every edge was both created and
consumed exactly once, so the tree is fully processed and the acker sends
COMPLETE back to the originating spout worker (which records end-to-end
latency — the measurement behind Figs. 8c/8d).

Two hardening layers beyond the bare scheme:

* **explicit FAIL** — a bolt calling ``collector.fail`` sends a FAIL
  entry; the acker drops the ledger and notifies the spout immediately,
  so the failure surfaces at message latency instead of tuple-timeout
  latency;
* **ledger expiry** — entries whose roots the spout has already timed
  out (tuples lost to a crash, acks that raced ahead of a lost INIT)
  would otherwise leak forever. With an ``expiry`` horizon (wired to
  ``1.5 x tuple_timeout`` by the runtime, so the spout's own timeout
  always fires first) the acker lazily evicts stale entries while
  processing ack traffic.
"""

from __future__ import annotations

from typing import Dict, Optional

from .executor import ACK_ACK, ACK_COMPLETE, ACK_FAIL, ACK_INIT
from .topology import Bolt, ComponentContext, EmitterApi
from .tuples import ACK_STREAM, StreamTuple

ACKER_COMPONENT = "__acker__"


class _Ledger:
    """One root's XOR ledger. A ``__slots__`` record: one is built per
    acked root, so construction is on the acked data path."""

    __slots__ = ("value", "spout_worker", "created", "touched", "failed")

    def __init__(self, value: int, spout_worker: int, created: float = 0.0,
                 touched: float = 0.0, failed: bool = False):
        self.value = value
        self.spout_worker = spout_worker
        self.created = created   # for per-root age tracking
        self.touched = touched   # last activity; expiry sweeps key off this
        self.failed = failed     # FAIL seen before INIT (notify spout on INIT)


class AckerBolt(Bolt):
    """Framework-provided bolt maintaining the XOR ledgers."""

    def __init__(self, expiry: Optional[float] = None):
        self.ledgers: Dict[int, _Ledger] = {}
        self.completed = 0
        self.initialized = 0
        self.failed = 0
        self.expired = 0
        self.expiry = expiry
        self.age_sum = 0.0   # summed completion ages (seconds)
        self.age_max = 0.0
        self._now = None
        self._next_sweep = 0.0

    def open(self, ctx: ComponentContext) -> None:
        self._now = ctx.services.get("now")

    def execute(self, stream_tuple: StreamTuple, collector: EmitterApi) -> None:
        kind, root_id, value, src_worker = stream_tuple.values
        # The bound clock service; ackers built without open() (unit
        # tests) read 0.0.
        clock = self._now
        now = clock() if clock is not None else 0.0
        if kind == ACK_INIT:
            self.initialized += 1
            existing = self.ledgers.get(root_id)
            if existing is None:
                self.ledgers[root_id] = _Ledger(value, src_worker, now, now)
            elif existing.failed:
                # A bolt FAILed this root before its INIT arrived.
                del self.ledgers[root_id]
                self._notify_fail(root_id, src_worker, collector)
            else:
                # Ack from a bolt raced ahead of the spout's init.
                existing.value ^= value
                existing.spout_worker = src_worker
                existing.touched = now
                if existing.value == 0 and src_worker >= 0:
                    self._complete(root_id, existing, now, collector)
        elif kind == ACK_ACK:
            ledger = self.ledgers.get(root_id)
            if ledger is None:
                # Ack before init: remember the partial XOR.
                self.ledgers[root_id] = _Ledger(value, -1, now, now)
            else:
                ledger.value ^= value
                ledger.touched = now
                if ledger.value == 0 and ledger.spout_worker >= 0:
                    self._complete(root_id, ledger, now, collector)
        elif kind == ACK_FAIL:
            self.failed += 1
            ledger = self.ledgers.get(root_id)
            if ledger is None:
                # Fail before init: leave a tombstone so the INIT (which
                # carries the spout worker id) triggers the notification.
                self.ledgers[root_id] = _Ledger(0, -1, now, now, True)
            elif ledger.spout_worker < 0:
                ledger.failed = True
                ledger.touched = now
            else:
                del self.ledgers[root_id]
                self._notify_fail(root_id, ledger.spout_worker, collector)
        if self.expiry is not None and now >= self._next_sweep:
            self._sweep(now)

    def _complete(self, root_id: int, ledger: _Ledger, now: float,
                  collector: EmitterApi) -> None:
        """The root's ledger reached zero with its spout known: drop it
        and send COMPLETE to the spout."""
        del self.ledgers[root_id]
        self.completed += 1
        age = max(0.0, now - ledger.created)
        self.age_sum += age
        if age > self.age_max:
            self.age_max = age
        collector.emit_direct(
            ledger.spout_worker,
            (ACK_COMPLETE, root_id, 0, -1),
            stream=ACK_STREAM,
        )

    def _notify_fail(self, root_id: int, spout_worker: int,
                     collector: EmitterApi) -> None:
        collector.emit_direct(
            spout_worker,
            (ACK_FAIL, root_id, 0, -1),
            stream=ACK_STREAM,
        )

    def _sweep(self, now: float) -> None:
        """Lazily evict ledgers idle past the expiry horizon. Runs at
        most every ``expiry / 4`` so long-lived ackers stay O(traffic),
        and only off virtual time — no timers, no RNG, so topologies
        without leaks behave identically with or without expiry. The
        caller checks that a sweep is due."""
        self._next_sweep = now + self.expiry / 4
        horizon = now - self.expiry
        stale = [root for root, ledger in self.ledgers.items()
                 if ledger.touched <= horizon]
        for root in stale:
            del self.ledgers[root]
        self.expired += len(stale)

    def stats(self) -> Dict[str, float]:
        """Ledger health, surfaced through the chaos snapshot."""
        mean_age = self.age_sum / self.completed if self.completed else 0.0
        return {
            "ledgers": len(self.ledgers),
            "initialized": self.initialized,
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "mean_age": mean_age,
            "max_age": self.age_max,
        }
